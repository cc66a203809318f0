"""Finite vertex-labeled graphs.

A graph here is a finite simple graph whose vertices carry non-negative
rational labels.  Declaration order is significant: the order of ``v``
lines fixes the vertex order, and every enumerator and tie-break in the
package follows it, so results are reproducible across runs.

Labels are exact rationals (:class:`fractions.Fraction`).  Floats are
rejected at construction time; pass strings like ``"1/2"`` instead.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, Sequence

DEFAULT_CYCLE_CAP = 10
DEFAULT_TREE_CAP = 8

# Python's int-string digit limit (0: none); before 3.10.7, its default.
_int_digits_limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)


class GraphFormatError(ValueError):
    """Violation of the graph file grammar, tagged with a line number."""

    def __init__(self, line_no: int, category: str, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.category = category


class DisconnectedGraphError(ValueError):
    """Raised by operations that require a connected graph."""

    def __init__(self, u: str, v: str):
        super().__init__(f"graph is disconnected: no path joins {u!r} and {v!r}")
        self.witnesses = (u, v)


class NotATreeError(ValueError):
    pass


class CapExceededError(ValueError):
    pass


def _require_cap(what: str, n: int, cap: int) -> None:
    """Refuse ``n`` vertices above ``cap`` for the exponential ``what``."""
    if n > cap:
        raise CapExceededError(f"{what} capped at {cap} vertices, got {n}")


def _coerce_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    # bool is an int subclass; nobody labels vertices True on purpose.
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # The graph-file grammar; the caller applies its own sign rule.
        return _number(value, "number")
    raise TypeError(
        f"expected a Fraction, int, or string, not {type(value).__name__}"
        " (floats are rejected to keep values exact)"
    )


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable simple graph with one non-negative rational label per vertex.

    ``vertices`` keeps declaration order.  Each edge is stored with its
    endpoints ordered by declaration index, but the edge tuple itself
    keeps the order in which edges were declared.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    labels: Mapping[str, Fraction]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("graph must have at least one vertex")
        index: dict[str, int] = {}
        for v in self.vertices:
            if v in index:
                raise ValueError(f"duplicate vertex id {v!r}")
            index[v] = len(index)

        labels = {v: _coerce_rational(x) for v, x in self.labels.items()}
        for v in self.vertices:
            if v not in labels:
                raise ValueError(f"vertex {v!r} has no label")
        for v, x in labels.items():
            if v not in index:
                raise ValueError(f"label given for undeclared vertex {v!r}")
            if x < 0:
                raise ValueError(f"vertex {v!r} has negative label {x}")

        seen: set[tuple[str, str]] = set()
        norm: list[tuple[str, str]] = []
        for u, v in self.edges:
            if u not in index or v not in index:
                raise ValueError(f"edge ({u!r}, {v!r}) has an undeclared endpoint")
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            edge = (u, v) if index[u] < index[v] else (v, u)
            if edge in seen:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            seen.add(edge)
            norm.append(edge)

        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        for v in self.vertices:
            adj[v].sort(key=index.__getitem__)

        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_adj", {v: tuple(ns) for v, ns in adj.items()})

    # -- basic accessors ------------------------------------------------

    def index_of(self, v: str) -> int:
        return self._index[v]

    def neighbors(self, v: str) -> tuple[str, ...]:
        """Neighbors of ``v`` in vertex declaration order."""
        return self._adj[v]

    def label(self, v: str) -> Fraction:
        return self.labels[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def has_edge(self, u: str, v: str) -> bool:
        i, j = self._index[u], self._index[v]
        pair = (u, v) if i < j else (v, u)
        return pair in self._edge_set()

    def _edge_set(self) -> frozenset[tuple[str, str]]:
        cached = self.__dict__.get("_edges_frozen")
        if cached is None:
            cached = frozenset(self.edges)
            object.__setattr__(self, "_edges_frozen", cached)
        return cached

    def edge_key(self, u: str, v: str) -> tuple[str, str]:
        """The stored orientation of an edge: endpoints by declaration index."""
        if u == v or u not in self._index or v not in self._index:
            raise ValueError(f"({u!r}, {v!r}) is not a valid vertex pair")
        return (u, v) if self._index[u] < self._index[v] else (v, u)

    def with_labels(self, labels: Mapping[str, object]) -> "LabeledGraph":
        """Same structure, new labeling."""
        return LabeledGraph(self.vertices, self.edges, dict(labels))

    def to_text(self) -> str:
        """Render in the line-based file format accepted by :func:`parse_graph`."""
        lines = [f"v {v} {self.labels[v]}" for v in self.vertices]
        lines.extend(f"e {u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


# -- parsing -----------------------------------------------------------


def _number(token: str, what: str) -> Fraction:
    """A rational token of either sign: ``3/2``, ``-1.5`` or ``15e-1``.

    The int-string limit bounds the value, so that every output can print
    it: its numerator and denominator must have at most ``limit`` digits.
    An exponent beyond the limit is refused first, before ``Fraction``
    spends seconds on ``10**exp``.  A refused token raises ``ValueError``
    naming it as ``what``.
    """
    if "_" in token:  # digit separators, which Fraction takes from 3.11 on
        raise ValueError(f"malformed {what} {token!r}")
    limit = _int_digits_limit()
    mantissa, e, exponent = token.lower().partition("e")
    try:
        huge = bool(e) and 0 < limit < abs(int(exponent))
        value = Fraction(mantissa + "e0" if huge else token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed {what} {token!r}") from None
    if huge:
        raise ValueError(f"exponent of {what} {token!r} exceeds {limit}")
    if limit and max(abs(value.numerator), value.denominator) >= _digits_bound(limit):
        raise ValueError(f"{what} {token!r} has more than {limit} digits")
    return value


def _rational(token: str, what: str) -> Fraction:
    """A non-negative :func:`_number`: the grammar of labels and weights."""
    value = _number(token, what)
    if value < 0:
        raise ValueError(f"negative {what} {token!r}")
    return value


def _parse_rational(token: str, line_no: int, category: str, what: str) -> Fraction:
    """:func:`_rational`, its refusal raised as a :class:`GraphFormatError`."""
    try:
        return _rational(token, what)
    except ValueError as exc:
        raise GraphFormatError(line_no, category, str(exc)) from None


@lru_cache(maxsize=1)
def _digits_bound(limit: int) -> int:
    """The least integer with more than ``limit`` digits."""
    return 10**limit


# Record shapes of the two formats: per directive, the token counts a
# line may have and the usage its ``malformed-line`` error shows.
_LABELED_RECORDS = {"v": ((3,), "v <id> <label>"), "e": ((3,), "e <id> <id>")}
_WEIGHTED_RECORDS = {"v": ((2, 3), "v <id> [label]"), "e": ((4,), "e <id> <id> <weight>")}


def _read_records(text: str, shapes: Mapping[str, tuple[tuple[int, ...], str]]):
    """Read a graph document of either format in one pass.

    Skips blanks and ``#`` comments, checks each record's token count
    against ``shapes``, then duplicate vertices, undeclared endpoints,
    self-loops and duplicate edges.  Returns ``(labels, edges)`` in
    declaration order: vertex -> label (a third ``v`` token), ``(u, v)``
    as written -> weight (a fourth ``e`` token), ``None`` if absent.
    """
    labels: dict[str, Fraction | None] = {}
    edges: dict[tuple[str, str], Fraction | None] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]
        if head not in shapes:
            raise GraphFormatError(
                line_no, "malformed-line", f"unknown directive {head!r} in {line!r}"
            )
        counts, usage = shapes[head]
        if len(tokens) not in counts:
            raise GraphFormatError(line_no, "malformed-line", f"expected '{usage}', got {line!r}")
        if head == "v":
            vid = tokens[1]
            if vid in labels:
                raise GraphFormatError(line_no, "duplicate-vertex", f"duplicate vertex id {vid!r}")
            labels[vid] = None
            if len(tokens) == 3:
                labels[vid] = _parse_rational(tokens[2], line_no, "bad-label", "label")
        else:
            u, v = tokens[1], tokens[2]
            if u not in labels or v not in labels:
                end = u if u not in labels else v
                raise GraphFormatError(
                    line_no, "undeclared-endpoint", f"undeclared endpoint {end!r}"
                )
            if u == v:
                raise GraphFormatError(line_no, "self-loop", f"self-loop at {u!r}")
            if (u, v) in edges or (v, u) in edges:
                raise GraphFormatError(line_no, "duplicate-edge", f"duplicate edge {u!r} {v!r}")
            edges[u, v] = None
            if len(tokens) == 4:
                edges[u, v] = _parse_rational(tokens[3], line_no, "bad-weight", "weight")
    if not labels:
        raise GraphFormatError(0, "empty-graph", "no vertices declared")
    return labels, edges


def parse_graph(text: str) -> LabeledGraph:
    """Parse the labeled graph format.

    Grammar, one record per line: ``# comment``, ``v <id> <label>``,
    ``e <id> <id>``.  Blank lines are ignored.  Labels are decimals
    (``1.5``, ``15e-1``) or rationals (``3/2``).  The order of ``v`` lines
    defines the vertex order.  The weighted format shares the reader.
    """
    labels, edges = _read_records(text, _LABELED_RECORDS)
    return LabeledGraph(tuple(labels), tuple(edges), labels)


# -- predicates and traversals -----------------------------------------


def _bfs(g: LabeledGraph, start: str) -> dict[str, tuple[str | None, int]]:
    """Breadth-first search from ``start``: each reached vertex -> (parent, level).

    Neighbors are scanned in declaration order, and the dict keeps the
    order of discovery; ``start`` has parent ``None`` and level ``0``.
    """
    found: dict[str, tuple[str | None, int]] = {start: (None, 0)}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        level = found[u][1] + 1
        for w in g.neighbors(u):
            if w not in found:
                found[w] = (u, level)
                queue.append(w)
    return found


def connectivity_witness(g: LabeledGraph) -> tuple[str, str] | None:
    """``None`` if connected, else a pair of vertices in different components."""
    reached = _bfs(g, g.vertices[0])
    for v in g.vertices:
        if v not in reached:
            return (g.vertices[0], v)
    return None


def is_connected(g: LabeledGraph) -> bool:
    """Return ``True`` when every vertex is reachable from every other."""
    return connectivity_witness(g) is None


def require_connected(g: LabeledGraph) -> None:
    witness = connectivity_witness(g)
    if witness is not None:
        raise DisconnectedGraphError(*witness)


def is_tree(g: LabeledGraph) -> bool:
    """Return ``True`` when the (connected) graph is acyclic.

    Raises :class:`DisconnectedGraphError` on disconnected input: for a
    connected graph acyclicity is exactly ``|E| = |V| - 1``.
    """
    require_connected(g)
    return len(g.edges) == len(g.vertices) - 1


def spanning_tree(g: LabeledGraph) -> LabeledGraph:
    """Breadth-first spanning tree from the first-declared vertex.

    Neighbors are scanned in declaration order, so the result is a
    deterministic function of the input document.  Labels carry over.
    """
    require_connected(g)
    found = _bfs(g, g.vertices[0])
    tree_edges = tuple((u, w) for w, (u, _level) in found.items() if u is not None)
    return LabeledGraph(g.vertices, tree_edges, dict(g.labels))


def enumerate_simple_paths(g: LabeledGraph, x: str, y: str) -> Iterator[tuple[str, ...]]:
    """Yield every simple path from ``x`` to ``y``.

    Paths come out in lexicographic order of their vertex-index
    sequences (declaration order), which makes downstream minima
    reproducible.  ``x`` and ``y`` must be distinct declared vertices.
    """
    for v in (x, y):
        if v not in g._index:
            raise ValueError(f"unknown vertex {v!r}")
    if x == y:
        raise ValueError("path endpoints must be distinct")

    path = [x]
    on_path = {x}

    def walk(u: str) -> Iterator[tuple[str, ...]]:
        for w in g.neighbors(u):
            if w == y:
                yield tuple(path) + (y,)
            elif w not in on_path:
                path.append(w)
                on_path.add(w)
                yield from walk(w)
                path.pop()
                on_path.remove(w)

    yield from walk(x)


def enumerate_cycles(g: LabeledGraph, cap: int = DEFAULT_CYCLE_CAP) -> Iterator[tuple[str, ...]]:
    """Yield each cycle subgraph exactly once, up to rotation and reflection.

    A cycle is reported as a vertex tuple starting at its least-index
    vertex; reflections are collapsed by requiring the second vertex to
    precede the last in declaration order.  Guarded by ``cap`` because
    the count is exponential.
    """
    _require_cap("cycle enumeration", len(g.vertices), cap)
    index = g._index
    adj = {v: [w for w in g.neighbors(v)] for v in g.vertices}

    path: list[str] = []
    on_path: set[str] = set()

    def walk(start: str, u: str) -> Iterator[tuple[str, ...]]:
        for w in adj[u]:
            iw = index[w]
            if w == start and len(path) >= 3:
                if index[path[1]] < index[path[-1]]:
                    yield tuple(path)
            elif iw > index[start] and w not in on_path:
                path.append(w)
                on_path.add(w)
                yield from walk(start, w)
                path.pop()
                on_path.remove(w)

    for start in g.vertices:
        path = [start]
        on_path = {start}
        yield from walk(start, start)


def tree_from_pruefer(seq: Sequence[int], n: int) -> tuple[tuple[int, int], ...]:
    """Decode a Pruefer sequence over ``range(n)`` into tree edges on ``range(n)``."""
    if n < 2:
        raise ValueError("a Pruefer sequence encodes a tree on at least 2 vertices")
    if len(seq) != n - 2:
        raise ValueError(f"sequence for {n} vertices must have length {n - 2}")
    degree = [1] * n
    for s in seq:
        if not 0 <= s < n:
            raise ValueError(f"Pruefer symbol {s!r} is not in range({n})")
        degree[s] += 1
    edges: list[tuple[int, int]] = []
    for s in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, s) if leaf < s else (s, leaf))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = (i for i in range(n) if degree[i] == 1)
    edges.append((u, v))
    return tuple(edges)


def enumerate_trees(n: int, cap: int = DEFAULT_TREE_CAP) -> Iterator[LabeledGraph]:
    """Yield all ``n**(n-2)`` labeled trees on vertices ``"1"`` .. ``"n"``.

    Trees are produced by decoding Pruefer sequences in lexicographic
    order.  Every vertex gets the placeholder label 0; callers bind real
    labelings with :meth:`LabeledGraph.with_labels`.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    _require_cap("tree enumeration", n, cap)
    names = tuple(str(i + 1) for i in range(n))
    labels = {v: Fraction(0) for v in names}
    if n == 1:
        yield LabeledGraph(names, (), labels)
        return
    for seq in product(range(n), repeat=n - 2):
        edges = tuple((names[i], names[j]) for i, j in tree_from_pruefer(seq, n))
        yield LabeledGraph(names, edges, labels)


def root_levels(t: LabeledGraph, root: str) -> dict[str, int]:
    """Distance-from-root levels of a tree, by breadth-first traversal."""
    if root not in t._index:
        raise ValueError(f"unknown root {root!r}")
    if not is_tree(t):
        raise NotATreeError("root levels are only defined for trees")
    return {v: level for v, (_parent, level) in _bfs(t, root).items()}
