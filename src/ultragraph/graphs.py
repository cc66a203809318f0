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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from heapq import heappop, heappush
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

DEFAULT_CYCLE_CAP = 10
DEFAULT_TREE_CAP = 8

# Python's int-string digit limit; where it is off (0) or missing (before
# 3.10.7), its default, 4300, bounds values all the same.
_int_digits_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


class GraphFormatError(ValueError):
    """Violation of the graph file grammar, tagged with a line number."""

    def __init__(self, line_no: int, category: str, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.category = category


class DisconnectedGraphError(ValueError):
    """Raised by operations that require a connected graph."""

    def __init__(self, u: str, v: str):
        super().__init__(f"graph is disconnected: no path joins {_quoted(u)} and {_quoted(v)}")
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

    ``vertices`` keeps declaration order.  Each edge has its endpoints
    ordered by declaration index, but the edge tuple itself keeps the
    order in which edges were declared.  ``_pairs`` holds the edges as
    index pairs ``(i, j)``, ``i < j``; it is what the package reads.  The
    name pairs of ``edges`` are built from it when first read, as
    adjacency is, so a command that never reads them (``dist``,
    ``quotient``, ``canon``, ``check``) does not build them.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    labels: Mapping[str, Fraction]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("graph must have at least one vertex")
        index: dict[str, int] = {}
        for v in self.vertices:
            if not isinstance(v, str):
                raise ValueError("vertex names must be strings")
            if v in index:
                raise ValueError(f"duplicate vertex id {_quoted(v)}")
            index[v] = len(index)

        labels = _checked_labels(index, self.labels)
        pairs: dict[tuple[int, int], None] = {}
        for u, v in map(_endpoints, self.edges):
            if u not in index or v not in index:
                raise ValueError(f"edge ({_quoted(u)}, {_quoted(v)}) has an undeclared endpoint")
            if u == v:
                raise ValueError(f"self-loop at {_quoted(u)}")
            i, j = index[u], index[v]
            pair = (i, j) if i < j else (j, i)
            if pair in pairs:
                raise ValueError(f"duplicate edge ({_quoted(u)}, {_quoted(v)})")
            pairs[pair] = None
        self._store(index, pairs, labels)

    @classmethod
    def _checked(
        cls, index: dict[str, int], pairs: Iterable[tuple[int, int]], labels: dict[str, Fraction]
    ) -> "LabeledGraph":
        """The graph of a declaration already checked as the constructor checks it.

        ``index`` maps each vertex to its declaration index, in that
        order; ``pairs`` are the edges as distinct index pairs
        ``(i, j)`` with ``i < j``; ``labels`` are non-negative
        Fractions, one per vertex.  :func:`parse_graph` reads documents
        into this form.
        """
        g = cls.__new__(cls)
        g._store(index, pairs, labels)
        return g

    def _store(
        self, index: dict[str, int], pairs: Iterable[tuple[int, int]], labels: dict[str, Fraction]
    ) -> None:
        object.__setattr__(self, "vertices", tuple(index))
        # The constructor's raw edges go: ``edges`` is named from ``_pairs``.
        self.__dict__.pop("edges", None)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_pairs", tuple(pairs))

    # ``edges`` is a dataclass field, so it cannot be a cached_property
    # (the descriptor would become the field's default): it is named here.
    def __getattr__(self, name: str):
        """``edges``, named from ``_pairs`` on first read and kept."""
        if name != "edges":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        names = self.vertices
        edges = tuple([(names[i], names[j]) for i, j in self._pairs])
        object.__setattr__(self, "edges", edges)
        return edges

    # -- basic accessors ------------------------------------------------

    def index_of(self, v: str) -> int:
        return self._index[v]

    def neighbors(self, v: str) -> tuple[str, ...]:
        """Neighbors of ``v`` in vertex declaration order."""
        return self._adjacency[v]

    def label(self, v: str) -> Fraction:
        return self.labels[v]

    def degree(self, v: str) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u: str, v: str) -> bool:
        i, j = self._index[u], self._index[v]
        return ((i, j) if i < j else (j, i)) in self._edge_set

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        """Each vertex -> its neighbors in declaration order; built on first use."""
        names = self.vertices
        adj: list[list[int]] = [[] for _ in names]
        for i, j in self._pairs:
            adj[i].append(j)
            adj[j].append(i)
        return {v: tuple([names[k] for k in sorted(ns)]) for v, ns in zip(names, adj)}

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._pairs)

    def edge_key(self, u: str, v: str) -> tuple[str, str]:
        """The stored orientation of an edge: endpoints by declaration index."""
        if u == v or u not in self._index or v not in self._index:
            raise ValueError(f"({_quoted(u)}, {_quoted(v)}) is not a valid vertex pair")
        return (u, v) if self._index[u] < self._index[v] else (v, u)

    def with_labels(self, labels: Mapping[str, object]) -> "LabeledGraph":
        """Same structure, new labeling: only the labels are checked; built views carry over."""
        labels = _checked_labels(self._index, dict(labels))
        g = LabeledGraph._checked(self._index, self._pairs, labels)
        views = ("edges", "_adjacency", "_edge_set")
        g.__dict__.update({k: v for k, v in self.__dict__.items() if k in views})
        return g

    def to_text(self) -> str:
        """Render in the line-based file format accepted by :func:`parse_graph`."""
        lines = [f"v {v} {self.labels[v]}" for v in self.vertices]
        lines.extend(f"e {u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _checked_labels(index: Mapping[str, int], labels) -> dict[str, Fraction]:
    """The constructor's checks of ``labels``: a non-negative rational per vertex of ``index``."""
    if not isinstance(labels, Mapping):
        raise TypeError(f"labels must be a mapping, not {type(labels).__name__}")
    checked = {v: _coerce_rational(x) for v, x in labels.items()}
    for v in index:
        if v not in checked:
            raise ValueError(f"vertex {_quoted(v)} has no label")
    for v, x in checked.items():
        if v not in index:
            raise ValueError(f"label given for undeclared vertex {_quoted(v)}")
        if x < 0:
            raise ValueError(f"vertex {_quoted(v)} has negative label {x}")
    return checked


# -- parsing -----------------------------------------------------------

# The most characters of a token or line that a refusal quotes.
_QUOTE_WIDTH = 64


def _quoted(token) -> str:
    """``repr(token)``; past ``_QUOTE_WIDTH`` characters, its head, ``…`` and its length.

    So a refusal is one short line however long the token or vertex name
    it quotes; a value that is not a string is quoted by its bounded repr.
    """
    if not isinstance(token, str):  # an API caller's endpoint
        text = repr(token)
        return text if len(text) <= _QUOTE_WIDTH and text.isprintable() else _quoted(text)
    if len(token) <= _QUOTE_WIDTH:
        return repr(token)
    return f"{token[:_QUOTE_WIDTH]!r}… ({len(token)} characters)"


def _endpoints(pair, what: str = "edge") -> tuple:
    """The two hashable ends of an API caller's edge or weight key; a string is no pair."""
    try:
        u, v = () if isinstance(pair, str) else pair
        hash((u, v))
    except (TypeError, ValueError):
        raise ValueError(f"{what} {_quoted(pair)} is not a pair of vertices") from None
    return u, v


def _number(token: str, what: str) -> Fraction:
    """A rational token of either sign: ``3/2``, ``-1.5`` or ``15e-1``.

    The int-string limit bounds the value, so that every output can print
    it: its numerator and denominator must have at most ``limit`` digits.
    An exponent beyond the limit is refused first, before ``Fraction``
    spends seconds on ``10**exp``, and one with more digits than the
    limit has is refused by its digit count, before ``int`` spends
    seconds converting it.  A refused token raises ``ValueError`` naming
    it as ``what`` and quoting it by :func:`_quoted`.
    """
    if "_" in token:  # digit separators, which Fraction takes from 3.11 on
        raise ValueError(f"malformed {what} {_quoted(token)}")
    limit = _int_digits_limit() or 4300
    mantissa, e, exponent = token.lower().partition("e")
    try:
        huge = bool(e) and _exceeds(exponent, limit)
        value = Fraction(mantissa + "e0" if huge else token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed {what} {_quoted(token)}") from None
    if huge:
        raise ValueError(f"exponent of {what} {_quoted(token)} exceeds {limit}")
    if max(abs(value.numerator), value.denominator) >= _digits_bound(limit):
        raise ValueError(f"{what} {_quoted(token)} has more than {limit} digits")
    return value


def _exceeds(exponent: str, limit: int) -> bool:
    """Whether the integer ``exponent`` is beyond ``±limit``; ``ValueError`` if malformed.

    Its digits after the sign and any leading zeros are counted first.
    An exponent with more of them than ``limit`` has is beyond it and is
    not converted; only a shorter one is.
    """
    digits = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    if len(digits.lstrip("0")) <= len(str(limit)):
        return limit < abs(int(exponent))
    if not digits.isdecimal():
        raise ValueError(f"malformed exponent {exponent!r}")
    return True


def _rational(token: str, what: str) -> Fraction:
    """A non-negative :func:`_number`: the grammar of labels and weights."""
    value = _number(token, what)
    if value < 0:
        raise ValueError(f"negative {what} {_quoted(token)}")
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
    self-loops and duplicate edges; messages quote the tokens and lines
    as written, by :func:`_quoted`.  Returns ``(index, labels, edges)``
    in declaration order: vertex -> declaration index, vertex -> label
    (a third ``v`` token), and each edge's index pair ``(i, j)``,
    ``i < j`` -> weight (a fourth ``e`` token); an absent token reads
    ``None``.

    A dense graph is mostly edge lines, so a line with head ``e`` and
    the format's edge token count is tested first.  Such a line costs
    its two index lookups and appends its pair (and its weight) to a
    list.  Duplicate edges are found in one pass after the loop, when
    the pairs become the ``edges`` dict.  A refusal still names the
    first bad line: before any refusal is raised, the pairs read so far
    are checked for a duplicate (:func:`_duplicate_refusal`), so a
    duplicate edge before a later bad line is the one reported.  A
    refusal's text is built only once the line is known to be wrong
    (:func:`_edge_refusal`, :func:`_line_refusal`).
    """
    index: dict[str, int] = {}
    labels: dict[str, Fraction | None] = {}
    pairs: list[tuple[int, int]] = []
    weights: list[Fraction] = []
    add_pair, add_weight = pairs.append, weights.append
    (width,) = shapes["e"][0]  # an edge record has one token count
    vertex_counts = shapes["v"][0]
    lines = text.splitlines()
    try:
        for line_no, raw in enumerate(lines, start=1):
            tokens = raw.split()
            if len(tokens) == width and tokens[0] == "e":
                try:
                    i, j = index[tokens[1]], index[tokens[2]]
                except KeyError:
                    raise _edge_refusal(line_no, tokens, index) from None
                if i == j:
                    raise _edge_refusal(line_no, tokens, index)
                add_pair((i, j) if i < j else (j, i))
                if width == 4:
                    add_weight(_parse_rational(tokens[3], line_no, "bad-weight", "weight"))
            elif not tokens or tokens[0][0] == "#":
                continue
            elif tokens[0] == "v" and len(tokens) in vertex_counts:
                vid = tokens[1]
                if vid in index:
                    raise GraphFormatError(
                        line_no, "duplicate-vertex", f"duplicate vertex id {_quoted(vid)}"
                    )
                index[vid] = len(index)
                labels[vid] = (
                    _parse_rational(tokens[2], line_no, "bad-label", "label")
                    if len(tokens) == 3
                    else None
                )
            else:
                raise _line_refusal(line_no, raw, tokens[0], shapes)
    except GraphFormatError as refusal:
        raise _duplicate_refusal(lines, width, pairs, index) or refusal from None
    edges = dict(zip(pairs, weights)) if width == 4 else dict.fromkeys(pairs)
    if len(edges) != len(pairs):
        raise _duplicate_refusal(lines, width, pairs, index)
    if not index:
        raise GraphFormatError(0, "empty-graph", "no vertices declared")
    return index, labels, edges


def _duplicate_refusal(
    lines: list[str], width: int, pairs: list[tuple[int, int]], index: Mapping[str, int]
) -> GraphFormatError | None:
    """The refusal of the first edge line whose pair repeats an earlier one, or ``None``.

    ``pairs`` are the pairs of the document's first well-formed edge
    lines of ``width`` tokens, in order; the lines are read again to
    find the one the repeat came from, only when there is one.
    """
    if len(set(pairs)) == len(pairs):
        return None
    seen: set[tuple[int, int]] = set()
    edge_lines = (
        (line_no, tokens)
        for line_no, tokens in enumerate(map(str.split, lines), start=1)
        if len(tokens) == width and tokens[0] == "e"
    )
    for pair, (line_no, tokens) in zip(pairs, edge_lines):
        if pair in seen:
            return _edge_refusal(line_no, tokens, index)
        seen.add(pair)


def _edge_refusal(line_no: int, tokens: list[str], index: Mapping[str, int]) -> GraphFormatError:
    """Why the well-formed edge line ``tokens`` is refused, given the vertices before it.

    An undeclared endpoint (the first one) comes before a self-loop, and
    a self-loop before a duplicate edge; the endpoints are quoted as
    written.
    """
    u, v = tokens[1], tokens[2]
    if u not in index or v not in index:
        end = u if u not in index else v
        return GraphFormatError(
            line_no, "undeclared-endpoint", f"undeclared endpoint {_quoted(end)}"
        )
    if u == v:
        return GraphFormatError(line_no, "self-loop", f"self-loop at {_quoted(u)}")
    return GraphFormatError(
        line_no, "duplicate-edge", f"duplicate edge {_quoted(u)} {_quoted(v)}"
    )


def _line_refusal(
    line_no: int, raw: str, head: str, shapes: Mapping[str, tuple[tuple[int, ...], str]]
) -> GraphFormatError:
    """The ``malformed-line`` refusal of line ``raw``: an unknown directive or a wrong count."""
    if head not in shapes:
        message = f"unknown directive {_quoted(head)} in {_quoted(raw.strip())}"
    else:
        message = f"expected '{shapes[head][1]}', got {_quoted(raw.strip())}"
    return GraphFormatError(line_no, "malformed-line", message)


def parse_graph(text: str) -> LabeledGraph:
    """Parse the labeled graph format.

    Grammar, one record per line: ``# comment``, ``v <id> <label>``,
    ``e <id> <id>``.  Blank lines are ignored.  Labels are decimals
    (``1.5``, ``15e-1``) or rationals (``3/2``).  The order of ``v`` lines
    defines the vertex order.  The weighted format shares the reader.
    """
    index, labels, edges = _read_records(text, _LABELED_RECORDS)
    return LabeledGraph._checked(index, edges, labels)


# -- predicates and traversals -----------------------------------------


def _bfs(g: LabeledGraph, start: str) -> dict[str, tuple[str | None, int]]:
    """Breadth-first search from ``start``: each reached vertex -> (parent, level).

    Neighbors are scanned in declaration order, and the dict keeps the
    order of discovery; ``start`` has parent ``None`` and level ``0``.
    """
    found: dict[str, tuple[str | None, int]] = {start: (None, 0)}
    adj, queue = g._adjacency, [start]
    for u in queue:  # grows as the walk goes
        level = found[u][1] + 1
        for w in adj[u]:
            if w not in found:
                found[w] = (u, level)
                queue.append(w)
    return found


def connectivity_witness(g: LabeledGraph) -> tuple[str, str] | None:
    """``None`` if connected, else a pair of vertices in different components."""
    reached = _bfs(g, g.vertices[0])
    return next(((g.vertices[0], v) for v in g.vertices if v not in reached), None)


def is_connected(g: LabeledGraph) -> bool:
    """Return ``True`` when every vertex is reachable from every other."""
    return connectivity_witness(g) is None


def require_connected(g: LabeledGraph) -> None:
    if (witness := connectivity_witness(g)) is not None:
        raise DisconnectedGraphError(*witness)


def is_tree(g: LabeledGraph) -> bool:
    """Return ``True`` when the (connected) graph is acyclic.

    Raises :class:`DisconnectedGraphError` on disconnected input: for a
    connected graph acyclicity is exactly ``|E| = |V| - 1``.
    """
    require_connected(g)
    return len(g._pairs) == len(g.vertices) - 1


def spanning_tree(g: LabeledGraph) -> LabeledGraph:
    """Breadth-first spanning tree from the first-declared vertex.

    Neighbors are scanned in declaration order, so the result is a
    deterministic function of the input document.  Labels carry over.
    """
    found = _bfs(g, g.vertices[0])
    if len(found) < len(g.vertices):
        require_connected(g)  # raises, with its witness
    ends = [(g._index[u], g._index[w]) for w, (u, _level) in found.items() if u is not None]
    pairs = [(i, j) if i < j else (j, i) for i, j in ends]
    return LabeledGraph._checked(g._index, pairs, dict(g.labels))


def _closing_paths(g: LabeledGraph, x: str, y: str, low: int) -> Iterator[list[str]]:
    """Each simple path from ``x`` whose last vertex is a neighbor of ``y``.

    The path never holds ``y``, and every vertex after ``x`` has a
    declaration index above ``low``.  Paths come out in lexicographic
    order of their index sequences.  The walk keeps an explicit stack of
    neighbor iterators, so a path may be as long as the graph.  Each
    yield is the live path, which changes as the walk goes on: copy it
    to keep it.
    """
    adj, index = g._adjacency, g._index
    path = [x]
    on_path = {x}
    stack = [iter(adj[x])]
    while stack:
        for w in stack[-1]:
            if w == y:
                yield path
            elif w not in on_path and index[w] > low:
                path.append(w)
                on_path.add(w)
                stack.append(iter(adj[w]))
                break
        else:
            stack.pop()
            on_path.remove(path.pop())


def enumerate_simple_paths(g: LabeledGraph, x: str, y: str) -> Iterator[tuple[str, ...]]:
    """Yield every simple path from ``x`` to ``y``.

    Paths come out in lexicographic order of their vertex-index
    sequences (declaration order), which makes downstream minima
    reproducible.  ``x`` and ``y`` must be distinct declared vertices.
    """
    for v in (x, y):
        if v not in g._index:
            raise ValueError(f"unknown vertex {_quoted(v)}")
    if x == y:
        raise ValueError("path endpoints must be distinct")
    for path in _closing_paths(g, x, y, -1):
        yield (*path, y)


def enumerate_cycles(g: LabeledGraph, cap: int = DEFAULT_CYCLE_CAP) -> Iterator[tuple[str, ...]]:
    """Yield each cycle subgraph exactly once, up to rotation and reflection.

    A cycle is reported as a vertex tuple starting at its least-index
    vertex; reflections are collapsed by requiring the second vertex to
    precede the last in declaration order.  Guarded by ``cap`` because
    the count is exponential.
    """
    _require_cap("cycle enumeration", len(g.vertices), cap)
    index = g._index
    for start in g.vertices:
        for path in _closing_paths(g, start, start, index[start]):
            if len(path) >= 3 and index[path[1]] < index[path[-1]]:
                yield tuple(path)


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
    leaves = [i for i in range(n) if degree[i] == 1]  # a heap: O(n log n)
    edges: list[tuple[int, int]] = []
    for s in seq:
        leaf = heappop(leaves)
        edges.append((leaf, s) if leaf < s else (s, leaf))
        degree[s] -= 1
        if degree[s] == 1:
            heappush(leaves, s)
    edges.append((leaves[0], leaves[1]))  # a heap of two, least first
    return tuple(edges)


def enumerate_trees(n: int, cap: int = DEFAULT_TREE_CAP) -> Iterator[LabeledGraph]:
    """Yield all ``n**(n-2)`` labeled trees on vertices ``"1"`` .. ``"n"``.

    Trees are produced by decoding Pruefer sequences in lexicographic
    order, into checked index pairs.  Every vertex gets the placeholder
    label 0, in a dict of its tree's own; callers bind real labelings
    with :meth:`LabeledGraph.with_labels`.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    _require_cap("tree enumeration", n, cap)
    index = {str(i + 1): i for i in range(n)}
    trees = (tree_from_pruefer(s, n) for s in product(range(n), repeat=n - 2)) if n > 1 else [()]
    for pairs in trees:
        yield LabeledGraph._checked(index, pairs, dict.fromkeys(index, Fraction(0)))


def root_levels(t: LabeledGraph, root: str) -> dict[str, int]:
    """Distance-from-root levels of a tree, by breadth-first traversal."""
    if root not in t._index:
        raise ValueError(f"unknown root {_quoted(root)}")
    found = _bfs(t, root)
    if len(found) < len(t.vertices) or len(t._pairs) != len(t.vertices) - 1:
        require_connected(t)  # if disconnected, is_tree's refusal and witness
        raise NotATreeError("root levels are only defined for trees")
    return {v: level for v, (_parent, level) in found.items()}
