"""Pseudoultrametrics generated by labeled graphs.

The distance between two vertices is the smallest, over all simple
paths joining them, of the largest vertex label along the path.  This
equals the minimax (bottleneck) path distance for the edge weights
``w({u, v}) = max(l(u), l(v))``, which is what the fast route below
computes with a sorted-edge union-find sweep.  A literal path-by-path
evaluation is kept alongside as :func:`distance_oracle`.

The sweep leaves the vertices in the leaf order of their dendrogram
(:func:`_leaf_order`), with the gap between each pair of neighbours:
``d(x, y)`` is the largest gap between ``x`` and ``y`` in that order
(single linkage, Gower and Ross 1969).  That order and its gaps are the
whole space: the distance set is ``0`` and the gaps, the space is
ultrametric exactly when no gap is ``0``, its zero classes are the runs
of zero gaps (:func:`_zero_runs`), and the dendrogram is the Cartesian
tree of the gaps.  So none of these needs a matrix, and neither does
printing one: :mod:`ultragraph.layout` prints the rows from the leaf
order in O(n) memory beyond the row being written.
:func:`distance_matrix` fills the n^2 rank rows (:func:`_bottleneck_rows`)
for API callers.  :func:`is_weight_realizable` runs its own union-find
sweep over the weight ranks, with no matrix.

Everything is exact: ``Fraction`` at the API boundary, ranks inside.
Labels, weights and distances are :class:`fractions.Fraction` values
wherever they enter or leave.  Every distance is ``0`` or one of the
labels (weights), so the sweep only needs their order: it runs on
integer ranks.  A :class:`DistanceMatrix` is those rank rows and the
table that maps ranks back to values, and its check
(:func:`_validate_rows`, which returns the leaf order of its own sweep),
the distance set, the zero quotient and the dendrogram all run on the
ints.  A matrix built from outside (its constructor, ``from_csv``,
``from_json_dict``) is ranked once, at construction; rank ``0`` is
always the value ``0``, so negative entries keep negative ranks.

Weighted graph documents go through the line reader of both formats,
:func:`ultragraph.graphs._read_records`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .graphs import (
    DisconnectedGraphError,
    LabeledGraph,
    _WEIGHTED_RECORDS,
    _coerce_rational,
    _endpoints,
    _quoted,
    _read_records,
    _require_cap,
    enumerate_simple_paths,
    require_connected,
)

ULTRAMETRIC = "ultrametric"
PSEUDOULTRAMETRIC = "pseudoultrametric-only"

DEFAULT_ORACLE_CAP = 9

_ZERO = Fraction(0)


class InternalCheckError(RuntimeError):
    """A self-check that can only fail on a construction bug fired."""


class MatrixInvariantError(InternalCheckError):
    """A distance matrix violates its own defining invariants."""


class NotUltrametricError(ValueError):
    """Operation defined only for ultrametric (zero-free off-diagonal) input."""


@dataclass(frozen=True)
class WeightedGraph:
    """Simple graph with one non-negative rational weight per edge.

    ``skeleton`` is the underlying :class:`LabeledGraph`, with
    placeholder labels.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    weights: Mapping[tuple[str, str], Fraction]

    def __post_init__(self):
        skeleton = LabeledGraph(
            tuple(self.vertices), tuple(self.edges), {v: 0 for v in self.vertices}
        )
        if not isinstance(self.weights, Mapping):
            raise TypeError(f"weights must be a mapping, not {type(self.weights).__name__}")
        weights: dict[tuple[str, str], Fraction] = {}
        for key, value in self.weights.items():
            u, v = _endpoints(key, "weight key")
            edge = skeleton.edge_key(u, v)
            if not skeleton.has_edge(u, v):
                raise ValueError(f"weight given for missing edge ({_quoted(u)}, {_quoted(v)})")
            if edge in weights:
                raise ValueError(f"two weights given for edge ({_quoted(u)}, {_quoted(v)})")
            w = _coerce_rational(value)
            if w < 0:
                raise ValueError(f"edge ({_quoted(u)}, {_quoted(v)}) has negative weight {w}")
            weights[edge] = w
        for u, v in skeleton.edges:
            if (u, v) not in weights:
                raise ValueError(f"edge ({_quoted(u)}, {_quoted(v)}) has no weight")
        self._store(skeleton, map(weights.__getitem__, skeleton.edges))

    @classmethod
    def _checked(cls, skeleton: LabeledGraph, weights: Iterable[Fraction]) -> "WeightedGraph":
        """A checked declaration: non-negative ``weights`` in ``skeleton.edges`` order."""
        wg = cls.__new__(cls)
        wg._store(skeleton, weights)
        return wg

    def _store(self, skeleton: LabeledGraph, weights: Iterable[Fraction]) -> None:
        object.__setattr__(self, "vertices", skeleton.vertices)
        object.__setattr__(self, "edges", skeleton.edges)
        object.__setattr__(self, "weights", dict(zip(skeleton.edges, weights)))
        object.__setattr__(self, "skeleton", skeleton)

    def weight(self, u: str, v: str) -> Fraction:
        return self.weights[self.skeleton.edge_key(u, v)]


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric matrix of exact pairwise distances, in vertex order.

    A matrix is its rank rows: each entry as its sign-preserving rank
    among the distinct entries (see :func:`_ranks`), with the table
    mapping ranks back to the Fraction ``entries``.  The checks, the
    distance set and the dendrogram only need the order of the entries,
    so they run on those ints.  Matrices from the sweep are built with
    their ranks; others are ranked once, at construction.
    """

    vertices: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _check_shape(self.vertices, self.entries)
        rank, ordered = _ranks([_coerce_rational(q) for row in self.entries for q in row])
        n = len(self.vertices)
        self._freeze(self.vertices, [rank[k : k + n] for k in range(0, n * n, n)], ordered)

    @classmethod
    def _from_ranks(
        cls, vertices: Sequence[str], rank_rows: Sequence[Sequence[int]], ordered: Sequence
    ) -> "DistanceMatrix":
        """The matrix with entries ``ordered[r]`` for the ranks ``r`` of ``rank_rows``.

        ``ordered`` is a rank table as :func:`_ranks` returns it.
        """
        _check_shape(vertices, rank_rows)
        dm = cls.__new__(cls)
        dm._freeze(vertices, rank_rows, ordered)
        return dm

    def _freeze(self, vertices: Sequence[str], rank_rows: Sequence, ordered: Sequence) -> None:
        value = ordered.__getitem__
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "entries", tuple(tuple(map(value, row)) for row in rank_rows))
        object.__setattr__(self, "_rows", rank_rows)
        object.__setattr__(self, "_ordered", ordered)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.vertices)})

    def get(self, x: str, y: str) -> Fraction:
        return self.entries[self._index[x]][self._index[y]]

    def pairs(self) -> Iterator[tuple[str, str, Fraction]]:
        """Yield ``(x, y, d(x, y))`` over unordered pairs, in vertex order."""
        for i, x in enumerate(self.vertices):
            row = self.entries[i]
            for j in range(i + 1, len(self.vertices)):
                yield x, self.vertices[j], row[j]

    def submatrix(self, keep: tuple[str, ...]) -> "DistanceMatrix":
        idx = [self._index[v] for v in keep]
        sub = [[self._rows[i][j] for j in idx] for i in idx]
        return DistanceMatrix._from_ranks(tuple(keep), sub, self._ordered)

    def validate(self) -> None:
        """Raise :class:`MatrixInvariantError` unless this is a pseudoultrametric.

        See :func:`_validate_rows` for the checks and their cost.
        """
        self._leaf_order()

    def _leaf_order(self) -> tuple[list[int], list[int]]:
        """:meth:`validate`, returning the leaf order and gaps of its sweep."""
        return _validate_rows(self.vertices, self._rows, self._ordered)

    # -- serialization ----------------------------------------------

    def _entry_strings(self) -> list[list[str]]:
        """``str`` of every entry, row by row; each distinct value once."""
        text = [str(q) for q in self._ordered]
        return [list(map(text.__getitem__, row)) for row in self._rows]

    def to_csv(self) -> str:
        # The str of a Fraction never needs CSV quoting.
        rows = (",".join(row) + "\n" for row in self._entry_strings())
        return _csv_line(self.vertices) + "".join(rows)

    @classmethod
    def from_csv(cls, text: str) -> "DistanceMatrix":
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
        if not rows:
            raise ValueError("empty CSV document")
        return cls(tuple(rows[0]), tuple(tuple(q for q in row) for row in rows[1:]))

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "matrix": self._entry_strings(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DistanceMatrix":
        if not isinstance(doc, dict) or not {"vertices", "matrix"} <= doc.keys():
            raise ValueError("a matrix document needs the keys 'vertices' and 'matrix'")
        vertices, rows = doc["vertices"], doc["matrix"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in (vertices, *rows)):
            raise ValueError("'vertices', 'matrix' and each of its rows must be arrays")
        # The constructor would take a float or bool for a TypeError.
        bad = [q for row in rows for q in row if type(q) not in (str, int)]
        if bad:
            raise ValueError(f"matrix entry {json.dumps(bad[0])} is not a string or an integer")
        return cls(tuple(vertices), tuple(map(tuple, rows)))


_json_scalar = json.JSONEncoder().encode


def _csv_line(cells: Iterable[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _check_shape(vertices: Sequence[str], rows: Sequence[Sequence]) -> None:
    n = len(vertices)
    if not all(isinstance(v, str) for v in vertices):
        raise ValueError("vertex names must be strings")
    if len(set(vertices)) != n or n == 0:
        raise ValueError("vertex names must be unique and non-empty")
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"entries must form a {n}x{n} matrix")


def _validate_rows(
    vertices: Sequence[str], m: Sequence[Sequence[int]], ordered: Sequence
) -> tuple[list[int], list[int]]:
    """Raise :class:`MatrixInvariantError` unless ``m`` is a pseudoultrametric.

    ``m`` holds sign-preserving integer ranks (zero is rank ``0``) and
    ``ordered[r]`` is the value of rank ``r``; values appear only in
    messages, and ``vertices`` only name the offending entries.  Checks
    zero diagonal, symmetry and non-negativity, then the strong triangle
    inequality ``d(x,y) <= max(d(x,z), d(z,y))`` through a Kruskal sweep
    over the matrix's own entries: the inequality holds for all triples
    exactly when every pair first joined at height ``w`` has entry
    ``w``.  The pairs ``i < j`` are bucketed by their int ranks, ties
    in row-major order.  Returns the sweep's leaf order and gaps,
    as :func:`_leaf_order` returns them for a graph.
    """
    n = len(vertices)
    buckets: list[list[tuple[int, int]]] = [[] for _ in ordered]
    for i, row in enumerate(m):
        if row[i] != 0:
            raise MatrixInvariantError(f"nonzero diagonal at {_quoted(vertices[i])}")
        for j in range(i + 1, n):
            w = row[j]
            if w != m[j][i]:
                raise MatrixInvariantError(
                    f"asymmetry at ({_quoted(vertices[i])}, {_quoted(vertices[j])})"
                )
            if w < 0:
                raise MatrixInvariantError(
                    f"negative distance at ({_quoted(vertices[i])}, {_quoted(vertices[j])})"
                )
            buckets[w].append((i, j))
    after = [0] * n
    order = [0]
    for w, a, b in _sweep(n, enumerate(buckets)):
        for x in a:
            row = m[x]
            for y in b:
                if row[y] != w:
                    p, q = vertices[min(x, y)], vertices[max(x, y)]
                    raise MatrixInvariantError(
                        f"strong triangle inequality fails: d({_quoted(p)}, {_quoted(q)}) = "
                        f"{ordered[row[y]]}, but a path joins them with every step "
                        f"at most {ordered[w]}"
                    )
        after[a[-1]] = w
        order = a
    return order, list(map(after.__getitem__, order[:-1]))


# -- weighted-format parsing --------------------------------------------



def parse_weighted_graph(text: str) -> WeightedGraph:
    """Parse the weighted variant of the graph format.

    Vertex lines are ``v <id>`` (a trailing label is checked and
    ignored, so labeled documents can be reused); edge lines are
    ``e <id> <id> <weight>``.  Everything else, errors included, is as
    in :func:`ultragraph.graphs.parse_graph`, whose line reader this shares.
    """
    index, _labels, weights = _read_records(text, _WEIGHTED_RECORDS)
    skeleton = LabeledGraph._checked(index, weights, dict.fromkeys(index, _ZERO))
    return WeightedGraph._checked(skeleton, weights.values())


# -- the two distance routes --------------------------------------------


def edge_weights(g: LabeledGraph) -> WeightedGraph:
    """Push vertex labels onto edges: ``w({u, v}) = max(l(u), l(v))``.

    Minimax path distances for these weights coincide with the labeled
    distance, which is what lets the sweep below replace path
    enumeration.  ``g`` is checked already and maxima of its labels are
    non-negative, so nothing is checked again.
    """
    labels = g.labels
    skeleton = LabeledGraph._checked(g._index, g._pairs, dict.fromkeys(g.vertices, _ZERO))
    return WeightedGraph._checked(skeleton, [max(labels[u], labels[v]) for u, v in g.edges])


def _sweep(n: int, groups: Iterable[tuple]) -> Iterator[tuple]:
    """Kruskal-style union-find sweep over points ``0 .. n-1``.

    ``groups`` yields ``(w, pairs)``, ``w`` ascending, with the index
    pairs ``(i, j)`` of weight ``w`` in tie order.  Each time two
    clusters first meet, yield ``(w, a, b)`` with their member lists,
    then absorb ``b`` into ``a``; ``a[0]`` is the surviving root.  Every
    pair across ``a`` and ``b`` has minimax distance exactly ``w``.

    The roots of ``i`` and ``j`` are compared before their member lists
    are read: most edges of a dense graph join nothing.
    """
    root = list(range(n))
    members = [[i] for i in range(n)]
    for w, pairs in groups:
        for i, j in pairs:
            ri, rj = root[i], root[j]
            if ri == rj:
                continue
            a, b = members[ri], members[rj]
            if len(a) < len(b):
                a, b = b, a
            yield w, a, b
            for x in b:
                root[x] = a[0]
            a.extend(b)


def _rank_buckets(size: int, ranks: Iterable[int], items: Iterable) -> list[list]:
    """``items`` bucketed by their ``ranks`` in ``range(size)``, ties in input order.

    One pass sorts by rank stably; ``enumerate`` of the buckets is the
    groups :func:`_sweep` takes.  The rank map is strictly increasing
    and every distance is a weight or ``0``, so a sweep over the ranks
    joins the same clusters at the same heights as one over the values.
    """
    buckets: list[list] = [[] for _ in range(size)]
    for r, item in zip(ranks, items):
        buckets[r].append(item)
    return buckets


def _ranks(values: Sequence[Fraction]) -> tuple[list[int], list[Fraction]]:
    """Rank every value among the distinct values and ``0``.

    Returns ``(rank, ordered)`` with ``ordered[rank[k]] == values[k]``.
    Ranks are strictly increasing in the value, equal values share a
    rank, and rank ``0`` is the value ``0``, which is also the sweep's
    diagonal; so a rank has the sign of its value.  ``ordered`` holds
    ``0`` and the positive values ascending, then the negative values
    ascending, which Python's negative indices reach: the value of rank
    ``-1`` is the largest negative value.

    No Fraction is hashed, and none compared unless two round to the
    same float.  A Fraction is in lowest terms, so equal values have
    equal pairs ``(numerator, denominator)``: values are told apart by
    those int pairs.  The distinct values are sorted by ``n / d``, which
    is ``float(q)``, correctly rounded and so monotone: ``float(p) <
    float(q)`` implies ``p < q``.  Values with equal floats (``1`` and
    ``1 + 10**-17``, or ``0`` and ``±10**-400``) fall through to the
    next item of the sort key, the Fraction itself, and are compared
    exactly.  A value beyond the float range raises ``OverflowError``,
    and that call sorts by the Fractions alone.
    """
    pairs = [q.as_integer_ratio() for q in values]
    value_of = dict(zip(pairs, values))
    value_of.setdefault((0, 1), _ZERO)
    try:
        keyed = [(n / d, q, (n, d)) for (n, d), q in value_of.items()]
    except OverflowError:
        keyed = [(q, q, pair) for pair, q in value_of.items()]
    keyed.sort()
    order = [pair for _, _, pair in keyed]
    zero = order.index((0, 1))
    rank_of = dict(zip(order, range(-zero, len(order) - zero)))
    ordered = [q for _, q, _ in keyed]
    return list(map(rank_of.__getitem__, pairs)), ordered[zero:] + ordered[:zero]


def _bottleneck_rows(vertices: Sequence[str], groups: Iterable[tuple]) -> list[list]:
    """Minimax distances via :func:`_sweep` over the weighted edges, as rows.

    ``groups`` yields ``(w, pairs)`` as :func:`_sweep` takes them: the
    edges' index pairs grouped by ascending weight, ties in declaration
    order.  Weights may be of any totally ordered type; the diagonal is
    ``0``.  Row ``0`` fills exactly when the graph is connected; its
    first gap is the :func:`connectivity_witness` pair.
    Its n^2 slots are for the callers that want every entry:
    :func:`distance_matrix`, :func:`rho_w` and
    :func:`ultragraph.analysis._tree_criteria`.  The commands print from
    :func:`_leaf_order` instead.  Rows read off the printer's chains
    are 1.5-2x slower at n <= 48, where these callers are, and the tests
    use this route as the printer's independent reference.
    """
    n = len(vertices)
    dist: list[list] = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0

    for w, a, b in _sweep(n, groups):
        for x in a:
            row = dist[x]
            for y in b:
                row[y] = w
                dist[y][x] = w

    if None in dist[0]:
        raise DisconnectedGraphError(vertices[0], vertices[dist[0].index(None)])
    return dist


def _label_edges(g: LabeledGraph) -> tuple[Iterator[tuple], list[Fraction]]:
    """The edges weighted ``max(l(u), l(v))`` as :func:`_sweep` groups of
    the graph's own ``_pairs`` tuples, with the rank table."""
    rank, ordered = _ranks([g.labels[v] for v in g.vertices])
    buckets: list[list[tuple[int, int]]] = [[] for _ in ordered]
    for pair in g._pairs:
        i, j = pair
        # The larger rank by a conditional: a call to max per edge costs more.
        buckets[rank[i] if rank[i] > rank[j] else rank[j]].append(pair)
    return enumerate(buckets), ordered


def _leaf_order(g: LabeledGraph) -> tuple[list[int], list[int], list[Fraction]]:
    """A connected graph's vertices in the leaf order of its dendrogram, the
    gaps between neighbours in that order, and the rank table.

    ``order`` lists vertex indices.  ``gaps[p]`` is the rank of the
    distance between ``order[p]`` and ``order[p + 1]``, and the distance
    between the vertices at positions ``p < q`` is ``max(gaps[p:q])``:
    :func:`_sweep` keeps every cluster's members in one contiguous run,
    and each merge puts the runs side by side, with the merge's height
    between them and no larger gap inside either.  A connected graph
    takes exactly ``n - 1`` merges; fewer mean a disconnected graph,
    reported with the witness of :func:`ultragraph.graphs.require_connected`.
    """
    n = len(g.vertices)
    groups, ordered = _label_edges(g)
    order, gaps, merges = _merge_order(n, groups)
    if merges != n - 1:
        require_connected(g)
        raise InternalCheckError(f"sweep made {merges} merges on {n} connected vertices")
    return order, gaps, ordered


def _merge_order(n: int, groups: Iterable[tuple]) -> tuple[list[int], list[int], int]:
    """The leaf order and gaps of :func:`_sweep` over its ``(w, pairs)``
    ``groups``, and its number of merges.

    The order and gaps are those of :func:`_leaf_order`, and cover every
    point only when the merges number ``n - 1``; the caller checks that.
    Each merge puts the larger cluster's run first and its own gap after
    that run, so the gaps ascend strictly exactly when every merge adds
    one point at a height of its own: :mod:`ultragraph.explore` checks
    that each GH tree space is a caterpillar this way, with no dendrogram.
    """
    after = [0] * n
    order, merges = [0], 0
    for w, a, b in _sweep(n, groups):
        after[a[-1]] = w
        order = a
        merges += 1
    return order, list(map(after.__getitem__, order[:-1])), merges


def _zero_runs(
    order: Sequence[int], gaps: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """Collapse the zero classes of a leaf order: its maximal runs of rank-0 gaps.

    Each run is kept as its least index.  Returns the kept indices
    ascending, their leaf order as positions in that list, and the gaps
    between them, which are the order's nonzero gaps.
    """
    kept, between = [order[0]], []
    for v, w in zip(order[1:], gaps):
        if w:
            kept.append(v)
            between.append(w)
        elif v < kept[-1]:
            kept[-1] = v
    keep = sorted(kept)
    at = dict(zip(keep, range(len(keep))))
    return keep, list(map(at.__getitem__, kept)), between


def distance_matrix(g: LabeledGraph) -> DistanceMatrix:
    """All pairwise labeled distances of a connected graph, exactly."""
    groups, ordered = _label_edges(g)
    return DistanceMatrix._from_ranks(g.vertices, _bottleneck_rows(g.vertices, groups), ordered)


def rho_w(wg: WeightedGraph) -> DistanceMatrix:
    """Minimax path distances for explicit edge weights."""
    rank, ordered = _ranks([wg.weights[e] for e in wg.edges])
    buckets = _rank_buckets(len(ordered), rank, wg.skeleton._pairs)
    rows = _bottleneck_rows(wg.vertices, enumerate(buckets))
    return DistanceMatrix._from_ranks(wg.vertices, rows, ordered)


def distance_oracle(
    g: LabeledGraph, x: str, y: str, cap: int = DEFAULT_ORACLE_CAP
) -> Fraction:
    """Literal evaluation: minimum over simple paths of the largest label.

    Exponential in the worst case, hence the vertex cap; exists as the
    slow, obviously-correct route that the sweep is tested against.
    """
    _require_cap("oracle evaluation", len(g.vertices), cap)
    labels = g.labels
    best: Fraction | None = None
    for path in enumerate_simple_paths(g, x, y):
        peak = max(labels[v] for v in path)
        if best is None or peak < best:
            best = peak
    if best is None:
        raise DisconnectedGraphError(x, y)
    return best


def oracle_matrix(g: LabeledGraph, cap: int = DEFAULT_ORACLE_CAP) -> DistanceMatrix:
    """Full matrix via :func:`distance_oracle`; small graphs only."""
    n = len(g.vertices)
    rows = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = distance_oracle(g, g.vertices[i], g.vertices[j], cap=cap)
            rows[i][j] = rows[j][i] = d
    return DistanceMatrix(g.vertices, tuple(tuple(row) for row in rows))


# -- pointwise facts and classification ----------------------------------


def is_nondegenerate(g: LabeledGraph) -> bool:
    """True when every edge has at least one endpoint with a positive label."""
    labels = g.labels
    return all(labels[u] > 0 or labels[v] > 0 for u, v in g.edges)


def classify_metric(dm: DistanceMatrix) -> str:
    """``"ultrametric"`` when all off-diagonal distances are positive.

    Validates the matrix first; an invariant violation means the matrix
    was not produced by this package's constructors and is reported as
    an internal error rather than a verdict.
    """
    return PSEUDOULTRAMETRIC if 0 in dm._leaf_order()[1] else ULTRAMETRIC


def zero_quotient(dm: DistanceMatrix) -> tuple[tuple[str, ...], DistanceMatrix]:
    """Collapse distance-zero classes to their first-declared member.

    Returns the representatives (in declaration order) and the matrix
    restricted to them.  The strong triangle inequality makes distance
    zero an equivalence, so the restriction is well defined and keeps
    the set of distance values unchanged.  The classes are the runs of
    zero gaps in the leaf order of the validation sweep
    (:func:`_zero_runs`), as for the ``quotient`` command.
    """
    keep, _order, _gaps = _zero_runs(*dm._leaf_order())
    reps = tuple(map(dm.vertices.__getitem__, keep))
    return reps, dm.submatrix(reps)


class RealizabilityResult(NamedTuple):
    realizable: bool
    witness: tuple[str, str] | None
    rho: Fraction | None


def is_weight_realizable(wg: WeightedGraph) -> RealizabilityResult:
    """Is every edge's weight its own minimax distance?

    Equivalently, every cycle attains its maximum weight at least twice.
    Weights ``max(l(u), l(v))`` from labels always pass, but this is not
    label-realizability: no labeling induces the path ``a-b-c-d``
    weighted ``1, 3, 1``, which passes.  The first edge (in declaration
    order) whose minimax distance is below its weight is the witness.

    An edge's minimax distance is below its weight exactly when edges
    lighter than it already join its ends (the cycle property of minimum
    spanning trees).  So one union-find sweep over the weight ranks
    tests every edge of a rank before it joins any of them, in O(n + |E|)
    memory; a second sweep finds the rank at which the witness's ends
    first meet.  Disconnected graphs are reported as by :func:`rho_w`.
    """
    rank, ordered = _ranks([wg.weights[e] for e in wg.edges])
    pairs = wg.skeleton._pairs
    buckets = _rank_buckets(len(ordered), rank, range(len(pairs)))
    parent = list(range(len(wg.vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    witness, parts = len(pairs), len(parent)
    for bucket in buckets:
        for k in bucket:
            if k < witness and find(pairs[k][0]) == find(pairs[k][1]):
                witness = k
        for k in bucket:
            a, b = find(pairs[k][0]), find(pairs[k][1])
            if a != b:
                parent[b] = a
                parts -= 1
    if parts > 1:
        require_connected(wg.skeleton)
        raise InternalCheckError(f"sweep left {parts} parts of a connected graph")
    if witness == len(pairs):
        return RealizabilityResult(True, None, None)
    parent = list(range(len(parent)))
    i, j = pairs[witness]
    u, v = wg.edges[witness]
    for r, bucket in enumerate(buckets):
        for k in bucket:
            parent[find(pairs[k][0])] = find(pairs[k][1])
        if find(i) == find(j):
            return RealizabilityResult(False, (u, v), ordered[r])
    raise InternalCheckError(f"the ends of edge ({_quoted(u)}, {_quoted(v)}) never met")
