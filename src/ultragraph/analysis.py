"""Distance-set analysis of labeled-graph ultrametrics.

For a space ``X`` with distance set ``D`` (all values, zero included),
``|D| <= |X|`` always holds; spaces attaining equality are the
Gomory-Hu (GH) spaces.  On trees, membership admits three equivalent
counting restatements.  :func:`gh_report` reads all four criteria off
the size of the distance set it takes from the gaps of the graph's
leaf order, with no matrix: on a positively labeled tree each one says
``|D| = |V|``.  Tests pin this against :func:`tree_gh_report`, which
counts each criterion on a swept and validated matrix of its own.
Constructively, every connected graph carries a GH labeling, built from
a spanning tree and a level-monotone relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Sequence

from .graphs import (
    LabeledGraph,
    NotATreeError,
    _bfs,
    _coerce_rational,
    is_tree,
    require_connected,
    root_levels,
)
from .metrics import (
    PSEUDOULTRAMETRIC,
    ULTRAMETRIC,
    DistanceMatrix,
    InternalCheckError,
    NotUltrametricError,
    _bottleneck_rows,
    _leaf_order,
    _rank_buckets,
    _ranks,
    _validate_rows,
    classify_metric,
)


class DegenerateLabelingError(ValueError):
    """An edge with two zero-labeled endpoints where positivity is required."""


def distance_set(dm: DistanceMatrix) -> tuple[Fraction, ...]:
    """All distinct distance values, ascending; zero is always present.

    Counted on the matrix's rank rows: the ranks present, with rank ``0``
    for zero, map back to their values in ascending order.
    """
    present = set(chain.from_iterable(dm._rows))
    present.add(0)
    return tuple(dm._ordered[r] for r in sorted(present))


_ULTRAMETRIC_ONLY = (
    "defined for ultrametric input only; collapse zero-distance "
    "classes first (zero_quotient)"
)


def _distance_count(dm: DistanceMatrix) -> int:
    """``|D|`` of an ultrametric space; a pseudoultrametric is refused."""
    if classify_metric(dm) != ULTRAMETRIC:
        raise NotUltrametricError(_ULTRAMETRIC_ONLY)
    return len(distance_set(dm))


def check_gomory_hu(dm: DistanceMatrix) -> bool:
    """Self-check of ``|D| <= |X|`` for an ultrametric space.

    Cannot be false for matrices built by this package; a false return
    is a bug in the caller's hands, not a property of the input.
    """
    return _distance_count(dm) <= len(dm.vertices)


def is_gh(dm: DistanceMatrix) -> bool:
    """Membership test: does the distance set exhaust ``|X|`` values?"""
    return _distance_count(dm) == len(dm.vertices)


class EdgeBound(NamedTuple):
    holds: bool
    equality: bool


def check_edge_bound(g: LabeledGraph, dm: DistanceMatrix) -> EdgeBound:
    """Self-check of ``|D| <= |E| + 1``, with the equality flag exposed.

    Equality is attainable only when ``g`` is a tree, which the test
    suite asserts across the whole corpus.
    """
    size = len(distance_set(dm))
    bound = len(g._pairs) + 1
    return EdgeBound(size <= bound, size == bound)


def tree_gh_report(t: LabeledGraph) -> tuple[bool, bool, bool, bool]:
    """Four independently computed GH criteria for a labeled tree.

    In order: (i) the distance set has ``|V|`` values, (ii) edge weights
    ``max(l(u), l(v))`` are pairwise distinct, (iii) the distance set
    has ``|E| + 1`` values, (iv) twice its size equals ``2`` plus the
    degree total.  For a non-degenerately labeled tree on at least two
    vertices these agree; the report deliberately does not force them.
    """
    if not is_tree(t):
        raise NotATreeError("tree_gh_report needs a tree")
    if len(t.vertices) < 2:
        raise ValueError("tree_gh_report needs at least two vertices")
    ranks, ordered = _ranks([t.labels[v] for v in t.vertices])
    if not all(ranks[i] or ranks[j] for i, j in t._pairs):  # rank 0 is the label 0
        raise DegenerateLabelingError("every edge needs a positively labeled endpoint")
    return _tree_criteria(
        t.vertices,
        t._pairs,
        ranks,
        sum(t.degree(v) for v in t.vertices),
        ordered,
    )


def _tree_criteria(
    vertices: Sequence[str],
    index_edges: Sequence[tuple[int, int]],
    ranks: Sequence[int],
    degree_total: int,
    ordered: Sequence,
) -> tuple[bool, bool, bool, bool]:
    """The criteria of :func:`tree_gh_report` on integer label ranks.

    ``ranks[i]`` ranks the label of ``vertices[i]``, ``ordered[r]`` is
    the label of rank ``r`` and rank ``0`` is the value ``0`` (see
    :func:`ultragraph.metrics._ranks`); ``index_edges`` are the tree's
    edges as index pairs in declaration order.  The distance matrix is
    swept from the ranks, validated and the gaps of its leaf order
    checked for a zero before its values are counted.  Only order and
    equality of labels are used, so the verdicts are those of the labels
    themselves.  Guards on the tree itself are the caller's job.
    """
    maxima = [max(ranks[i], ranks[j]) for i, j in index_edges]
    rows = _bottleneck_rows(vertices, enumerate(_rank_buckets(len(ordered), maxima, index_edges)))
    _order, gaps = _validate_rows(vertices, rows, ordered)
    if 0 in gaps:
        raise NotUltrametricError(_ULTRAMETRIC_ONLY)
    # the diagonal contributes the zero distance
    sizes = len(set(chain.from_iterable(rows)))
    n, m = len(vertices), len(maxima)
    return (
        sizes == n,
        len(set(maxima)) == m,
        sizes == m + 1,
        2 * sizes == 2 + degree_total,
    )


def is_gh_complete(labels: Sequence) -> bool:
    """Is the complete graph on these vertex labels a GH space?

    Decided on the labels, with no graph.  The edge ``{x, y}`` is a path
    and every path from ``x`` to ``y`` passes both, so ``d(x, y) =
    max(l(x), l(y))``; with the labels sorted, ``D = {0, l_2, ..., l_n}``.
    With at most one zero, ``l_2, ..., l_n`` are positive, so ``|D| = n``
    exactly when they are pairwise distinct: ``1, 1, 2`` is GH, ``1, 2, 2``
    is not.  Refusals are the graph constructor's, vertex ``k`` named ``'k'``.
    """
    if isinstance(labels, (str, bytes)):
        raise ValueError("labels must be a sequence of labels, not a string")
    values = [_coerce_rational(x) for x in labels]
    if not values:
        raise ValueError("need at least one label")
    if values.count(0) >= 2:
        raise DegenerateLabelingError(
            "a complete graph with two zero labels is degenerate"
        )
    for k, x in enumerate(values, start=1):
        if x < 0:
            raise ValueError(f"vertex {str(k)!r} has negative label {x}")
    above_least = sorted(values)[1:]
    return len(set(above_least)) == len(above_least)


def level_labeling(t: LabeledGraph, root: str) -> dict[str, Fraction]:
    """Injective labeling of a tree increasing with distance from ``root``.

    Vertices are sorted by (level, declaration order) and labeled
    1, 2, 3, ...; the resulting space is GH and its distance reduces to
    ``max(l(x), l(y))``.
    """
    return _by_level(t.vertices, root_levels(t, root))


def _by_level(vertices: Sequence[str], levels: dict[str, int]) -> dict[str, Fraction]:
    """Labels ``1, 2, 3, ...`` in order of level, ties in the order of ``vertices``."""
    order = sorted(vertices, key=levels.__getitem__)  # stable: ties keep declaration order
    return {v: Fraction(i + 1) for i, v in enumerate(order)}


def gh_labeling(g: LabeledGraph) -> dict[str, Fraction]:
    """A labeling making any connected graph a GH space.

    The :func:`level_labeling` of the breadth-first spanning tree from
    the first-declared vertex; on such labelings the whole graph's
    distances agree with the tree's.  The levels are read off one
    breadth-first walk of ``g``, which keeps every vertex at its level
    in that tree; a graph it does not span is refused by
    :func:`~ultragraph.graphs.require_connected`.
    """
    found = _bfs(g, g.vertices[0])
    if len(found) < len(g.vertices):
        require_connected(g)  # raises, with its witness
    return _by_level(g.vertices, {v: level for v, (_parent, level) in found.items()})


@dataclass(frozen=True)
class GHReport:
    """Everything the ``check`` command reports about one graph."""

    vertex_count: int
    edge_count: int
    classification: str
    distance_set: tuple[Fraction, ...]
    gh: bool | None
    gomory_hu_holds: bool
    edge_bound_holds: bool
    tree_equivalences: tuple[bool, bool, bool, bool] | None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "classification": self.classification,
            "distance_set": [str(q) for q in self.distance_set],
        }
        if self.gh is not None:
            doc["gh"] = self.gh
        doc["gomory_hu_holds"] = self.gomory_hu_holds
        doc["edge_bound_holds"] = self.edge_bound_holds
        if self.tree_equivalences is not None:
            doc["tree_equivalences"] = list(self.tree_equivalences)
        return doc


def _generated_distance_set(g: LabeledGraph) -> tuple[tuple[Fraction, ...], bool]:
    """The distance set of the space ``g`` generates, and whether it is ultrametric.

    Read off the gaps of the graph's leaf order, with no matrix: the
    distances are ``0`` and the gaps, and the space is ultrametric
    exactly when no gap is ``0``.
    """
    _order, gaps, ordered = _leaf_order(g)
    return tuple(ordered[r] for r in sorted({0, *gaps})), 0 not in gaps


def gh_report(g: LabeledGraph) -> GHReport:
    """Compute the full report for a connected labeled graph.

    Off the leaf order of one edge sweep: the size of the distance set
    decides both inequalities, the GH verdict and all four tree
    criteria.  A failing self-check is an internal error.
    """
    d_set, ultrametric = _generated_distance_set(g)
    size, n, m = len(d_set), len(g.vertices), len(g._pairs)
    if size > m + 1:
        raise InternalCheckError(f"edge bound |D| <= |E|+1 failed: |D| = {size}, |E| = {m}")
    if size > n:
        raise InternalCheckError(f"inequality |D| <= |X| failed: |D| = {size}, |X| = {n}")

    tree_eq = None
    # The sweep proved g connected, so it is a tree exactly when |E| = |V| - 1;
    # the first edge swept always merges, so no zero gap means no edge
    # joins two zero labels.  On such a tree every edge merges at its own
    # maximum, so |D| = 1 + (distinct edge maxima); with the degree total
    # 2|E| = 2n - 2, each of the four criteria says |D| = n.
    if n >= 2 and m == n - 1 and ultrametric:
        tree_eq = (size == n,) * 4

    return GHReport(
        vertex_count=n,
        edge_count=m,
        classification=ULTRAMETRIC if ultrametric else PSEUDOULTRAMETRIC,
        distance_set=d_set,
        gh=size == n if ultrametric else None,
        gomory_hu_holds=True,
        edge_bound_holds=True,
        tree_equivalences=tree_eq,
    )
