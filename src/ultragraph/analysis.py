"""Distance-set analysis of labeled-graph ultrametrics.

For a space ``X`` with distance set ``D`` (all values, zero included),
``|D| <= |X|`` always holds; spaces attaining equality are the
Gomory-Hu (GH) spaces.  On trees, membership admits three equivalent
counting restatements, computed independently here so tests can pin the
equivalence.  There is also a constructive side: every connected graph
carries a labeling that makes it a GH space, built from a spanning tree
and a level-monotone relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Sequence

from .graphs import (
    LabeledGraph,
    NotATreeError,
    _coerce_rational,
    is_tree,
    root_levels,
    spanning_tree,
)
from .metrics import (
    ULTRAMETRIC,
    DistanceMatrix,
    InternalCheckError,
    NotUltrametricError,
    _bottleneck_rows,
    _validate_rows,
    _zero_free,
    classify_metric,
    distance_matrix,
    is_nondegenerate,
)


class DegenerateLabelingError(ValueError):
    """An edge with two zero-labeled endpoints where positivity is required."""


def distance_set(dm: DistanceMatrix) -> tuple[Fraction, ...]:
    """All distinct distance values, ascending; zero is always present."""
    values = {q for row in dm.entries for q in row}
    values.add(Fraction(0))
    return tuple(sorted(values))


_ULTRAMETRIC_ONLY = (
    "defined for ultrametric input only; collapse zero-distance "
    "classes first (zero_quotient)"
)


def _require_ultrametric(dm: DistanceMatrix) -> None:
    if classify_metric(dm) != ULTRAMETRIC:
        raise NotUltrametricError(_ULTRAMETRIC_ONLY)


def check_gomory_hu(dm: DistanceMatrix) -> bool:
    """Self-check of ``|D| <= |X|`` for an ultrametric space.

    Cannot be false for matrices built by this package; a false return
    is a bug in the caller's hands, not a property of the input.
    """
    _require_ultrametric(dm)
    return len(distance_set(dm)) <= len(dm.vertices)


def is_gh(dm: DistanceMatrix) -> bool:
    """Membership test: does the distance set exhaust ``|X|`` values?"""
    _require_ultrametric(dm)
    return len(distance_set(dm)) == len(dm.vertices)


class EdgeBound(NamedTuple):
    holds: bool
    equality: bool


def check_edge_bound(g: LabeledGraph, dm: DistanceMatrix) -> EdgeBound:
    """Self-check of ``|D| <= |E| + 1``, with the equality flag exposed.

    Equality is attainable only when ``g`` is a tree, which the test
    suite asserts across the whole corpus.
    """
    size = len(distance_set(dm))
    bound = len(g.edges) + 1
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
    if not is_nondegenerate(t):
        raise DegenerateLabelingError("every edge needs a positively labeled endpoint")
    index = t._index
    return _tree_criteria(
        t.vertices,
        [(index[u], index[v]) for u, v in t.edges],
        [t.labels[v] for v in t.vertices],
        sum(t.degree(v) for v in t.vertices),
    )


def _tree_criteria(
    vertices: Sequence[str],
    index_edges: Sequence[tuple[int, int]],
    labels: Sequence,
    degree_total: int,
) -> tuple[bool, bool, bool, bool]:
    """The criteria of :func:`tree_gh_report` for labels of any ordered type.

    ``labels[i]`` labels ``vertices[i]``; ``index_edges`` are the tree's
    edges as index pairs in declaration order.  The distance matrix is
    swept from the labels, validated and checked zero-free before its
    values are counted.  Only order and equality of labels are used, so
    any strictly increasing relabeling (such as ranks) gives the same
    verdicts.  Guards on the tree itself are the caller's job.
    """
    weighted = [(max(labels[i], labels[j]), i, j) for i, j in index_edges]
    weighted.sort(key=itemgetter(0))
    rows = _bottleneck_rows(vertices, weighted)
    _validate_rows(vertices, rows)
    if not _zero_free(rows):
        raise NotUltrametricError(_ULTRAMETRIC_ONLY)
    # the diagonal contributes the zero distance
    sizes = len({d for row in rows for d in row})
    weights = {w for w, _i, _j in weighted}
    return (
        sizes == len(vertices),
        len(weights) == len(weighted),
        sizes == len(index_edges) + 1,
        2 * sizes == 2 + degree_total,
    )


def is_gh_complete(labels: Sequence) -> bool:
    """Is the complete graph on these vertex labels a GH space?

    The verdict is computed outright (build the complete graph, take
    distances, count).  No closed-form shortcut on the label multiset is
    used: the tempting ones overcount, e.g. labels ``1, 2, 2`` give only
    two distinct distances on three vertices.
    """
    values = [_coerce_rational(x) for x in labels]
    if not values:
        raise ValueError("need at least one label")
    if len(values) >= 2 and sum(1 for x in values if x == 0) >= 2:
        raise DegenerateLabelingError(
            "a complete graph with two zero labels is degenerate"
        )
    names = tuple(str(i + 1) for i in range(len(values)))
    edges = tuple(
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
    )
    g = LabeledGraph(names, edges, dict(zip(names, values)))
    return is_gh(distance_matrix(g))


def level_labeling(t: LabeledGraph, root: str) -> dict[str, Fraction]:
    """Injective labeling of a tree increasing with distance from ``root``.

    Vertices are sorted by (level, declaration order) and labeled
    1, 2, 3, ...; the resulting space is GH and its distance reduces to
    ``max(l(x), l(y))``.
    """
    levels = root_levels(t, root)
    order = sorted(t.vertices, key=lambda v: (levels[v], t.index_of(v)))
    return {v: Fraction(i + 1) for i, v in enumerate(order)}


def gh_labeling(g: LabeledGraph) -> dict[str, Fraction]:
    """A labeling making any connected graph a GH space.

    Takes the breadth-first spanning tree from the first-declared
    vertex and applies :func:`level_labeling` there; on such labelings
    the whole graph's distances agree with the tree's.
    """
    t = spanning_tree(g)
    return level_labeling(t, g.vertices[0])


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


def gh_report(g: LabeledGraph) -> GHReport:
    """Compute the full report for a connected labeled graph.

    The two inequalities are re-checked here and treated as internal
    errors if they ever fail; same for disagreement among the four tree
    criteria.
    """
    dm = distance_matrix(g)
    classification = classify_metric(dm)
    d_set = distance_set(dm)
    bound = check_edge_bound(g, dm)
    if not bound.holds:
        raise InternalCheckError("edge bound |D| <= |E|+1 failed")

    n = len(dm.vertices)
    gomory = len(d_set) <= n
    gh = len(d_set) == n if classification == ULTRAMETRIC else None
    if not gomory:
        raise InternalCheckError("inequality |D| <= |X| failed")

    tree_eq: tuple[bool, bool, bool, bool] | None = None
    if len(g.vertices) >= 2 and is_tree(g) and is_nondegenerate(g):
        tree_eq = tree_gh_report(g)
        if len(set(tree_eq)) > 1:
            raise InternalCheckError(f"tree criteria disagree: {tree_eq}")

    return GHReport(
        vertex_count=len(g.vertices),
        edge_count=len(g.edges),
        classification=classification,
        distance_set=d_set,
        gh=gh,
        gomory_hu_holds=gomory,
        edge_bound_holds=bound.holds,
        tree_equivalences=tree_eq,
    )
