"""Distance sets, GH verdicts, tree equivalences, and labeling constructors."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    connected_graphs,
    figure_truncation,
    graph_on,
    labeled_trees,
    path_graph,
    star_graph,
    triangle,
)
from ultragraph import (
    PSEUDOULTRAMETRIC,
    ULTRAMETRIC,
    DegenerateLabelingError,
    DisconnectedGraphError,
    LabeledGraph,
    NotATreeError,
    NotUltrametricError,
    check_edge_bound,
    check_gomory_hu,
    classify_metric,
    distance_matrix,
    distance_set,
    enumerate_trees,
    gh_labeling,
    gh_report,
    is_gh,
    is_gh_complete,
    is_nondegenerate,
    is_tree,
    level_labeling,
    root_levels,
    spanning_tree,
    tree_gh_report,
)
from ultragraph import analysis, graphs, metrics
from ultragraph.cli import main


# -- distance sets and the two inequalities ---------------------------------


def test_distance_set_examples():
    assert distance_set(distance_matrix(path_graph(1, 2, 3))) == (0, 2, 3)
    assert distance_set(distance_matrix(path_graph(3, 2, 3))) == (0, 3)
    assert distance_set(distance_matrix(LabeledGraph(("a",), (), {"a": 4}))) == (0,)


def test_gomory_hu_check_on_examples():
    assert check_gomory_hu(distance_matrix(path_graph(1, 2, 3)))
    assert check_gomory_hu(distance_matrix(figure_truncation()))
    assert check_gomory_hu(distance_matrix(LabeledGraph(("a",), (), {"a": 1})))


def test_gomory_hu_check_refuses_degenerate_input():
    with pytest.raises(NotUltrametricError):
        check_gomory_hu(distance_matrix(path_graph(0, 0, 1)))


def test_gh_membership_examples():
    assert is_gh(distance_matrix(path_graph(1, 2, 3)))
    assert not is_gh(distance_matrix(path_graph(3, 2, 3)))
    assert is_gh(distance_matrix(triangle(1, 2, 3)))
    with pytest.raises(NotUltrametricError):
        is_gh(distance_matrix(path_graph(0, 0, 1)))


def test_edge_bound_examples():
    p = path_graph(1, 2, 3)
    assert check_edge_bound(p, distance_matrix(p)) == (True, True)
    t = triangle(1, 2, 3)
    assert check_edge_bound(t, distance_matrix(t)) == (True, False)
    f = figure_truncation()
    assert check_edge_bound(f, distance_matrix(f)) == (True, False)


@given(connected_graphs())
def test_edge_bound_always_holds_and_equality_needs_a_tree(g):
    dm = distance_matrix(g)
    bound = check_edge_bound(g, dm)
    assert bound.holds
    if not is_tree(g):
        assert not bound.equality


# -- tree equivalences --------------------------------------------------------


def test_tree_report_on_examples():
    assert tree_gh_report(path_graph(1, 2, 3)) == (True, True, True, True)
    assert tree_gh_report(path_graph(3, 2, 3)) == (False, False, False, False)
    assert tree_gh_report(star_graph(1, 2, 3)) == (True, True, True, True)


def test_tree_report_guards():
    with pytest.raises(NotATreeError):
        tree_gh_report(triangle(1, 2, 3))
    with pytest.raises(DegenerateLabelingError):
        tree_gh_report(path_graph(0, 0, 1))
    with pytest.raises(ValueError):
        tree_gh_report(LabeledGraph(("a",), (), {"a": 1}))


def test_tree_report_refuses_exactly_the_degenerate_labelings():
    # 1e-400 rounds to the float 0.0, yet its rank is positive.
    pool = (Fraction(0), Fraction(1, 10**400), Fraction(1))
    refused = 0
    for skeleton in enumerate_trees(4):
        for labeling in product(pool, repeat=4):
            t = skeleton.with_labels(dict(zip(skeleton.vertices, labeling)))
            if is_nondegenerate(t):
                assert len(set(tree_gh_report(t))) == 1
                continue
            refused += 1
            with pytest.raises(DegenerateLabelingError) as err:
                tree_gh_report(t)
            assert str(err.value) == "every edge needs a positively labeled endpoint"
    assert refused > 0


@given(labeled_trees(pool=tuple(Fraction(i) for i in range(1, 8))))
def test_tree_criteria_never_disagree(t):
    verdicts = tree_gh_report(t)
    assert len(set(verdicts)) == 1


# -- complete graphs ------------------------------------------------------------


def test_complete_graph_verdicts():
    assert is_gh_complete([1, 2, 3])
    assert is_gh_complete([1, 1, 2])
    assert not is_gh_complete([1, 2, 2])
    assert is_gh_complete([5])
    assert is_gh_complete([0, 1])


def test_complete_graph_guards():
    with pytest.raises(DegenerateLabelingError):
        is_gh_complete([0, 0])
    with pytest.raises(ValueError):
        is_gh_complete([])


def test_complete_graph_verdict_matches_hand_computation():
    # On a complete graph the distance of a pair is just the larger
    # label, so GH holds exactly when the labels above the minimum are
    # pairwise distinct.  Checked for every multiset from {0..4} with at
    # most one zero, sizes 1 through 5.
    values = [Fraction(i) for i in range(5)]
    for n in range(1, 6):
        for labels in combinations_with_replacement(values, n):
            if n >= 2 and sum(1 for x in labels if x == 0) >= 2:
                continue
            by_maxima = {Fraction(0)}
            for i in range(n):
                for j in range(i + 1, n):
                    by_maxima.add(max(labels[i], labels[j]))
            expected = len(by_maxima) == n
            tail = sorted(labels)[1:]
            assert expected == all(x < y for x, y in zip(tail, tail[1:]))
            assert is_gh_complete(labels) == expected


# Each refusal with its exact type and message.  A string is no sequence
# of labels.  Coercion comes first, element by element, then the empty
# list, two zeros, and negative labels, named as the graph constructor
# names vertex k of K_n.
_FLOAT = "expected a Fraction, int, or string, not {} (floats are rejected to keep values exact)"
COMPLETE_GRAPH_REFUSALS = [
    ("12", ValueError, "labels must be a sequence of labels, not a string"),
    (b"12", ValueError, "labels must be a sequence of labels, not a string"),
    ([], ValueError, "need at least one label"),
    ([1.5], TypeError, _FLOAT.format("float")),
    ([1, True], TypeError, _FLOAT.format("bool")),
    (["x"], ValueError, "malformed number 'x'"),
    ([2, "3/0"], ValueError, "malformed number '3/0'"),
    ([0, 0], DegenerateLabelingError, "a complete graph with two zero labels is degenerate"),
    ([1, -1], ValueError, "vertex '2' has negative label -1"),
    (["-1/2", 3, -2], ValueError, "vertex '1' has negative label -1/2"),
    ([0, 0, -1], DegenerateLabelingError, "a complete graph with two zero labels is degenerate"),
    ([-1, 1.5], TypeError, _FLOAT.format("float")),
    (["x", 1.5], ValueError, "malformed number 'x'"),
    (["x", 0, 0], ValueError, "malformed number 'x'"),
    ([-1, 0, 0], DegenerateLabelingError, "a complete graph with two zero labels is degenerate"),
]


@pytest.mark.parametrize("labels, error, message", COMPLETE_GRAPH_REFUSALS)
def test_complete_graph_refusals(labels, error, message):
    with pytest.raises(error) as err:
        is_gh_complete(labels)
    assert type(err.value) is error
    assert str(err.value) == message


def _complete_graph_gh(labels) -> bool:
    """The verdict of the graph route: build K_n and count its distance set."""
    names = tuple(str(k + 1) for k in range(len(labels)))
    edges = tuple((u, v) for k, u in enumerate(names) for v in names[k + 1 :])
    g = LabeledGraph(names, edges, dict(zip(names, labels)))
    return len(distance_set(distance_matrix(g))) == len(names)


@st.composite
def complete_graph_labels(draw):
    """1 to 8 rational labels with frequent ties and at most one zero."""
    positive = st.sampled_from(tuple(map(Fraction, ("1/3", "1/2", "1", "5/2", "7"))))
    labels = draw(st.lists(positive, min_size=1, max_size=8))
    if draw(st.booleans()):
        labels[draw(st.integers(0, len(labels) - 1))] = Fraction(0)
    return labels


@given(complete_graph_labels())
def test_complete_graph_verdict_matches_the_graph_route(labels):
    assert is_gh_complete(labels) == _complete_graph_gh(labels)


def test_complete_graph_verdict_needs_no_graph(monkeypatch):
    def no_graph(*_args, **_kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(analysis, "LabeledGraph", no_graph)
    monkeypatch.setattr(analysis, "_generated_distance_set", no_graph)
    assert is_gh_complete(list(range(1, 1001)))
    cases = ([1, 2, 2], [1, 1, 2], [3, 0, 1, 2], [2, 0, 1, 1])
    assert [is_gh_complete(labels) for labels in cases] == [False, True, True, False]
    with pytest.raises(ValueError, match="^vertex '2' has negative label -1$"):
        is_gh_complete([1, -1])


# -- labeling constructors --------------------------------------------------------


def test_level_labeling_examples():
    s = star_graph(1, 2, 3)
    assert level_labeling(s, "a") == {"a": 1, "b": 2, "c": 3}
    p = path_graph(9, 9, 9)
    assert level_labeling(p, "a") == {"a": 1, "b": 2, "c": 3}
    assert level_labeling(p, "b") == {"b": 1, "a": 2, "c": 3}
    single = LabeledGraph(("a",), (), {"a": 0})
    assert level_labeling(single, "a") == {"a": 1}


def test_level_labeling_rejects_non_trees():
    with pytest.raises(NotATreeError):
        level_labeling(triangle(1, 2, 3), "a")


@given(labeled_trees(), st.data())
def test_level_labeling_contract(t, data):
    root = data.draw(st.sampled_from(t.vertices))
    labels = level_labeling(t, root)
    n = len(t.vertices)
    assert sorted(labels.values()) == [Fraction(i) for i in range(1, n + 1)]
    levels = root_levels(t, root)
    for u in t.vertices:
        for v in t.vertices:
            if levels[u] < levels[v]:
                assert labels[u] < labels[v]
    relabeled = t.with_labels(labels)
    dm = distance_matrix(relabeled)
    assert is_gh(dm)
    for x, y, d in dm.pairs():
        assert d == max(labels[x], labels[y])


def test_gh_labeling_on_triangle():
    labels = gh_labeling(triangle(9, 9, 9))
    assert labels == {"a": 1, "b": 2, "c": 3}
    relabeled = triangle(9, 9, 9).with_labels(labels)
    dm = distance_matrix(relabeled)
    assert distance_set(dm) == (0, 2, 3)
    assert is_gh(dm)


def test_gh_labeling_on_four_cycle():
    ring = graph_on(4, [(0, 1), (1, 2), (2, 3), (0, 3)], (9, 9, 9, 9))
    labels = gh_labeling(ring)
    assert labels == {"a": 1, "b": 2, "d": 3, "c": 4}
    assert is_gh(distance_matrix(ring.with_labels(labels)))


@given(labeled_trees())
def test_gh_labeling_of_tree_is_level_labeling(t):
    assert gh_labeling(t) == level_labeling(t, t.vertices[0])


@given(connected_graphs())
def test_gh_labeling_agrees_with_spanning_tree(g):
    labels = gh_labeling(g)
    relabeled = g.with_labels(labels)
    dm = distance_matrix(relabeled)
    assert is_gh(dm)
    tree = spanning_tree(relabeled)
    assert distance_matrix(tree).entries == dm.entries


def test_labeling_walks_the_graph_once(monkeypatch, tmp_path):
    ring = graph_on(4, [(0, 1), (1, 2), (2, 3), (0, 3)], (9, 9, 9, 9))
    star = star_graph(1, 2, 3, 4)
    split = graph_on(4, [(0, 2), (1, 3)], (1, 2, 3, 4))
    # n - 1 edges, yet no tree: a triangle and a lone vertex.
    lone = graph_on(4, [(0, 1), (1, 2), (0, 2)], (1, 2, 3, 4))
    starts = []
    bfs = graphs._bfs

    def counted(g, start):
        starts.append(start)
        return bfs(g, start)

    def no_constructor(g):
        raise AssertionError("the public constructor re-checks a checked graph")

    monkeypatch.setattr(graphs, "_bfs", counted)
    monkeypatch.setattr(analysis, "_bfs", counted)
    monkeypatch.setattr(LabeledGraph, "__post_init__", no_constructor)
    for call, walked, expected in (
        (lambda: gh_labeling(ring), ["a"], {"a": 1, "b": 2, "d": 3, "c": 4}),
        (lambda: level_labeling(star, "b"), ["b"], {"b": 1, "a": 2, "c": 3, "d": 4}),
        (lambda: root_levels(star, "b"), ["b"], {"b": 0, "a": 1, "c": 2, "d": 2}),
        (lambda: spanning_tree(ring).edges, ["a"], (("a", "b"), ("a", "d"), ("b", "c"))),
    ):
        starts.clear()
        assert call() == expected
        assert starts == walked
    # Refusals walk again, from the first vertex, for their witness.
    for call, walked, witness in (
        (lambda: gh_labeling(split), ["a", "a"], ("a", "b")),
        (lambda: spanning_tree(split), ["a", "a"], ("a", "b")),
        (lambda: root_levels(split, "d"), ["d", "a"], ("a", "b")),
        (lambda: root_levels(lone, "b"), ["b", "a"], ("a", "d")),
    ):
        starts.clear()
        with pytest.raises(DisconnectedGraphError) as err:
            call()
        assert err.value.witnesses == witness
        assert starts == walked
    with pytest.raises(NotATreeError, match="^root levels are only defined for trees$"):
        root_levels(ring, "c")
    # The command: one walk, and the relabeled graph is built from checked parts.
    path = tmp_path / "ring.graph"
    path.write_text(ring.to_text())
    starts.clear()
    assert main(["label", str(path)]) == 0
    assert starts == ["a"]


@given(connected_graphs())
def test_gh_needs_almost_injective_positive_labels(g):
    dm = distance_matrix(g)
    labels = set(g.labels.values())
    assert set(distance_set(dm)) <= labels | {Fraction(0)}
    assume(all(d > 0 for _, _, d in dm.pairs()))
    if is_gh(dm):
        positive = {x for x in labels if x > 0}
        assert len(positive) >= len(g.vertices) - 1


# -- full report --------------------------------------------------------------


def test_report_on_gh_tree():
    report = gh_report(path_graph(1, 2, 3))
    assert report.vertex_count == 3
    assert report.edge_count == 2
    assert report.classification == ULTRAMETRIC
    assert report.distance_set == (0, 2, 3)
    assert report.gh is True
    assert report.gomory_hu_holds and report.edge_bound_holds
    assert report.tree_equivalences == (True, True, True, True)


def test_report_on_degenerate_tree():
    report = gh_report(path_graph(0, 0, 1))
    assert report.classification == PSEUDOULTRAMETRIC
    assert report.gh is None
    assert report.tree_equivalences is None
    doc = report.to_json_dict()
    assert "gh" not in doc
    assert "tree_equivalences" not in doc
    assert doc["distance_set"] == ["0", "1"]


def test_report_on_non_tree():
    report = gh_report(triangle(1, 2, 3))
    assert report.gh is True
    assert report.tree_equivalences is None
    doc = report.to_json_dict()
    assert doc["gh"] is True
    assert doc["classification"] == "ultrametric"


@given(connected_graphs())
def test_report_never_trips_its_own_checks(g):
    report = gh_report(g)
    assert report.gomory_hu_holds
    assert report.edge_bound_holds
    if report.tree_equivalences is not None:
        assert len(set(report.tree_equivalences)) == 1
    # The report's own counts agree with the public routes.
    dm = distance_matrix(g)
    assert report.distance_set == distance_set(dm)
    assert report.classification == classify_metric(dm)
    assert report.edge_bound_holds == check_edge_bound(g, dm).holds
    if report.classification == ULTRAMETRIC:
        assert report.gh == is_gh(dm)
    else:
        assert report.gh is None
    gated = len(g.vertices) >= 2 and is_tree(g) and is_nondegenerate(g)
    assert (report.tree_equivalences is not None) == gated
    if gated:
        assert report.tree_equivalences == tree_gh_report(g)


def _count_calls(monkeypatch, names):
    """Count calls of each named function, in every module that holds it."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (graphs, metrics, analysis):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


_PASSES = (
    "_ranks",
    "distance_matrix",
    "_bottleneck_rows",
    "_validate_rows",
    "distance_set",
    "connectivity_witness",
)


def test_report_builds_no_matrix(monkeypatch):
    # One rank pass feeds one edge sweep, whose leaf order gives the report:
    # no matrix, no validation, no distance set of a matrix; the sweep
    # proves the graph connected, so no BFS runs either.
    counts = _count_calls(monkeypatch, _PASSES)
    report = gh_report(path_graph(1, 2, 3))
    assert report.gh and report.tree_equivalences == (True,) * 4
    assert counts == dict(zip(_PASSES, (1, 0, 0, 0, 0, 0)))


@pytest.mark.parametrize(
    "g", [triangle(1, 2, 3), path_graph(0, 0, 1)], ids=["cycle", "degenerate"]
)
def test_report_gate_needs_no_second_pass(monkeypatch, g):
    counts = _count_calls(monkeypatch, _PASSES)
    assert gh_report(g).tree_equivalences is None
    assert counts == dict(zip(_PASSES, (1, 0, 0, 0, 0, 0)))
