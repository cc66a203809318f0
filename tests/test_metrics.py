"""Distance computation, classification, quotients, and realizability."""

import json
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import adjacent_distance
from conftest import (
    LABEL_POOL,
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
    CapExceededError,
    DisconnectedGraphError,
    DistanceMatrix,
    GraphFormatError,
    InternalCheckError,
    LabeledGraph,
    MatrixInvariantError,
    NotUltrametricError,
    WeightedGraph,
    canonical_form,
    classify_metric,
    dendrogram,
    distance_matrix,
    distance_oracle,
    distance_set,
    edge_weights,
    enumerate_simple_paths,
    gh_report,
    graph_dendrogram,
    is_nondegenerate,
    is_weight_realizable,
    oracle_matrix,
    parse_weighted_graph,
    rho_w,
    zero_quotient,
)
from ultragraph import metrics


def _weighted_triangle(wab, wbc, wca) -> WeightedGraph:
    return WeightedGraph(
        ("a", "b", "c"),
        (("a", "b"), ("b", "c"), ("c", "a")),
        {("a", "b"): wab, ("b", "c"): wbc, ("c", "a"): wca},
    )


# -- edge weights ----------------------------------------------------------


def test_edge_weights_take_endpoint_maxima():
    wg = edge_weights(path_graph(1, 2, 3))
    assert wg.weight("a", "b") == 2
    assert wg.weight("b", "c") == 3


def test_edge_weights_zero_edge():
    wg = edge_weights(graph_on(2, [(0, 1)], (0, 0)))
    assert wg.weight("a", "b") == 0


def test_edge_weights_triangle():
    wg = edge_weights(triangle(1, 2, 3))
    assert wg.weight("a", "b") == 2
    assert wg.weight("b", "c") == 3
    assert wg.weight("c", "a") == 3


# -- distance matrices -------------------------------------------------------


def test_distances_on_short_path():
    dm = distance_matrix(path_graph(1, 2, 3))
    assert dm.entries == (
        (Fraction(0), Fraction(2), Fraction(3)),
        (Fraction(2), Fraction(0), Fraction(3)),
        (Fraction(3), Fraction(3), Fraction(0)),
    )


def test_distances_on_double_hub_graph():
    dm = distance_matrix(figure_truncation())
    assert dm.get("x", "y") == Fraction(1, 2)
    assert dm.get("x", "z2") == Fraction(1, 2)
    assert dm.get("y", "z2") == Fraction(1, 2)
    assert dm.get("x", "z1") == 1
    assert dm.get("y", "z1") == 1
    assert dm.get("z1", "z2") == 1


def test_zero_labeled_edge_gives_zero_distance():
    dm = distance_matrix(graph_on(2, [(0, 1)], (0, 0)))
    assert dm.get("a", "b") == 0
    assert classify_metric(dm) == PSEUDOULTRAMETRIC


def test_single_vertex_matrix():
    dm = distance_matrix(LabeledGraph(("a",), (), {"a": 7}))
    assert dm.entries == ((Fraction(0),),)
    assert classify_metric(dm) == ULTRAMETRIC


def test_disconnected_input_names_witnesses():
    g = LabeledGraph(("a", "b", "c"), (("a", "b"),), {"a": 1, "b": 1, "c": 1})
    with pytest.raises(DisconnectedGraphError) as err:
        distance_matrix(g)
    assert err.value.witnesses == ("a", "c")


@pytest.mark.parametrize(
    "edges, witnesses", [([(0, 1)], ("a", "c")), ([(1, 2)], ("a", "b")), ([], ("a", "b"))]
)
def test_merge_route_names_the_matrix_witnesses(edges, witnesses):
    g = graph_on(4, edges, (1, 2, 3, 4))
    for route in (distance_matrix, gh_report, graph_dendrogram):
        with pytest.raises(DisconnectedGraphError) as err:
            route(g)
        assert err.value.witnesses == witnesses


def test_merge_route_counts_its_merges(monkeypatch):
    real = metrics._sweep
    monkeypatch.setattr(metrics, "_sweep", lambda n, pairs: islice(real(n, pairs), n - 2))
    with pytest.raises(InternalCheckError, match="^sweep made 1 merges on 3 connected"):
        gh_report(path_graph(1, 2, 3))


# -- the slow route ---------------------------------------------------------


def test_oracle_on_triangle_prefers_direct_edge():
    assert distance_oracle(triangle(1, 2, 3), "a", "b") == 2


def test_oracle_on_star_goes_through_center():
    assert distance_oracle(star_graph(1, 2, 3), "b", "c") == 3


def test_oracle_rejects_equal_endpoints_and_big_graphs():
    with pytest.raises(ValueError):
        distance_oracle(path_graph(1, 2), "a", "a")
    wide = path_graph(*range(1, 11))
    with pytest.raises(CapExceededError):
        distance_oracle(wide, "a", "b")
    assert distance_oracle(wide, "a", "b", cap=10) == 2


@given(labeled_trees())
def test_tree_distance_is_path_maximum(t):
    labels = t.labels
    for i, x in enumerate(t.vertices):
        for y in t.vertices[i + 1 :]:
            (path,) = enumerate_simple_paths(t, x, y)
            assert distance_oracle(t, x, y) == max(labels[v] for v in path)


@given(connected_graphs(max_n=6))
def test_sweep_agrees_with_independent_enumeration(g):
    dm = distance_matrix(g)
    brute = oracles.path_enumeration_distances(g)
    for (i, j), value in brute.items():
        assert dm.entries[i][j] == value
        assert distance_oracle(g, g.vertices[i], g.vertices[j]) == value


@given(connected_graphs(max_n=6))
def test_vertex_route_equals_edge_route(g):
    # Scoring a path by its largest label or by its largest edge weight
    # gives the same minimum; both sides evaluated by brute force.
    assert oracles.path_enumeration_distances(g) == oracles.edge_route_distances(g)


@given(connected_graphs())
def test_oracle_matrix_matches_sweep(g):
    assert oracle_matrix(g).entries == distance_matrix(g).entries


# -- pointwise facts ---------------------------------------------------------


def test_adjacent_distance_examples():
    assert adjacent_distance(path_graph(1, 2), "a", "b") == 2
    assert adjacent_distance(graph_on(2, [(0, 1)], (0, 0)), "a", "b") == 0
    assert adjacent_distance(graph_on(2, [(0, 1)], (5, 5)), "a", "b") == 5
    with pytest.raises(ValueError):
        adjacent_distance(path_graph(1, 2, 3), "a", "c")


@given(connected_graphs())
def test_matrix_facts(g):
    dm = distance_matrix(g)
    dm.validate()
    labels = g.labels
    values = set(labels.values())
    assert all(isinstance(d, Fraction) for row in dm.entries for d in row)
    for x, y, d in dm.pairs():
        assert d >= max(labels[x], labels[y])
        assert d in values
    for u, v in g.edges:
        assert dm.get(u, v) == adjacent_distance(g, u, v)


@given(connected_graphs(), st.randoms(use_true_random=False))
def test_edge_declaration_order_is_irrelevant(g, rng):
    edges = list(g.edges)
    rng.shuffle(edges)
    shuffled = LabeledGraph(g.vertices, tuple(edges), dict(g.labels))
    assert distance_matrix(shuffled).entries == distance_matrix(g).entries


@given(connected_graphs(min_n=3), st.data())
def test_adding_an_edge_never_increases_distances(g, data):
    n = len(g.vertices)
    present = {(g.index_of(u), g.index_of(v)) for u, v in g.edges}
    absent = [e for e in combinations(range(n), 2) if e not in present]
    assume(absent)
    extra = data.draw(st.sampled_from(absent))
    names = g.vertices
    denser = LabeledGraph(
        names,
        g.edges + ((names[extra[0]], names[extra[1]]),),
        dict(g.labels),
    )
    before = distance_matrix(g)
    after = distance_matrix(denser)
    for i in range(n):
        for j in range(n):
            assert after.entries[i][j] <= before.entries[i][j]


# -- classification -----------------------------------------------------------


def test_classification_examples():
    assert classify_metric(distance_matrix(path_graph(1, 2, 3))) == ULTRAMETRIC
    assert classify_metric(distance_matrix(graph_on(2, [(0, 1)], (0, 0)))) == PSEUDOULTRAMETRIC
    assert is_nondegenerate(figure_truncation())
    assert not is_nondegenerate(graph_on(2, [(0, 1)], (0, 0)))
    assert is_nondegenerate(triangle(1, 2, 3))


@given(connected_graphs())
def test_classification_matches_nondegeneracy(g):
    verdict = classify_metric(distance_matrix(g))
    assert (verdict == ULTRAMETRIC) == is_nondegenerate(g)


@pytest.mark.parametrize(
    "entries",
    [
        ((1, 0), (0, 0)),
        ((0, 1), (2, 0)),
        ((0, -1), (-1, 0)),
        ((0, 3, 1), (3, 0, 1), (1, 1, 0)),
    ],
)
def test_invariant_violations_are_loud(entries):
    dm = DistanceMatrix(tuple("abc"[: len(entries)]), entries)
    with pytest.raises(MatrixInvariantError):
        dm.validate()
    with pytest.raises(MatrixInvariantError):
        classify_metric(dm)


def test_strong_triangle_error_names_pair_entry_and_height():
    dm = DistanceMatrix(tuple("abc"), ((0, 3, 1), (3, 0, 1), (1, 1, 0)))
    with pytest.raises(MatrixInvariantError) as info:
        dm.validate()
    message = str(info.value)
    assert "strong triangle inequality" in message
    assert "d('a', 'b') = 3" in message
    assert "at most 1" in message


def _symmetric_matrix(n, upper):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), q in zip(combinations(range(n), 2), upper):
        rows[i][j] = rows[j][i] = q
    return DistanceMatrix(tuple(f"p{k}" for k in range(n)), tuple(map(tuple, rows)))


def _validate_raises(dm) -> bool:
    try:
        dm.validate()
    except MatrixInvariantError:
        return True
    return False


@st.composite
def symmetric_matrices(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pool = st.sampled_from((Fraction(0), Fraction(1), Fraction(2)))
    upper = draw(st.lists(pool, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return _symmetric_matrix(n, upper)


@given(symmetric_matrices())
def test_validate_agrees_with_triple_oracle(dm):
    assert _validate_raises(dm) == (oracles.strong_triangle_violation(dm) is not None)


@given(connected_graphs(min_n=2), st.data())
def test_validate_catches_a_perturbed_entry(g, data):
    dm = distance_matrix(g)
    n = len(dm.vertices)
    i, j = data.draw(st.sampled_from(list(combinations(range(n), 2))))
    q = data.draw(st.sampled_from(LABEL_POOL))
    upper = [q if (a, b) == (i, j) else dm.entries[a][b] for a, b in combinations(range(n), 2)]
    bent = _symmetric_matrix(n, upper)
    assert _validate_raises(bent) == (oracles.strong_triangle_violation(bent) is not None)


# -- quotient -----------------------------------------------------------------


def test_quotient_collapses_zero_pairs():
    reps, q = zero_quotient(distance_matrix(path_graph(0, 0, 1)))
    assert reps == ("a", "c")
    assert q.get("a", "c") == 1
    assert distance_set(q) == (0, 1)


def test_quotient_of_ultrametric_is_identity():
    dm = distance_matrix(path_graph(1, 2, 3))
    reps, q = zero_quotient(dm)
    assert reps == ("a", "b", "c")
    assert q.entries == dm.entries


def test_quotient_collapses_everything_on_zero_edge():
    reps, q = zero_quotient(distance_matrix(graph_on(2, [(0, 1)], (0, 0))))
    assert reps == ("a",)
    assert distance_set(q) == (0,)


@given(connected_graphs())
def test_quotient_is_ultrametric_and_preserves_values(g):
    dm = distance_matrix(g)
    reps, q = zero_quotient(dm)
    assert classify_metric(q) == ULTRAMETRIC
    assert distance_set(q) == distance_set(dm)
    assert set(reps) <= set(dm.vertices)
    # representatives are the earliest members of their classes
    for v in dm.vertices:
        first = next(u for u in dm.vertices if dm.get(u, v) == 0)
        assert (v in reps) == (first == v)


# -- explicit weights ----------------------------------------------------------


def test_rho_on_weighted_triangles():
    r = rho_w(_weighted_triangle(1, 2, 3))
    assert (r.get("a", "b"), r.get("b", "c"), r.get("a", "c")) == (1, 2, 2)
    r = rho_w(_weighted_triangle(1, 3, 3))
    assert (r.get("a", "b"), r.get("b", "c"), r.get("a", "c")) == (1, 3, 3)


def test_rho_on_tree_is_path_maximum():
    wg = WeightedGraph(
        ("a", "b", "c"),
        (("a", "b"), ("b", "c")),
        {("a", "b"): 4, ("b", "c"): 1},
    )
    r = rho_w(wg)
    assert r.get("a", "c") == 4


@st.composite
def tied_weighted_graphs(draw):
    """Connected graphs whose weights come from a few values, ``1/2`` spelled two ways."""
    g = draw(connected_graphs(max_n=7))
    pool = (0, "1/2", "2/4", 1, 2)
    return WeightedGraph(g.vertices, g.edges, {e: draw(st.sampled_from(pool)) for e in g.edges})


@given(tied_weighted_graphs())
def test_rho_matches_fraction_sorted_minimax(wg):
    r = rho_w(wg)
    assert [list(row) for row in r.entries] == oracles.fraction_sorted_minimax(wg)
    assert all(isinstance(d, Fraction) for row in r.entries for d in row)


def test_realizability_witness_on_unique_cycle_maximum():
    verdict = is_weight_realizable(_weighted_triangle(1, 2, 3))
    assert not verdict.realizable
    assert verdict.witness == ("a", "c")
    assert verdict.rho == 2


def test_realizability_accepts_doubled_maximum():
    verdict = is_weight_realizable(_weighted_triangle(1, 3, 3))
    assert verdict.realizable
    assert verdict.witness is None


@given(connected_graphs())
def test_label_induced_weights_are_realizable(g):
    assert is_weight_realizable(edge_weights(g)).realizable


@given(connected_graphs(min_n=2, max_n=6), st.data())
def test_realizability_matches_cycle_criterion(g, data):
    weights = {
        e: data.draw(st.sampled_from(LABEL_POOL), label=f"w{e}") for e in g.edges
    }
    wg = WeightedGraph(g.vertices, g.edges, weights)
    assert is_weight_realizable(wg).realizable == oracles.cycle_criterion_realizable(wg)


def test_weighted_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(("a", "b"), (("a", "b"),), {})
    with pytest.raises(ValueError):
        WeightedGraph(
            ("a", "b"),
            (("a", "b"),),
            {("a", "b"): 1, ("b", "a"): 2},
        )
    with pytest.raises(ValueError):
        WeightedGraph(("a", "b"), (("a", "b"),), {("a", "b"): -1})
    with pytest.raises(ValueError):
        WeightedGraph(("a", "b"), (), {("a", "b"): 1})


# -- weighted parsing -----------------------------------------------------------


def test_parse_weighted_document():
    wg = parse_weighted_graph("v a\nv b 7\ne a b 5/2\n")
    assert wg.vertices == ("a", "b")
    assert wg.weight("a", "b") == Fraction(5, 2)


@pytest.mark.parametrize(
    "text, category",
    [
        ("v a\nv b\ne a b", "malformed-line"),
        ("v a\nv b\ne a b pork", "bad-weight"),
        ("v a\nv b\ne a b -1", "bad-weight"),
        ("v a\ne a c 1", "undeclared-endpoint"),
        ("v a\nv a\n", "duplicate-vertex"),
        ("", "empty-graph"),
    ],
)
def test_parse_weighted_errors(text, category):
    with pytest.raises(GraphFormatError) as err:
        parse_weighted_graph(text)
    assert err.value.category == category


# -- serialization ----------------------------------------------------------------


def test_csv_layout_and_round_trip():
    dm = distance_matrix(path_graph(1, 2, 3))
    text = dm.to_csv()
    assert text == "a,b,c\n0,2,3\n2,0,3\n3,3,0\n"
    assert DistanceMatrix.from_csv(text) == dm


def test_json_round_trip_renders_rationals_as_strings():
    dm = distance_matrix(figure_truncation())
    doc = dm.to_json_dict()
    assert doc["vertices"] == ["x", "y", "z1", "z2"]
    assert doc["matrix"][0][1] == "1/2"
    assert DistanceMatrix.from_json_dict(json.loads(json.dumps(doc))) == dm


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": "ab", "matrix": [["0", "1"], ["1", "0"]]},
        {"vertices": ["a", "b"], "matrix": ["01", "10"]},
        {"vertices": ["a", "b"]},
        {"matrix": [["0", "1"], ["1", "0"]]},
    ],
)
def test_json_reader_refuses_other_shapes(doc):
    # A string used to pass as a list of one-character names or entries,
    # and a missing key raised KeyError.
    with pytest.raises(ValueError):
        DistanceMatrix.from_json_dict(doc)


@given(connected_graphs())
def test_serialization_round_trips(g):
    dm = distance_matrix(g)
    assert DistanceMatrix.from_csv(dm.to_csv()) == dm
    assert DistanceMatrix.from_json_dict(dm.to_json_dict()) == dm


def test_submatrix_and_get():
    dm = distance_matrix(path_graph(1, 2, 3))
    sub = dm.submatrix(("a", "c"))
    assert sub.vertices == ("a", "c")
    assert sub.get("a", "c") == 3
    assert list(dm.pairs()) == [
        ("a", "b", Fraction(2)),
        ("a", "c", Fraction(3)),
        ("b", "c", Fraction(3)),
    ]


# -- the rank route against the Fraction route --------------------------------

# Each value in several spellings, so equal entries arrive as distinct
# objects: 1/2, 2/4 and 0.5 must share a rank.
_SPELLINGS = {
    Fraction(0): (Fraction(0), 0, "0", "0/3"),
    Fraction(1, 2): (Fraction(1, 2), "1/2", "2/4", "0.5"),
    Fraction(1): (Fraction(1), 1, "2/2", "1.0"),
    Fraction(2): (Fraction(2), 2, "4/2", "20e-1"),
    Fraction(7, 3): (Fraction(7, 3), "7/3", "14/6"),
    Fraction(3): (Fraction(3), 3, "6/2", "3.0"),
    Fraction(-1): (Fraction(-1), -1, "-2/2"),
}


@st.composite
def outside_matrices(draw, max_n=6):
    """Square matrices as they could arrive from outside the sweep.

    Mostly symmetric with a zero diagonal, drawn either from a graph's
    distances (ultrametric or pseudoultrametric) or from arbitrary
    non-negative values (often breaking the strong triangle inequality);
    then, sometimes, one entry is bent: a nonzero diagonal, one half of a
    pair changed (asymmetry) or a negative pair.
    """
    if draw(st.booleans()):
        dm = distance_matrix(draw(connected_graphs(max_n=max_n)))
        n, values = len(dm.vertices), [list(row) for row in dm.entries]
    else:
        n = draw(st.integers(1, max_n))
        values = [[Fraction(0)] * n for _ in range(n)]
        pool = st.sampled_from(sorted(q for q in _SPELLINGS if q >= 0))
        for i, j in combinations(range(n), 2):
            values[i][j] = values[j][i] = draw(pool)
    bend = draw(st.sampled_from(("none", "none", "diagonal", "asymmetry", "negative")))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    q = draw(st.sampled_from(sorted(_SPELLINGS)))
    if bend == "diagonal":
        values[i][i] = q
    elif bend == "asymmetry" and i != j:
        values[i][j] = q
    elif bend == "negative" and i != j:
        values[i][j] = values[j][i] = Fraction(-1)
    rows = tuple(
        tuple(draw(st.sampled_from(_SPELLINGS[v])) for v in row) for row in values
    )
    return DistanceMatrix(tuple(f"p{k}" for k in range(n)), rows)


def _outcome(route, dm):
    try:
        return "ok", route(dm)
    except (MatrixInvariantError, NotUltrametricError) as exc:
        return type(exc), str(exc)


@given(outside_matrices())
def test_rank_route_matches_the_fraction_route(dm):
    assert _outcome(DistanceMatrix.validate, dm) == _outcome(oracles.fraction_validate, dm)
    assert _outcome(classify_metric, dm) == _outcome(oracles.fraction_classify, dm)
    assert distance_set(dm) == oracles.fraction_distance_set(dm)
    assert all(isinstance(q, Fraction) for q in distance_set(dm))
    assert _outcome(zero_quotient, dm) == _outcome(oracles.fraction_zero_quotient, dm)
    fast, slow = _outcome(dendrogram, dm), _outcome(oracles.fraction_dendrogram, dm)
    assert fast == slow
    if fast[0] == "ok":
        assert canonical_form(fast[1]) == canonical_form(slow[1])


@given(connected_graphs())
def test_sweep_matrix_equals_and_hashes_like_its_round_trip(g):
    dm = distance_matrix(g)
    for back in (
        DistanceMatrix.from_csv(dm.to_csv()),
        DistanceMatrix.from_json_dict(json.loads(json.dumps(dm.to_json_dict()))),
        DistanceMatrix(dm.vertices, dm.entries),
    ):
        assert back == dm and not back != dm
        assert hash(back) == hash(dm)
        assert distance_set(back) == distance_set(dm)
        assert classify_metric(back) == classify_metric(dm)
