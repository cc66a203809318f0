"""Graph construction, parsing, predicates, and enumerators."""

import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import degree_sum_identity
from conftest import (
    PARSE_CASES,
    connected_graphs,
    graph_on,
    labeled_trees,
    names_for,
    path_graph,
    star_graph,
    triangle,
)
from ultragraph import (
    CapExceededError,
    DisconnectedGraphError,
    DistanceMatrix,
    GraphFormatError,
    LabeledGraph,
    NotATreeError,
    SearchConfig,
    connectivity_witness,
    enumerate_cycles,
    enumerate_simple_paths,
    enumerate_trees,
    is_connected,
    is_tree,
    parse_graph,
    parse_weighted_graph,
    root_levels,
    spanning_tree,
    tree_from_pruefer,
)


# -- construction --------------------------------------------------------


def test_edges_normalized_to_declaration_order():
    g = LabeledGraph(("a", "b"), (("b", "a"),), {"a": 1, "b": 2})
    assert g.edges == (("a", "b"),)
    assert g.has_edge("b", "a")


def test_neighbors_in_declaration_order():
    g = graph_on(3, [(0, 2), (0, 1)], (1, 1, 1))
    assert g.neighbors("a") == ("b", "c")


def test_labels_coerced_exactly():
    g = LabeledGraph(("a",), (), {"a": "1/3"})
    assert g.label("a") == Fraction(1, 3)


@pytest.mark.parametrize(
    "vertices, edges, labels",
    [
        ((), (), {}),
        (("a", "a"), (), {"a": 1}),
        (("a",), (), {}),
        (("a",), (), {"a": 1, "b": 2}),
        (("a",), (), {"a": -1}),
        (("a", "b"), (("a", "a"),), {"a": 1, "b": 1}),
        (("a", "b"), (("a", "b"), ("b", "a")), {"a": 1, "b": 1}),
        (("a", "b"), (("a", "c"),), {"a": 1, "b": 1}),
    ],
)
def test_invalid_construction_rejected(vertices, edges, labels):
    with pytest.raises(ValueError):
        LabeledGraph(vertices, edges, labels)


@pytest.mark.parametrize(
    "edges, message",
    [
        ((("a", "b"), ("b", "a")), "duplicate edge ('b', 'a')"),
        ((("b", "a"), ("a", "b")), "duplicate edge ('a', 'b')"),
        ((("a", "c"), ("b", "c"), ("a", "c")), "duplicate edge ('a', 'c')"),
    ],
)
def test_constructor_rejects_an_edge_in_either_orientation_twice(edges, message):
    with pytest.raises(ValueError) as err:
        LabeledGraph(("a", "b", "c"), edges, {"a": 1, "b": 1, "c": 1})
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [0.5, True])
def test_inexact_label_types_rejected(bad):
    with pytest.raises(TypeError):
        LabeledGraph(("a",), (), {"a": bad})


@pytest.mark.parametrize(
    "build",
    [
        lambda: LabeledGraph(("a",), (), {"a": "1_000"}),
        lambda: DistanceMatrix.from_csv("a,b\n0,1_0\n1_0,0\n"),
        lambda: SearchConfig(n_max=2, universe=("1_0",)),
    ],
)
def test_api_strings_follow_the_file_grammar(build):
    # Fraction takes "1_000" from Python 3.11 on; no string the API reads does.
    with pytest.raises(ValueError, match="^malformed number '1_0"):
        build()


def test_with_labels_keeps_structure():
    g = triangle(1, 2, 3)
    h = g.with_labels({"a": 5, "b": 5, "c": 5})
    assert h.edges == g.edges
    assert h.label("a") == 5
    assert g.label("a") == 1


# -- parsing -------------------------------------------------------------


def test_parse_echoes_input():
    g = parse_graph("v a 1\nv b 2\ne a b\n")
    assert g.vertices == ("a", "b")
    assert g.edges == (("a", "b"),)
    assert g.labels == {"a": Fraction(1), "b": Fraction(2)}


def test_parse_label_forms_are_exact():
    g = parse_graph("v a 1/2\nv b 1.5\n")
    assert g.label("a") == Fraction(1, 2)
    assert g.label("b") == Fraction(3, 2)


def test_parse_skips_comments_and_blanks():
    text = "# heading\n\nv a 1\n  # indented comment\nv b 2\n\ne a b\n"
    g = parse_graph(text)
    assert g.vertices == ("a", "b")


@pytest.mark.parametrize(
    "text, category, line_no",
    [
        ("v a 1\nv a 2", "duplicate-vertex", 2),
        ("e a b", "undeclared-endpoint", 1),
        ("v a 1\ne a b", "undeclared-endpoint", 2),
        ("v a 1\ne a a", "self-loop", 2),
        ("v a -1", "bad-label", 1),
        ("v a beef", "bad-label", 1),
        ("v a 1/0", "bad-label", 1),
        ("v a 1\nv b 2\ne a b\ne b a", "duplicate-edge", 4),
        ("frog a 1", "malformed-line", 1),
        ("v a", "malformed-line", 1),
        ("v a 1 9", "malformed-line", 1),
        ("v a 1\ne a", "malformed-line", 2),
        ("", "empty-graph", 0),
        ("# only a comment\n", "empty-graph", 0),
    ],
)
def test_parse_error_categories(text, category, line_no):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.category == category
    assert err.value.line_no == line_no


@pytest.mark.parametrize("text, labeled, weighted", PARSE_CASES)
def test_parse_cases_are_pinned_for_both_formats(text, labeled, weighted):
    for parse, expected in ((parse_graph, labeled), (parse_weighted_graph, weighted)):
        if expected is None:
            parse(text)
            continue
        category, line_no, message = expected
        with pytest.raises(GraphFormatError) as err:
            parse(text)
        assert (err.value.category, err.value.line_no) == (category, line_no)
        assert str(err.value) == f"line {line_no}: {message}"


def test_exponent_bound_of_rational_tokens():
    limit = sys.get_int_max_str_digits()
    labeled, weighted = "v a {}\n", "v a\nv b\ne a b {}\n"
    for token in (f"1e{limit - 1}", f"1e-{limit - 1}", f"7E+{limit - 1}"):
        assert parse_graph(labeled.format(token)).label("a") == Fraction(token)
        assert parse_weighted_graph(weighted.format(token)).weight("a", "b") == Fraction(token)
    # One digit too many to print: the numerator or denominator is 10**limit or more.
    for token in (f"1e{limit}", f"1e-{limit}", f"7E+{limit}"):
        for parse, doc, category, where in (
            (parse_graph, labeled, "bad-label", "line 1: label"),
            (parse_weighted_graph, weighted, "bad-weight", "line 3: weight"),
        ):
            with pytest.raises(GraphFormatError) as err:
                parse(doc.format(token))
            assert err.value.category == category
            assert str(err.value) == f"{where} {token!r} has more than {limit} digits"
    for token in (f"1e{limit + 1}", "1e-99999999", "-2.5E99999999"):
        for parse, doc, category, where in (
            (parse_graph, labeled, "bad-label", "line 1: exponent of label"),
            (parse_weighted_graph, weighted, "bad-weight", "line 3: exponent of weight"),
        ):
            with pytest.raises(GraphFormatError) as err:
                parse(doc.format(token))
            assert err.value.category == category
            assert str(err.value) == f"{where} {token!r} exceeds {limit}"
    # Not rationals at all, whatever the exponent.
    for token in ("x1e99999999", "1/2e99999999", "1e99999999x", "e99999999"):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(labeled.format(token))
        assert str(err.value) == f"line 1: malformed label {token!r}"


@given(connected_graphs())
def test_parse_round_trips_rendering(g):
    assert parse_graph(g.to_text()) == g


# -- connectivity and trees ----------------------------------------------


def test_single_vertex_is_connected():
    assert is_connected(LabeledGraph(("a",), (), {"a": 0}))


def test_two_isolated_vertices_are_not_connected():
    g = LabeledGraph(("a", "b"), (), {"a": 1, "b": 1})
    assert not is_connected(g)
    assert connectivity_witness(g) == ("a", "b")


def test_triangle_is_connected():
    assert is_connected(triangle(1, 2, 3))
    assert connectivity_witness(triangle(1, 2, 3)) is None


def test_is_tree_on_examples():
    assert is_tree(path_graph(1, 2, 3))
    assert not is_tree(triangle(1, 2, 3))
    assert is_tree(LabeledGraph(("a",), (), {"a": 1}))


def test_is_tree_requires_connected_input():
    g = LabeledGraph(("a", "b"), (), {"a": 1, "b": 1})
    with pytest.raises(DisconnectedGraphError) as err:
        is_tree(g)
    assert err.value.witnesses == ("a", "b")


def test_spanning_tree_of_tree_is_itself():
    t = path_graph(1, 2, 3)
    assert set(spanning_tree(t).edges) == set(t.edges)


def test_spanning_tree_triangle_takes_both_root_edges():
    # Breadth-first from the first-declared vertex reaches b and c
    # directly from a, whatever order the edges were declared in.
    g = triangle(1, 2, 3)
    t = spanning_tree(g)
    assert t.edges == (("a", "b"), ("a", "c"))
    assert oracles.is_valid_spanning_tree(g, t)


def test_spanning_tree_four_cycle_deterministic():
    g = graph_on(4, [(0, 1), (1, 2), (2, 3), (0, 3)], (1, 1, 1, 1))
    t = spanning_tree(g)
    assert t.edges == (("a", "b"), ("a", "d"), ("b", "c"))
    assert spanning_tree(g).edges == t.edges
    assert oracles.is_valid_spanning_tree(g, t)


@given(connected_graphs())
def test_spanning_tree_is_always_valid(g):
    t = spanning_tree(g)
    assert oracles.is_valid_spanning_tree(g, t)
    assert is_tree(t)
    assert len(t.edges) == len(g.vertices) - 1
    assert t.labels == g.labels


def test_degree_sum_identity_small_exhaustive():
    # Every graph on up to 5 vertices, connected or not.
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            assert degree_sum_identity(graph_on(n, edges, (0,) * n))


@given(st.data())
def test_degree_sum_identity_randomized(data):
    n = data.draw(st.integers(6, 8))
    pairs = list(combinations(range(n), 2))
    edges = [e for e in pairs if data.draw(st.booleans())]
    assert degree_sum_identity(graph_on(n, edges, (0,) * n))


# -- path enumeration -----------------------------------------------------


def test_paths_in_triangle():
    assert list(enumerate_simple_paths(triangle(1, 2, 3), "a", "b")) == [
        ("a", "b"),
        ("a", "c", "b"),
    ]


def test_path_in_tree_is_unique():
    assert list(enumerate_simple_paths(path_graph(1, 2, 3), "a", "c")) == [("a", "b", "c")]


def test_paths_in_double_hub_graph():
    g = LabeledGraph(
        ("x", "y", "z1", "z2"),
        (("x", "z1"), ("x", "z2"), ("y", "z1"), ("y", "z2")),
        {"x": 0, "y": 0, "z1": 1, "z2": "1/2"},
    )
    assert list(enumerate_simple_paths(g, "x", "y")) == [
        ("x", "z1", "y"),
        ("x", "z2", "y"),
    ]


def test_paths_come_out_in_index_order():
    g = graph_on(4, list(combinations(range(4), 2)), (1, 1, 1, 1))
    found = list(enumerate_simple_paths(g, "a", "d"))
    keyed = [tuple(g.index_of(v) for v in p) for p in found]
    assert keyed == sorted(keyed)
    assert len(found) == 5


def test_path_endpoint_errors():
    g = path_graph(1, 2)
    with pytest.raises(ValueError):
        list(enumerate_simple_paths(g, "a", "a"))
    with pytest.raises(ValueError):
        list(enumerate_simple_paths(g, "a", "nope"))


@given(labeled_trees())
def test_trees_have_one_path_per_pair(t):
    for i, x in enumerate(t.vertices):
        for y in t.vertices[i + 1 :]:
            assert len(list(enumerate_simple_paths(t, x, y))) == 1


# -- cycle enumeration -----------------------------------------------------


def test_tree_has_no_cycles():
    assert list(enumerate_cycles(path_graph(1, 2, 3, 4))) == []


def test_triangle_has_one_cycle():
    assert list(enumerate_cycles(triangle(1, 2, 3))) == [("a", "b", "c")]


def test_complete_four_has_seven_cycles():
    g = graph_on(4, list(combinations(range(4), 2)), (1, 1, 1, 1))
    found = list(enumerate_cycles(g))
    assert len(found) == 7
    assert sorted(len(c) for c in found) == [3, 3, 3, 3, 4, 4, 4]
    assert len(set(found)) == 7


def test_cycle_cap_is_configurable():
    n = 11
    ring = graph_on(n, [(i, (i + 1) % n) for i in range(n)], (1,) * n)
    with pytest.raises(CapExceededError):
        list(enumerate_cycles(ring))
    assert len(list(enumerate_cycles(ring, cap=11))) == 1


@given(connected_graphs(min_n=3, max_n=6))
def test_cycles_match_subset_oracle(g):
    assert set(enumerate_cycles(g)) == oracles.cycle_vertex_sets(g)


# -- tree enumeration ------------------------------------------------------


def test_pruefer_decoding_basics():
    assert tree_from_pruefer((), 2) == ((0, 1),)
    assert tree_from_pruefer((0, 0), 4) == ((0, 1), (0, 2), (0, 3))
    with pytest.raises(ValueError):
        tree_from_pruefer((0,), 4)
    with pytest.raises(ValueError):
        tree_from_pruefer((), 1)
    # out-of-range symbols: -1 used to wrap onto the last vertex, 5 to
    # raise IndexError
    for bad in (-1, 5):
        with pytest.raises(ValueError, match=rf"Pruefer symbol {bad} is not in range\(3\)"):
            tree_from_pruefer((bad,), 3)


def test_tree_counts_match_cayley_formula():
    expected = {1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 1296}
    for n, count in expected.items():
        trees = list(enumerate_trees(n))
        assert len(trees) == count
        assert len({frozenset(t.edges) for t in trees}) == count
        for t in trees:
            assert t.vertices == tuple(str(i + 1) for i in range(n))
            assert is_tree(t)


def test_trees_match_edge_subset_oracle():
    for n in range(1, 6):
        fast = {
            frozenset((int(u) - 1, int(v) - 1) for u, v in t.edges)
            for t in enumerate_trees(n)
        }
        assert fast == oracles.trees_by_edge_subsets(n)


@settings(deadline=None)
@given(st.just(7))
def test_trees_on_seven_vertices_are_distinct(n):
    seen = {frozenset(t.edges) for t in enumerate_trees(n)}
    assert len(seen) == n ** (n - 2)


def test_tree_enumeration_cap():
    with pytest.raises(CapExceededError):
        next(enumerate_trees(9))
    big = next(enumerate_trees(9, cap=9))
    assert len(big.vertices) == 9


# -- levels ---------------------------------------------------------------


def test_root_levels_star():
    s = star_graph(1, 2, 3, 4)
    assert root_levels(s, "a") == {"a": 0, "b": 1, "c": 1, "d": 1}
    assert root_levels(s, "b") == {"b": 0, "a": 1, "c": 2, "d": 2}


def test_root_levels_path():
    p = path_graph(1, 2, 3)
    assert root_levels(p, "a") == {"a": 0, "b": 1, "c": 2}
    assert root_levels(p, "b") == {"b": 0, "a": 1, "c": 1}


def test_root_levels_rejects_bad_input():
    with pytest.raises(NotATreeError):
        root_levels(triangle(1, 2, 3), "a")
    with pytest.raises(ValueError):
        root_levels(path_graph(1, 2), "zz")


@given(labeled_trees(), st.data())
def test_root_levels_count_path_edges(t, data):
    root = data.draw(st.sampled_from(t.vertices))
    levels = root_levels(t, root)
    for v in t.vertices:
        if v == root:
            assert levels[v] == 0
        else:
            (path,) = enumerate_simple_paths(t, root, v)
            assert levels[v] == len(path) - 1
