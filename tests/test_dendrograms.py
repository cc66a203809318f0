"""Merge trees, canonical strings, and the isometry decision."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import (
    POSITIVE_POOL,
    connected_graphs,
    graph_on,
    path_graph,
    recursion_headroom,
    star_graph,
)
from ultragraph import (
    LabeledGraph,
    Leaf,
    Merge,
    NotUltrametricError,
    are_isometric,
    canonical_form,
    cophenetic_distances,
    dendrogram,
    distance_matrix,
    leaves,
    zero_quotient,
)
from ultragraph.dendrograms import to_json_dict


def _space(g: LabeledGraph):
    return distance_matrix(g)


def test_merge_tree_of_short_path():
    node = dendrogram(_space(path_graph(1, 2, 3)))
    assert node == Merge(
        Fraction(3),
        (Merge(Fraction(2), (Leaf("a"), Leaf("b"))), Leaf("c")),
    )


def test_single_point_is_a_leaf():
    assert dendrogram(_space(LabeledGraph(("a",), (), {"a": 3}))) == Leaf("a")


def test_two_points_merge_once():
    node = dendrogram(_space(path_graph(1, 5)))
    assert node == Merge(Fraction(5), (Leaf("a"), Leaf("b")))
    assert canonical_form(node) == "(5··)"


def test_equal_heights_collapse_to_one_multiway_node():
    node = dendrogram(_space(star_graph(1, 2, 2, 2)))
    assert node == Merge(Fraction(2), (Leaf("a"), Leaf("b"), Leaf("c"), Leaf("d")))
    assert canonical_form(node) == "(2····)"


def test_canonical_string_of_nested_merges():
    assert canonical_form(dendrogram(_space(path_graph(1, 2, 3)))) == "(3(2··)·)"


def test_canonical_renders_heights_in_lowest_terms():
    node = dendrogram(_space(path_graph("1/2", "2/4")))
    assert canonical_form(node) == "(1/2··)"


def test_degenerate_space_is_refused():
    with pytest.raises(NotUltrametricError):
        dendrogram(_space(path_graph(0, 0, 1)))
    with pytest.raises(NotUltrametricError):
        are_isometric(_space(path_graph(0, 0, 1)), _space(path_graph(1, 2, 3)))


def test_merge_node_validation():
    with pytest.raises(ValueError):
        Merge(Fraction(2), (Leaf("a"),))
    with pytest.raises(ValueError):
        Merge(Fraction(0), (Leaf("a"), Leaf("b")))
    inner = Merge(Fraction(2), (Leaf("a"), Leaf("b")))
    with pytest.raises(ValueError):
        Merge(Fraction(2), (inner, Leaf("c")))


def test_leaves_come_out_in_merge_order():
    node = dendrogram(_space(path_graph(1, 2, 3)))
    assert list(leaves(node)) == ["a", "b", "c"]


def test_isometry_of_path_and_star_spaces():
    assert are_isometric(_space(path_graph(1, 2, 3, 4)), _space(star_graph(1, 2, 3, 4)))


def test_different_distance_sets_are_never_isometric():
    assert not are_isometric(_space(path_graph(1, 2, 3)), _space(path_graph(3, 2, 3)))


def test_json_rendering():
    doc = to_json_dict(dendrogram(_space(path_graph(1, 2, 3))))
    assert doc == {
        "height": "3",
        "children": [
            {"height": "2", "children": [{"leaf": "a"}, {"leaf": "b"}]},
            {"leaf": "c"},
        ],
    }


def test_three_clusters_chaining_at_one_height_share_a_node():
    # Declared out of name order: children follow declaration order.
    g = LabeledGraph(
        ("e", "c", "a", "b", "d"),
        (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")),
        {"a": 1, "b": 1, "c": 2, "d": 1, "e": 1},
    )
    assert to_json_dict(dendrogram(_space(g))) == {
        "height": "2",
        "children": [
            {"height": "1", "children": [{"leaf": "e"}, {"leaf": "d"}]},
            {"leaf": "c"},
            {"height": "1", "children": [{"leaf": "a"}, {"leaf": "b"}]},
        ],
    }


def _digest_corpus(count=400, seed=20260417):
    """Seeded graphs on up to 12 vertices with shuffled names, repeated
    labels and zero labels, reduced by ``zero_quotient``."""
    pool = (0, 0, Fraction(1, 2), 1, 1, 2, 3, 5)
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        names = [f"v{k}" for k in range(n)]
        rng.shuffle(names)
        edges = [(names[rng.randrange(k)], names[k]) for k in range(1, n)]
        edges += [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 2, n)
            if (names[i], names[j]) not in edges and rng.random() < 0.15
        ]
        rng.shuffle(edges)
        labels = {v: rng.choice(pool) for v in names}
        g = LabeledGraph(tuple(names), tuple(edges), labels)
        _, q = zero_quotient(distance_matrix(g))
        yield dendrogram(q)


def test_dendrogram_bytes_are_pinned():
    h = hashlib.sha256()
    for node in _digest_corpus():
        h.update(json.dumps(to_json_dict(node)).encode() + b"\n")
        h.update(canonical_form(node).encode() + b"\n")
    assert h.hexdigest() == "e47944f2e4750ab34e7808e32f47ac679d4b57d9374550dea0edbd6a17c4bc09"


def _chain(depth: int) -> Merge:
    """``depth`` nested merges; level ``k`` adds leaf ``xk`` at height ``k``."""
    node = Merge(Fraction(1), (Leaf("x0"), Leaf("x1")))
    for k in range(2, depth + 1):
        node = Merge(Fraction(k), (node, Leaf(f"x{k}")))
    return node


def test_canonical_form_of_a_very_deep_chain():
    depth = 5000
    node = _chain(depth)
    expected = (
        "".join(f"({k}" for k in range(depth, 1, -1))
        + "(1··)"
        + "·)" * (depth - 1)
    )
    assert canonical_form(node) == expected


def test_leaves_of_a_very_deep_chain():
    assert list(leaves(_chain(5000))) == [f"x{k}" for k in range(5001)]


def test_json_of_a_very_deep_chain():
    doc = to_json_dict(_chain(5000))
    for k in range(5000, 1, -1):
        assert doc["height"] == str(k)
        assert doc["children"][1] == {"leaf": f"x{k}"}
        doc = doc["children"][0]
    assert doc == {"height": "1", "children": [{"leaf": "x0"}, {"leaf": "x1"}]}


def test_cophenetic_distances_deeper_than_the_recursion_limit():
    # The result is quadratic in the depth, so the chain stays small and
    # the recursion limit comes down to meet it instead.
    depth = 300
    node = _chain(depth)
    with recursion_headroom(100):
        dists = cophenetic_distances(node)
    assert len(dists) == (depth + 1) * depth // 2
    for j in range(1, depth + 1):
        for i in range(j):
            assert dists[frozenset((f"x{i}", f"x{j}"))] == j


@given(connected_graphs(pool=POSITIVE_POOL))
def test_merge_heights_reconstruct_the_matrix(g):
    dm = _space(g)
    node = dendrogram(dm)
    assert sorted(leaves(node)) == sorted(dm.vertices)
    heights = cophenetic_distances(node)
    for x, y, d in dm.pairs():
        assert heights[frozenset((x, y))] == d


@given(connected_graphs(pool=POSITIVE_POOL), st.randoms(use_true_random=False))
def test_canonical_form_ignores_names_and_order(g, rng):
    base = canonical_form(dendrogram(_space(g)))

    order = list(range(len(g.vertices)))
    rng.shuffle(order)
    renames = {g.vertices[i]: f"w{k}" for k, i in enumerate(order)}
    permuted = LabeledGraph(
        tuple(renames[g.vertices[i]] for i in order),
        tuple((renames[u], renames[v]) for u, v in g.edges),
        {renames[v]: x for v, x in g.labels.items()},
    )
    assert canonical_form(dendrogram(_space(permuted))) == base


@given(
    connected_graphs(pool=POSITIVE_POOL, max_n=5),
    connected_graphs(pool=POSITIVE_POOL, max_n=5),
)
def test_isometry_agrees_with_bijection_search(g1, g2):
    dm1, dm2 = _space(g1), _space(g2)
    assert are_isometric(dm1, dm2) == oracles.bijection_isometric(dm1, dm2)


@given(connected_graphs(pool=POSITIVE_POOL))
def test_every_space_is_isometric_to_itself(g):
    dm = _space(g)
    assert are_isometric(dm, dm)
    assert oracles.bijection_isometric(dm, dm)
