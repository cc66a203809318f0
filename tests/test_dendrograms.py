"""Merge trees, canonical strings, and the isometry decision."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import cophenetic_distances
from conftest import (
    POSITIVE_POOL,
    connected_graphs,
    graph_on,
    path_graph,
    recursion_headroom,
    star_graph,
)
from ultragraph import (
    DistanceMatrix,
    InternalCheckError,
    LabeledGraph,
    Leaf,
    MatrixInvariantError,
    Merge,
    NotUltrametricError,
    are_isometric,
    canonical_form,
    dendrogram,
    distance_matrix,
    graph_dendrogram,
    leaves,
    zero_quotient,
)
from ultragraph import dendrograms
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
        graph_dendrogram(path_graph(0, 0, 1))
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


@pytest.mark.parametrize("child", [None, "x" * 1_000_000], ids=("None", "long"))
def test_merge_children_that_are_not_nodes_get_one_short_line(child):
    with pytest.raises(ValueError) as err:
        Merge(1, (Leaf("a"), child))
    message = str(err.value)
    assert message.startswith("merge child ") and message.endswith(" is not a Leaf or a Merge")
    assert len(message) < 200


@pytest.mark.parametrize(
    "children, kind",
    [
        (None, "NoneType"),
        ("ab", "str"),
        ({Leaf("a"), Leaf("b")}, "set"),
        (iter(()), "tuple_iterator"),
    ],
    ids=("None", "str", "set", "iterator"),
)
def test_merge_children_must_be_a_tuple_or_a_list(children, kind):
    # None used to raise "object of type 'NoneType' has no len()", and a
    # string "merge child 'a' is not a Leaf or a Merge".
    with pytest.raises(TypeError) as err:
        Merge(1, children)
    assert str(err.value) == f"children must be a tuple or a list, not {kind}"
    pair = (Leaf("a"), Leaf("b"))
    assert Merge(1, list(pair)) == Merge(1, pair)


@pytest.mark.parametrize("vertex", [5, None, b"a", ("a",)])
def test_leaves_refuse_names_that_are_not_strings(vertex):
    # The wording of LabeledGraph and DistanceMatrix.
    with pytest.raises(ValueError, match="^vertex names must be strings$"):
        Leaf(vertex)


@pytest.mark.parametrize(
    "merges, message",
    [
        # the first merge closes at rank 2 under a parent at rank 1
        ([2, 1], "child merge heights must strictly decrease"),
        ([1, 1, 1], None),
        ([2, 2], "child merge heights must strictly decrease"),
        ([1, 0], "merge heights must be positive"),
        ([1, -1], "merge heights must be positive"),
    ],
)
def test_replay_checks_each_node_on_its_ranks(merges, message):
    # The ranks of a chain of merges, innermost first: merge k joins the
    # tree so far with the next leaf.  Nodes closed by hand, out of rank
    # order, raise what the public constructor raises on the same tree.
    vertices = tuple("abcd"[: len(merges) + 1])
    ordered = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1)]
    if message is None:
        # As a leaf order's gaps, equal heights share one node.
        assert dendrograms._replay(vertices, range(len(vertices)), merges, ordered) == Merge(
            Fraction(1), tuple(Leaf(v) for v in vertices)
        )
        return
    with pytest.raises(ValueError) as err:
        item = (0, 0, Leaf("a"))
        for k, w in enumerate(merges, start=1):
            item = dendrograms._close(w, [item, (k, 0, Leaf(vertices[k]))], ordered)
    assert str(err.value) == message
    w, top = merges[0], merges[-1]
    with pytest.raises(ValueError) as public:
        Merge(ordered[top], (Merge(ordered[w], (Leaf("a"), Leaf("b"))), Leaf("c")))
    assert str(public.value) == message


def _rebuilt(node):
    """``node`` built again bottom-up by the public ``Merge`` constructor."""
    if isinstance(node, Leaf):
        return Leaf(node.vertex)
    assert type(node.height) is Fraction and type(node.children) is tuple
    return Merge(node.height, tuple(_rebuilt(child) for child in node.children))


def _assert_public(node):
    public = _rebuilt(node)
    assert public == node
    assert hash(public) == hash(node)
    assert canonical_form(public) == canonical_form(node)


@given(connected_graphs(pool=POSITIVE_POOL, max_n=9))
def test_replayed_nodes_equal_the_public_constructor(g):
    _assert_public(graph_dendrogram(g))
    _assert_public(dendrogram(_space(g)))


def test_replayed_matrix_nodes_equal_the_public_constructor():
    # Zero-quotient matrices of graphs with zero and repeated labels.
    for node in _digest_corpus(count=200):
        _assert_public(node)


def test_leaves_come_out_in_merge_order():
    node = dendrogram(_space(path_graph(1, 2, 3)))
    assert list(leaves(node)) == ["a", "b", "c"]


def test_isometry_of_path_and_star_spaces():
    assert are_isometric(_space(path_graph(1, 2, 3, 4)), _space(star_graph(1, 2, 3, 4)))


def test_different_distance_sets_are_never_isometric():
    assert not are_isometric(_space(path_graph(1, 2, 3)), _space(path_graph(3, 2, 3)))


def test_isometry_builds_each_canonical_form_once(monkeypatch):
    spaces = [
        _space(path_graph(1, 2, 3, 4)),
        _space(star_graph(1, 2, 3, 4)),
        _space(path_graph(3, 2, 3, 4)),
    ]
    fresh = [DistanceMatrix(dm.vertices, dm.entries) for dm in spaces]
    built = []
    real = dendrograms.canonical_form
    monkeypatch.setattr(dendrograms, "canonical_form", lambda node: built.append(node) or real(node))
    verdicts = [are_isometric(a, b) for a, b in itertools.combinations(spaces, 2)]
    assert verdicts == [True, False, False]
    assert len(built) == 3
    # The kept form is no field: equality, hash and repr read the fields only.
    for dm, other in zip(spaces, fresh):
        assert (dm, hash(dm), repr(dm)) == (other, hash(other), repr(other))
    # A refusal is not kept: it is raised again on every call.
    refused = [
        (_space(path_graph(0, 0, 1)), NotUltrametricError),
        (DistanceMatrix(("a", "b", "c"), ((0, 1, 3), (1, 0, 1), (3, 1, 0))), MatrixInvariantError),
    ]
    for dm, error in refused:
        for _ in range(2):
            with pytest.raises(error):
                are_isometric(dm, spaces[0])
    assert len(built) == 3


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


DEPTHS = (5000, 100_000)


def test_canonical_form_of_a_very_deep_chain():
    for depth in DEPTHS:
        expected = (
            "".join(f"({k}" for k in range(depth, 1, -1))
            + "(1··)"
            + "·)" * (depth - 1)
        )
        assert canonical_form(_chain(depth)) == expected


def test_leaves_of_a_very_deep_chain():
    for depth in DEPTHS:
        assert list(leaves(_chain(depth))) == [f"x{k}" for k in range(depth + 1)]


def test_json_of_a_very_deep_chain():
    for depth in DEPTHS:
        doc = to_json_dict(_chain(depth))
        for k in range(depth, 1, -1):
            assert doc["height"] == str(k)
            assert doc["children"][1] == {"leaf": f"x{k}"}
            doc = doc["children"][0]
        assert doc == {"height": "1", "children": [{"leaf": "x0"}, {"leaf": "x1"}]}


def test_canonical_form_of_a_cherry_chain():
    # Every level has two merge children, the rest of the chain and a
    # cherry, so every level joins and sorts merge siblings.
    depth = 5000
    node = Merge(Fraction(1), (Leaf("a1"), Leaf("b1")))
    for k in range(2, depth + 1):
        cherry = Merge(Fraction(1, 2), (Leaf(f"b{k}"), Leaf(f"c{k}")))
        node = Merge(Fraction(k), (node, cherry, Leaf(f"a{k}")))
    expected = (
        "".join(f"({k}(1/2··)" for k in range(depth, 1, -1))
        + "(1··)"
        + "·)" * (depth - 1)
    )
    assert canonical_form(node) == expected == oracles.reference_canonical_form(node)


def test_merge_compares_hashes_and_prints_a_very_deep_chain():
    depth = DEPTHS[-1]
    node, twin = _chain(depth), _chain(depth)
    assert node == twin and hash(node) == hash(twin)
    assert node != Merge(Fraction(depth + 1), (twin, Leaf("y")))
    assert repr(node) == (
        "".join(f"Merge(height=Fraction({k}, 1), children=(" for k in range(depth, 1, -1))
        + "Merge(height=Fraction(1, 1), children=(Leaf(vertex='x0'), Leaf(vertex='x1')))"
        + "".join(f", Leaf(vertex='x{k}')))" for k in range(2, depth + 1))
    )


def test_merges_with_the_same_leaves_and_heights_can_differ():
    # Both list a, b, c, d, 1, 2 in post-order; only the arities differ.
    a, b, c, d = (Leaf(v) for v in "abcd")
    wide = Merge(Fraction(2), (a, b, Merge(Fraction(1), (c, d))))
    narrow = Merge(Fraction(2), (a, Merge(Fraction(1), (b, c, d))))
    assert wide != narrow


# Heights whose strings share prefixes, so merge siblings sort on more than
# their first few characters.
SHARED_PREFIX_HEIGHTS = tuple(Fraction(h) for h in ("1/20", "1/2", "1", "10", "12"))
TIED_POOL = tuple(Fraction(x) for x in ("1/2", "2/3", "1", "2", "3", "10", "11"))


@st.composite
def multiway_trees(draw):
    """Hand-built trees with merge siblings and heights from ``SHARED_PREFIX_HEIGHTS``."""
    names = itertools.count()

    def tree(below):
        if below == 0 or not draw(st.integers(0, 3)):
            return Leaf(f"v{next(names)}")
        height = draw(st.integers(0, below - 1))
        arity = draw(st.integers(2, 3))
        return Merge(SHARED_PREFIX_HEIGHTS[height], tuple(tree(height) for _ in range(arity)))

    return tree(len(SHARED_PREFIX_HEIGHTS))


@given(
    st.one_of(
        connected_graphs(pool=TIED_POOL, max_n=12).map(graph_dendrogram),
        multiway_trees(),
    )
)
def test_readers_match_their_references(node):
    assert canonical_form(node) == oracles.reference_canonical_form(node)
    assert list(leaves(node)) == list(oracles.reference_leaves(node))
    assert json.dumps(to_json_dict(node)) == json.dumps(oracles.reference_to_json_dict(node))


@given(multiway_trees(), multiway_trees())
def test_merge_methods_match_the_generated_ones(a, b):
    for x, y in ((a, b), (a, _rebuilt(a))):
        twin_x, twin_y = oracles.generated_twin(x), oracles.generated_twin(y)
        assert repr(x) == repr(twin_x)
        assert (x == y) == (twin_x == twin_y)
        if x == y:
            assert hash(x) == hash(y)


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
    merged = graph_dendrogram(g)
    assert (to_json_dict(merged), canonical_form(merged)) == (
        to_json_dict(node),
        canonical_form(node),
    )


@given(connected_graphs())
def test_both_routes_refuse_exactly_the_degenerate_spaces(g):
    try:
        expected = to_json_dict(dendrogram(_space(g)))
    except NotUltrametricError:
        with pytest.raises(NotUltrametricError):
            graph_dendrogram(g)
    else:
        assert to_json_dict(graph_dendrogram(g)) == expected


@given(connected_graphs(pool=POSITIVE_POOL))
def test_every_merge_of_a_generated_space_has_a_leaf_child(g):
    # Judged on the matrix route, which does not run the check.
    stack = [dendrogram(_space(g))]
    while stack:
        node = stack.pop()
        if isinstance(node, Merge):
            assert any(isinstance(child, Leaf) for child in node.children)
            stack.extend(node.children)


def _two_pairs():
    # d(a,b) = d(c,d) = 1 and every other distance 2: an ultrametric no
    # labeled graph generates, since its root has no leaf child.
    one, two = Fraction(1), Fraction(2)
    return DistanceMatrix(
        ("a", "b", "c", "d"),
        ((0, one, two, two), (one, 0, two, two), (two, two, 0, one), (two, two, one, 0)),
    )


def test_matrix_route_accepts_a_root_without_leaf_children():
    ab = Merge(Fraction(1), (Leaf("a"), Leaf("b")))
    cd = Merge(Fraction(1), (Leaf("c"), Leaf("d")))
    assert dendrogram(_two_pairs()) == Merge(Fraction(2), (ab, cd))


def test_graph_route_checks_for_leaf_children(monkeypatch):
    dm = _two_pairs()
    monkeypatch.setattr(dendrograms, "_leaf_order", lambda _g: (*dm._leaf_order(), dm._ordered))
    with pytest.raises(InternalCheckError, match="^merge at height 2 has no leaf child$"):
        graph_dendrogram(path_graph(1, 2, 3, 4))


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
