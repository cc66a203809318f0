"""Graph construction, parsing, predicates, and enumerators."""

import sys
from fractions import Fraction
from itertools import combinations, product

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
    MatrixInvariantError,
    NotATreeError,
    SearchConfig,
    WeightedGraph,
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
from ultragraph.graphs import _LABELED_RECORDS, _WEIGHTED_RECORDS, _read_records
from ultragraph.layout import _render_order
from ultragraph.metrics import _leaf_order


# -- construction --------------------------------------------------------


def test_edges_normalized_to_declaration_order():
    g = LabeledGraph(("a", "b"), (("b", "a"),), {"a": 1, "b": 2})
    assert g.edges == (("a", "b"),)
    assert g.has_edge("b", "a")


def test_constructor_names_its_edges_from_the_checked_pairs():
    g = LabeledGraph(("a", "b", "c"), [["c", "a"], ("b", "c")], {"a": 1, "b": 2, "c": 3})
    # The raw edges given to the constructor are not kept.
    assert "edges" not in vars(g)
    assert repr(g) == (
        "LabeledGraph(vertices=('a', 'b', 'c'), edges=(('a', 'c'), ('b', 'c')), "
        "labels={'a': Fraction(1, 1), 'b': Fraction(2, 1), 'c': Fraction(3, 1)})"
    )
    assert g.edges == (("a", "c"), ("b", "c"))


@given(connected_graphs())
def test_edges_are_named_only_when_read(g):
    parsed = parse_graph(g.to_text())
    order, gaps, ordered = _leaf_order(parsed)
    "".join(_render_order(parsed.vertices, order, gaps, ordered, "text"))
    assert "edges" not in vars(parsed)
    h = LabeledGraph(parsed.vertices, parsed.edges, parsed.labels)
    assert "edges" in vars(parsed)
    assert (parsed.edges, repr(parsed)) == (h.edges, repr(h))
    assert parsed == h == g


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


@pytest.mark.parametrize(
    "vertices, edges",
    [
        ((1, 2), ((1, 2),)),
        (("a", None), ()),
        (("a", ("b",)), (("a", ("b",)),)),
    ],
)
def test_constructor_refuses_vertex_names_that_are_not_strings(vertices, edges):
    with pytest.raises(ValueError) as err:
        LabeledGraph(vertices, edges, dict.fromkeys(vertices, 1))
    assert str(err.value) == "vertex names must be strings"


@pytest.mark.parametrize("bad", [0.5, True])
def test_inexact_label_types_rejected(bad):
    with pytest.raises(TypeError):
        LabeledGraph(("a",), (), {"a": bad})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LabeledGraph(("a",), (), None), "labels must be a mapping, not NoneType"),
        (lambda: LabeledGraph(("a",), (), [("a", 1)]), "labels must be a mapping, not list"),
        (
            lambda: WeightedGraph(("a", "b"), (("a", "b"),), None),
            "weights must be a mapping, not NoneType",
        ),
        (
            lambda: WeightedGraph(("a", "b"), (("a", "b"),), [(("a", "b"), 1)]),
            "weights must be a mapping, not list",
        ),
    ],
)
def test_constructors_refuse_labels_or_weights_that_are_not_mappings(build, message):
    with pytest.raises(TypeError) as err:
        build()
    assert str(err.value) == message


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


def _outcome(build):
    """What ``build()`` returns, as the graph and its repr, or its refusal's type and message."""
    try:
        g = build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return g, repr(g)


@pytest.mark.parametrize(
    "labels",
    [
        {"c": "1/2", "a": 0, "b": 2},
        [("a", 1), ("b", "3/2"), ("c", 0)],
        {"a": 1, "b": 2},
        {"a": 1, "b": 2, "c": 3, "d": 4},
        {"a": 1, "b": -2, "c": 3},
        {"a": 1, "b": 0.5, "c": 3},
        {"a": 1, "b": True, "c": 3},
        None,
        {"a": 1, "b": 2, "c": 3, 7: 1},
    ],
    ids=["dict", "pairs", "missing", "extra", "negative", "float", "bool", "none", "int-key"],
)
def test_with_labels_checks_labels_as_the_constructor_does(labels):
    # The reference is relabeling by the constructor, on the labels as a dict.
    g = triangle(1, 2, 3)
    expected = _outcome(lambda: LabeledGraph(g.vertices, g.edges, dict(labels)))
    assert _outcome(lambda: g.with_labels(labels)) == expected


def test_relabeling_checks_only_the_labels(monkeypatch):
    posts = []
    post_init = LabeledGraph.__post_init__
    monkeypatch.setattr(LabeledGraph, "__post_init__", lambda g: posts.append(g) or post_init(g))
    g = parse_graph("v a 1\nv b 2\nv c 3\ne c a\ne a b\n")
    h = g.with_labels({"a": 0, "b": 5, "c": 5})
    assert posts == []
    assert h._pairs is g._pairs and h._index is g._index
    assert not {"edges", "_adjacency", "_edge_set"} & vars(h).keys()
    # Views the source has built carry over.
    assert g.neighbors("a") == ("b", "c") and g.has_edge("c", "a") and g.edges
    k = g.with_labels(h.labels)
    assert k._adjacency is g._adjacency and k._edge_set is g._edge_set and k.edges is g.edges
    assert posts == []
    assert k == h == LabeledGraph(g.vertices, g.edges, {"a": 0, "b": 5, "c": 5})


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
        # A duplicate edge is refused before any later bad line.
        ("v a 1\nv b 2\ne a b\ne b a\nv c beef", "duplicate-edge", 4),
        ("v a 1\nv b 2\ne a b\ne b a\nv a 3", "duplicate-edge", 4),
        ("v a 1\nv b 2\ne a b\ne b a\ne a", "duplicate-edge", 4),
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


def test_refusals_quote_a_bounded_token():
    # Up to 64 characters a token or line is quoted in full; past that,
    # its first 64 characters, "…" and its length, so the line stays short.
    full, long = "x" * 64, "x" * 65
    cut = f"{full!r}… (65 characters)"
    for text, message in (
        (f"v a {full}\n", f"malformed label {full!r}"),
        (f"v a {long}\n", f"malformed label {cut}"),
        (f"v a -{'1' * 99}\n", f"negative label '-{'1' * 63}'… (100 characters)"),
        (f"{long}\n", f"unknown directive {cut} in {cut}"),
        (
            f"v a 1 {long}\n",
            f"expected 'v <id> <label>', got 'v a 1 {'x' * 58}'… (71 characters)",
        ),
        (f"v {long} 1\nv {long} 2\n", f"duplicate vertex id {cut}"),
    ):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert str(err.value) == f"line {text.count(chr(10))}: {message}"


def _refusals_naming(x):
    """Calls of the public API that refuse input naming the vertex ``x``."""
    pair = LabeledGraph((x, "b"), ((x, "b"),), {x: 1, "b": 1})
    other = LabeledGraph(("b", "c"), (("b", "c"),), {"b": 1, "c": 1})
    return [
        lambda: LabeledGraph((x, x), (), {x: 1}),
        lambda: LabeledGraph((x,), (), {}),
        lambda: LabeledGraph(("z",), (), {"z": 1, x: 1}),
        lambda: LabeledGraph((x,), (), {x: -1}),
        lambda: LabeledGraph(("z",), (("z", x),), {"z": 1}),
        lambda: LabeledGraph((x,), ((x, x),), {x: 1}),
        lambda: LabeledGraph((x, "b"), ((x, "b"), ("b", x)), {x: 1, "b": 1}),
        lambda: pair.edge_key(x, "q"),
        lambda: WeightedGraph((x, "b", "c"), ((x, "b"),), {(x, "c"): 1}),
        lambda: WeightedGraph((x, "b"), ((x, "b"),), {(x, "b"): 1, ("b", x): 2}),
        lambda: WeightedGraph((x, "b"), ((x, "b"),), {(x, "b"): -1}),
        lambda: WeightedGraph((x, "b"), ((x, "b"),), {}),
        lambda: DistanceMatrix((x, "b"), ((1, 1), (1, 0))).validate(),
        lambda: DistanceMatrix((x, "b"), ((0, 1), (2, 0))).validate(),
        lambda: DistanceMatrix((x, "b"), ((0, -1), (-1, 0))).validate(),
        lambda: DistanceMatrix((x, "b", "c"), ((0, 1, 2), (1, 0, 1), (2, 1, 0))).validate(),
        lambda: is_tree(LabeledGraph((x, "b"), (), {x: 1, "b": 1})),
        lambda: root_levels(other, x),
        lambda: list(enumerate_simple_paths(other, x, "b")),
    ]


def test_refusals_quote_a_bounded_vertex_name():
    # Every refusal that names a vertex quotes it as the reader quotes a
    # token: in full up to 64 characters, its head and length past that.
    for short in ("a", "x" * 64):
        for call in _refusals_naming(short):
            with pytest.raises((ValueError, MatrixInvariantError)) as err:
                call()
            assert repr(short) in str(err.value)
    long = "x" * 1_000_000
    for call in _refusals_naming(long):
        with pytest.raises((ValueError, MatrixInvariantError)) as err:
            call()
        message = str(err.value)
        assert len(message) < 200 and "\n" not in message
        assert "… (1000000 characters)" in message


@pytest.mark.parametrize("end", [5, None, ("x" * 1_000_000,), Fraction(1, 3)])
def test_endpoints_that_are_not_strings_get_one_short_line(end):
    with pytest.raises(ValueError) as err:
        LabeledGraph(("a",), (("a", end),), {"a": 1})
    message = str(err.value)
    assert message.endswith(") has an undeclared endpoint")
    assert len(message) < 200 and "\n" not in message
    if end != ("x" * 1_000_000,):
        assert message == f"edge ('a', {end!r}) has an undeclared endpoint"


@pytest.mark.parametrize(
    "edge",
    [("a",), ("a", "b", "c"), "ab", ("a", ["b"]), ("x" * 1_000_000,)],
    ids=["one", "three", "str", "unhashable", "long"],
)
def test_edges_that_are_not_pairs_get_one_short_line(edge):
    # A string would unpack to its two characters.
    with pytest.raises(ValueError) as err:
        LabeledGraph(("a", "b"), (edge,), {"a": 1, "b": 1})
    message = str(err.value)
    assert message.startswith("edge ") and message.endswith(" is not a pair of vertices")
    assert len(message) < 200
    if len(repr(edge)) < 64:
        assert message == f"edge {edge!r} is not a pair of vertices"


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


# Declarations of a malformed edge line after "v a", "v b", "v c" and a
# comment, with the error it gets in either format.
EDGE_ERRORS = [
    (["a c", "b c", "c a"], ("duplicate-edge", 7, "duplicate edge 'c' 'a'")),
    (["c a", "a c"], ("duplicate-edge", 6, "duplicate edge 'a' 'c'")),
    (["a b", "c b", "a c", "b c"], ("duplicate-edge", 8, "duplicate edge 'b' 'c'")),
    (["z a"], ("undeclared-endpoint", 5, "undeclared endpoint 'z'")),
    (["a c", "c z"], ("undeclared-endpoint", 6, "undeclared endpoint 'z'")),
    (["y z"], ("undeclared-endpoint", 5, "undeclared endpoint 'y'")),
    (["z z"], ("undeclared-endpoint", 5, "undeclared endpoint 'z'")),
    (["a b", "c c"], ("self-loop", 6, "self-loop at 'c'")),
    (["a b", "b a", "c z"], ("duplicate-edge", 6, "duplicate edge 'b' 'a'")),
    (["a b", "b a", "c c"], ("duplicate-edge", 6, "duplicate edge 'b' 'a'")),
]


@pytest.mark.parametrize("edges, expected", EDGE_ERRORS)
@pytest.mark.parametrize(
    "parse, vertex, edge",
    [(parse_graph, "v {} 1", "e {}"), (parse_weighted_graph, "v {}", "e {} 2")],
)
def test_edge_errors_name_the_endpoints_as_written(parse, vertex, edge, edges, expected):
    lines = [*(vertex.format(v) for v in "abc"), "# edges", *(edge.format(e) for e in edges)]
    text = "\n".join(lines) + "\n"
    category, line_no, message = expected
    with pytest.raises(GraphFormatError) as err:
        parse(text)
    assert (err.value.category, err.value.line_no) == (category, line_no)
    assert str(err.value) == f"line {line_no}: {message}"


@st.composite
def graph_documents(draw, weighted=False):
    """A graph document with comments, blank lines, edges in both
    orientations and zero values, and the declarations it makes: the
    vertices, the edges as written, and the labels or, when ``weighted``,
    the weights by edge (vertex labels are then optional and ignored)."""
    n = draw(st.integers(1, 7))
    name = st.from_regex(r"[a-z][a-z0-9_#]{0,3}", fullmatch=True)
    names = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    number = st.sampled_from(("0", "0/3", "1", "1/2", "0.5", "2", "15e-1"))
    labels = [draw(number) for _ in names]
    pairs = draw(st.permutations([p for p in combinations(range(n), 2) if draw(st.booleans())]))
    edges = [
        (names[j], names[i]) if draw(st.booleans()) else (names[i], names[j]) for i, j in pairs
    ]
    if weighted:
        weights = {e: draw(number) for e in edges}
        records = [f"v {v} {x}" if draw(st.booleans()) else f"v {v}" for v, x in zip(names, labels)]
        records += [f"e {u} {v} {weights[u, v]}" for u, v in edges]
    else:
        records = [f"v {v} {x}" for v, x in zip(names, labels)]
        records += [f"e {u} {v}" for u, v in edges]
    lines = []
    for record in records:
        lines += draw(st.lists(st.sampled_from(("", "  ", "# note", " #e a a", "#v z 1"))))
        indent = draw(st.sampled_from(("", " ", "\t")))
        lines.append(indent + record.replace(" ", draw(st.sampled_from((" ", "\t", "  ")))))
    values = weights if weighted else dict(zip(names, labels))
    return "\n".join(lines) + "\n", tuple(names), tuple(edges), values


@given(graph_documents())
def test_parsed_documents_equal_the_constructed_graph(doc):
    text, vertices, edges, labels = doc
    g, h = parse_graph(text), LabeledGraph(vertices, edges, labels)
    assert (g.vertices, g.edges, g.labels, g._pairs) == (h.vertices, h.edges, h.labels, h._pairs)
    assert g.to_text() == h.to_text()
    for u in vertices:
        assert (g.index_of(u), g.neighbors(u), g.degree(u)) == (
            h.index_of(u),
            h.neighbors(u),
            h.degree(u),
        )
        for v in vertices:
            assert g.has_edge(u, v) == h.has_edge(u, v) == ((u, v) in edges or (v, u) in edges)


@given(graph_documents(weighted=True))
def test_parsed_weighted_documents_equal_the_constructed_graph(doc):
    text, vertices, edges, weights = doc
    g, h = parse_weighted_graph(text), WeightedGraph(vertices, edges, weights)
    assert (g.vertices, g.edges, g.weights, g.skeleton._pairs) == (
        h.vertices,
        h.edges,
        h.weights,
        h.skeleton._pairs,
    )
    assert g.skeleton == h.skeleton
    for (u, v), w in weights.items():
        assert g.weight(u, v) == g.weight(v, u) == h.weight(u, v) == Fraction(w)


# Every line break str.splitlines knows: the reader counts lines by them.
_LINE_BREAKS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)


@st.composite
def messy_documents(draw):
    """A graph document of either format, well-formed or a few lines off.

    A well-formed declaration of up to four vertices and some edges gets
    blanks, comments, and some of: a duplicate vertex or edge (either
    way round), a self-loop, an edge moved before its endpoints'
    declarations, a bad label or weight, and a wrong line (an unknown
    directive or a token count off).  Tokens are apart by spaces or
    tabs, and lines by any line break of ``str.splitlines``.
    """
    weighted = draw(st.booleans())
    value = st.sampled_from(("0", "1", "3/2", "15e-1", "2"))
    names = draw(st.permutations("abcd"))[: draw(st.integers(1, 4))]
    records = [
        ["v", v, *([] if weighted and draw(st.booleans()) else [draw(value)])] for v in names
    ]
    for i, j in combinations(range(len(names)), 2):
        if draw(st.booleans()):
            u, v = (names[i], names[j]) if draw(st.booleans()) else (names[j], names[i])
            records.append(["e", u, v, *([draw(value)] if weighted else [])])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("repeat", "self-loop", "early edge", "bad value", "wrong")))
        at = draw(st.integers(0, len(records)))
        if kind == "repeat":
            k = draw(st.integers(0, len(records) - 1))
            head, *ends = records[k]
            if head == "e" and draw(st.booleans()):
                ends[:2] = ends[1::-1]
            records.insert(draw(st.integers(k + 1, len(records))), [head, *ends])
        elif kind == "bad value" and len(records[at - 1]) > 2 + (records[at - 1][0] == "e"):
            records[at - 1][-1] = draw(st.sampled_from(("-1", "1/0", "x", "1_0")))
        elif kind == "self-loop":
            v = draw(st.sampled_from(names))
            records.insert(at, ["e", v, v, *([draw(value)] if weighted else [])])
        elif kind == "early edge" and records[-1][0] == "e":
            records.insert(draw(st.integers(0, len(names) - 1)), records.pop())
        elif kind == "wrong":
            head = draw(st.sampled_from(("v", "e", "frog", "E", "ve")))
            pool = st.sampled_from((*names, "0", "1/2", "-1", "1/0", "x"))
            records.insert(at, [head, *draw(st.lists(pool, max_size=4))])
    for _ in range(draw(st.integers(0, 4))):
        filler = draw(st.sampled_from(([], ["#"], ["#", "note"], ["#e", "a", "a"], ["#v", "z"])))
        records.insert(draw(st.integers(0, len(records))), filler)
    space = st.sampled_from(("", " ", "\t", " \t"))
    lines = []
    for tokens in records:
        sep = draw(st.sampled_from((" ", "\t", "  ", " \t ")))
        lines.append(draw(space) + sep.join(tokens) + draw(space))
        lines.append(draw(st.sampled_from(_LINE_BREAKS)))
    if draw(st.booleans()):
        lines.pop()  # no break after the last line
    return "".join(lines)


def _reading(read, text, shapes):
    """The dicts ``read`` returns, as item lists to keep their order, or its refusal."""
    try:
        return [list(records.items()) for records in read(text, shapes)]
    except GraphFormatError as err:
        return (err.line_no, err.category, str(err))


@settings(max_examples=400)
@given(messy_documents())
def test_reader_matches_the_reference_reader(text):
    for shapes in (_LABELED_RECORDS, _WEIGHTED_RECORDS):
        assert _reading(_read_records, text, shapes) == _reading(
            oracles.reference_read_records, text, shapes
        )


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


def test_a_path_as_long_as_the_graph_is_found():
    # The walk keeps its own stack: 3,000 vertices is far past the
    # interpreter's recursion limit, which a recursive walk hit.
    n = 3000
    names = tuple(f"x{i}" for i in range(n))
    g = LabeledGraph(names, tuple(zip(names, names[1:])), dict.fromkeys(names, 1))
    assert list(enumerate_simple_paths(g, names[0], names[-1])) == [names]


@given(connected_graphs(max_n=7))
def test_walks_match_the_recursive_references(g):
    # The same paths and cycles, in the same order, as the recursive walks.
    assert list(enumerate_cycles(g)) == list(oracles.reference_cycles(g))
    for x in g.vertices:
        for y in g.vertices:
            if x != y:
                paths = list(enumerate_simple_paths(g, x, y))
                assert paths == list(oracles.reference_simple_paths(g, x, y))


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


def _decoded(decode, seq, n):
    """The edges ``decode`` gives, or the type and message of its refusal."""
    try:
        return decode(seq, n)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(0, 8))
def test_pruefer_decoding_matches_the_reference_on_every_sequence(n):
    seqs = [(), (0,), (n,), (-1,), (0,) * n] + list(product(range(n), repeat=max(n - 2, 0)))
    for seq in seqs:
        assert _decoded(tree_from_pruefer, seq, n) == _decoded(
            oracles.reference_tree_from_pruefer, seq, n
        )


@given(st.data())
def test_pruefer_decoding_matches_the_reference(data):
    n = data.draw(st.integers(2, 300))
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    assert tree_from_pruefer(seq, n) == oracles.reference_tree_from_pruefer(seq, n)


def test_pruefer_decoding_of_a_long_sequence():
    # The reference's scan for the least leaf would take minutes here.
    n = 100_000
    seq = [(i * 7919) % (n // 3) for i in range(n - 2)]
    edges = tree_from_pruefer(seq, n)
    degree, count = [0] * n, [0] * n
    for i, j in edges:
        assert i < j
        degree[i] += 1
        degree[j] += 1
    for s in seq:
        count[s] += 1
    # A vertex's degree is one more than the times it occurs in the sequence.
    assert degree == [c + 1 for c in count]
    index = {str(i): i for i in range(n)}
    assert is_tree(LabeledGraph._checked(index, edges, dict.fromkeys(index, Fraction(0))))


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


def test_enumerated_trees_equal_the_constructed_trees(monkeypatch):
    posts = []
    post_init = LabeledGraph.__post_init__
    monkeypatch.setattr(LabeledGraph, "__post_init__", lambda g: posts.append(g) or post_init(g))
    enumerated = {n: list(enumerate_trees(n)) for n in range(1, 7)}
    assert posts == []
    for n, trees in enumerated.items():
        names = tuple(str(i + 1) for i in range(n))
        seqs = product(range(n), repeat=max(n - 2, 0))
        edge_sets = [tree_from_pruefer(seq, n) for seq in seqs] if n > 1 else [()]
        expected = [
            LabeledGraph(names, [(names[i], names[j]) for i, j in pairs], dict.fromkeys(names, 0))
            for pairs in edge_sets
        ]
        assert [(t, repr(t)) for t in trees] == [(e, repr(e)) for e in expected]
        # Each tree has a labels dict of its own.
        assert len({id(t.labels) for t in trees}) == len(trees)


def test_tree_enumeration_needs_a_vertex():
    with pytest.raises(ValueError, match="^need at least one vertex$"):
        next(enumerate_trees(0))


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
