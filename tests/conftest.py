"""Shared strategies and small named graphs for the test suite."""

from __future__ import annotations

import string
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ultragraph import LabeledGraph, tree_from_pruefer

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Zero included: degenerate labelings must show up in the corpus.
LABEL_POOL = tuple(Fraction(x) for x in (0, Fraction(1, 2), 1, 2, 3))
POSITIVE_POOL = tuple(Fraction(x) for x in (Fraction(1, 2), 1, 2, 3, 5))


def names_for(n: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:n])


def graph_on(n: int, index_edges, labels) -> LabeledGraph:
    names = names_for(n)
    return LabeledGraph(
        names,
        tuple((names[i], names[j]) for i, j in index_edges),
        dict(zip(names, labels)),
    )


def path_graph(*labels) -> LabeledGraph:
    n = len(labels)
    return graph_on(n, [(i, i + 1) for i in range(n - 1)], labels)


def star_graph(center_label, *leaf_labels) -> LabeledGraph:
    n = 1 + len(leaf_labels)
    return graph_on(n, [(0, i) for i in range(1, n)], (center_label, *leaf_labels))


def triangle(*labels) -> LabeledGraph:
    assert len(labels) == 3
    return graph_on(3, [(0, 1), (1, 2), (0, 2)], labels)


def figure_truncation() -> LabeledGraph:
    """Two zero-labeled hubs joined through two positive middle vertices."""
    return LabeledGraph(
        ("x", "y", "z1", "z2"),
        (("x", "z1"), ("x", "z2"), ("y", "z1"), ("y", "z2")),
        {"x": 0, "y": 0, "z1": 1, "z2": Fraction(1, 2)},
    )


@st.composite
def connected_graphs(draw, min_n=1, max_n=6, pool=LABEL_POOL, extra_edges=True):
    """Random connected labeled graph: a Pruefer tree plus optional extra edges."""
    n = draw(st.integers(min_n, max_n))
    if n >= 3:
        seq = tuple(draw(st.integers(0, n - 1)) for _ in range(n - 2))
        edges = list(tree_from_pruefer(seq, n))
    elif n == 2:
        edges = [(0, 1)]
    else:
        edges = []
    if extra_edges and n >= 3:
        present = set(edges)
        absent = [e for e in combinations(range(n), 2) if e not in present]
        for e in absent:
            if draw(st.booleans()):
                edges.append(e)
    labels = tuple(draw(st.sampled_from(pool)) for _ in range(n))
    return graph_on(n, edges, labels)


def labeled_trees(min_n=2, max_n=6, pool=POSITIVE_POOL):
    return connected_graphs(min_n=min_n, max_n=max_n, pool=pool, extra_edges=False)


@contextmanager
def recursion_headroom(frames: int):
    """Lower the recursion limit to ``frames`` above the current depth."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# Graph documents run through both parsers, with each parser's outcome:
# ``None`` when the document parses, else ``(category, line_no, message)``
# of the GraphFormatError.  Covers every error category, every usage
# string, either undeclared end, and the order in which the checks fire.
PARSE_CASES = (
    (
        "frog a 1\n",
        ("malformed-line", 1, "unknown directive 'frog' in 'frog a 1'"),
        ("malformed-line", 1, "unknown directive 'frog' in 'frog a 1'"),
    ),
    (
        "V a 1\n",
        ("malformed-line", 1, "unknown directive 'V' in 'V a 1'"),
        ("malformed-line", 1, "unknown directive 'V' in 'V a 1'"),
    ),
    (
        "v a\n",
        ("malformed-line", 1, "expected 'v <id> <label>', got 'v a'"),
        None,
    ),
    (
        "v a 1 9\n",
        ("malformed-line", 1, "expected 'v <id> <label>', got 'v a 1 9'"),
        ("malformed-line", 1, "expected 'v <id> [label]', got 'v a 1 9'"),
    ),
    (
        "v a x y\n",
        ("malformed-line", 1, "expected 'v <id> <label>', got 'v a x y'"),
        ("malformed-line", 1, "expected 'v <id> [label]', got 'v a x y'"),
    ),
    (
        "v a 1\nv b 2\ne a b\n",
        None,
        ("malformed-line", 3, "expected 'e <id> <id> <weight>', got 'e a b'"),
    ),
    (
        "v a 1\nv b 2\ne a b 3\n",
        ("malformed-line", 3, "expected 'e <id> <id>', got 'e a b 3'"),
        None,
    ),
    (
        "v a 1\nv b 2\ne a b 3 4\n",
        ("malformed-line", 3, "expected 'e <id> <id>', got 'e a b 3 4'"),
        ("malformed-line", 3, "expected 'e <id> <id> <weight>', got 'e a b 3 4'"),
    ),
    (
        "v a 1\ne a\n",
        ("malformed-line", 2, "expected 'e <id> <id>', got 'e a'"),
        ("malformed-line", 2, "expected 'e <id> <id> <weight>', got 'e a'"),
    ),
    (
        "v a -1\n",
        ("bad-label", 1, "negative label '-1'"),
        ("bad-label", 1, "negative label '-1'"),
    ),
    (
        "v a beef\n",
        ("bad-label", 1, "malformed label 'beef'"),
        ("bad-label", 1, "malformed label 'beef'"),
    ),
    (
        "v a 1/0\n",
        ("bad-label", 1, "malformed label '1/0'"),
        ("bad-label", 1, "malformed label '1/0'"),
    ),
    (
        "v a 1\nv a beef\n",
        ("duplicate-vertex", 2, "duplicate vertex id 'a'"),
        ("duplicate-vertex", 2, "duplicate vertex id 'a'"),
    ),
    (
        "v a\nv b\ne a b pork\n",
        ("malformed-line", 1, "expected 'v <id> <label>', got 'v a'"),
        ("bad-weight", 3, "malformed weight 'pork'"),
    ),
    (
        "v a 1\nv b 1\ne a b -1\n",
        ("malformed-line", 3, "expected 'e <id> <id>', got 'e a b -1'"),
        ("bad-weight", 3, "negative weight '-1'"),
    ),
    (
        "v a 1\nv b 1\ne a b 1/0\n",
        ("malformed-line", 3, "expected 'e <id> <id>', got 'e a b 1/0'"),
        ("bad-weight", 3, "malformed weight '1/0'"),
    ),
    (
        "v a 1\nv a 2\n",
        ("duplicate-vertex", 2, "duplicate vertex id 'a'"),
        ("duplicate-vertex", 2, "duplicate vertex id 'a'"),
    ),
    (
        "# c\n\n  v a 1\n\t\nv a 2\n",
        ("duplicate-vertex", 5, "duplicate vertex id 'a'"),
        ("duplicate-vertex", 5, "duplicate vertex id 'a'"),
    ),
    (
        "v a 1\x0cv a 2\n",
        ("duplicate-vertex", 2, "duplicate vertex id 'a'"),
        ("duplicate-vertex", 2, "duplicate vertex id 'a'"),
    ),
    (
        "v a 1\r\nv a 2\r\n",
        ("duplicate-vertex", 2, "duplicate vertex id 'a'"),
        ("duplicate-vertex", 2, "duplicate vertex id 'a'"),
    ),
    (
        "e a b\n",
        ("undeclared-endpoint", 1, "undeclared endpoint 'a'"),
        ("malformed-line", 1, "expected 'e <id> <id> <weight>', got 'e a b'"),
    ),
    (
        "e a b 1\n",
        ("malformed-line", 1, "expected 'e <id> <id>', got 'e a b 1'"),
        ("undeclared-endpoint", 1, "undeclared endpoint 'a'"),
    ),
    (
        "v a 1\ne a b\n",
        ("undeclared-endpoint", 2, "undeclared endpoint 'b'"),
        ("malformed-line", 2, "expected 'e <id> <id> <weight>', got 'e a b'"),
    ),
    (
        "v a 1\ne a b 1\n",
        ("malformed-line", 2, "expected 'e <id> <id>', got 'e a b 1'"),
        ("undeclared-endpoint", 2, "undeclared endpoint 'b'"),
    ),
    (
        "v a 1\ne b a\n",
        ("undeclared-endpoint", 2, "undeclared endpoint 'b'"),
        ("malformed-line", 2, "expected 'e <id> <id> <weight>', got 'e b a'"),
    ),
    (
        "v a 1\ne a a\n",
        ("self-loop", 2, "self-loop at 'a'"),
        ("malformed-line", 2, "expected 'e <id> <id> <weight>', got 'e a a'"),
    ),
    (
        "v a 1\ne a a 2\n",
        ("malformed-line", 2, "expected 'e <id> <id>', got 'e a a 2'"),
        ("self-loop", 2, "self-loop at 'a'"),
    ),
    (
        "v a 1\ne a a beef\n",
        ("malformed-line", 2, "expected 'e <id> <id>', got 'e a a beef'"),
        ("self-loop", 2, "self-loop at 'a'"),
    ),
    (
        "v a 1\nv b 2\ne a b\ne b a\n",
        ("duplicate-edge", 4, "duplicate edge 'b' 'a'"),
        ("malformed-line", 3, "expected 'e <id> <id> <weight>', got 'e a b'"),
    ),
    (
        "v a 1\nv b 2\ne a b 1\ne b a 1\n",
        ("malformed-line", 3, "expected 'e <id> <id>', got 'e a b 1'"),
        ("duplicate-edge", 4, "duplicate edge 'b' 'a'"),
    ),
    (
        "v a 1\nv b 2\ne a b\ne a b\n",
        ("duplicate-edge", 4, "duplicate edge 'a' 'b'"),
        ("malformed-line", 3, "expected 'e <id> <id> <weight>', got 'e a b'"),
    ),
    (
        "v a 1\nv b 2\ne a b 1\ne a b 2\n",
        ("malformed-line", 3, "expected 'e <id> <id>', got 'e a b 1'"),
        ("duplicate-edge", 4, "duplicate edge 'a' 'b'"),
    ),
    (
        "v a 1\nv b 2\ne a b 1\ne b a beef\n",
        ("malformed-line", 3, "expected 'e <id> <id>', got 'e a b 1'"),
        ("duplicate-edge", 4, "duplicate edge 'b' 'a'"),
    ),
    (
        "",
        ("empty-graph", 0, "no vertices declared"),
        ("empty-graph", 0, "no vertices declared"),
    ),
    (
        "# only a comment\n\n   \n",
        ("empty-graph", 0, "no vertices declared"),
        ("empty-graph", 0, "no vertices declared"),
    ),
    (
        "v\ta\t1\n  v  b   3/2\n# e a a\ne\ta b\n",
        None,
        ("malformed-line", 4, "expected 'e <id> <id> <weight>', got 'e\\ta b'"),
    ),
    (
        "v a 1.5e1\nv b 2\ne b a\n",
        None,
        ("malformed-line", 3, "expected 'e <id> <id> <weight>', got 'e b a'"),
    ),
    (
        "v a 1e3\nv b\ne a b 25e-1\n",
        ("malformed-line", 2, "expected 'v <id> <label>', got 'v b'"),
        None,
    ),
    (
        "#v a 1\nv a 1\n#e a a\n",
        None,
        None,
    ),
    (
        "v a 1\nv b beef\n",
        ("bad-label", 2, "malformed label 'beef'"),
        ("bad-label", 2, "malformed label 'beef'"),
    ),
    (
        "v a\nv b\ne a b 1\ne b a pork\n",
        ("malformed-line", 1, "expected 'v <id> <label>', got 'v a'"),
        ("duplicate-edge", 4, "duplicate edge 'b' 'a'"),
    ),
)
