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
