"""Seeded input generators and the facts the benchmark checks without goldens.

Everything here is independent of ``ultragraph``: graphs are built and
judged with plain Python so that a bug in the package cannot vouch for
itself.  The same ``random.Random`` seed always gives the same graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Graph:
    kind: str
    names: tuple[str, ...]
    labels: tuple[Fraction, ...]
    edges: tuple[tuple[int, int], ...]

    def text(self) -> str:
        lines = [f"v {v} {q}" for v, q in zip(self.names, self.labels)]
        lines.extend(f"e {self.names[i]} {self.names[j]}" for i, j in self.edges)
        return "\n".join(lines) + "\n"

    def is_tree(self) -> bool:
        return len(self.edges) == len(self.names) - 1

    def distinct_edge_weights(self) -> bool:
        """On a tree, the GH verdict: edge weights ``max(l(u), l(v))`` all differ."""
        weights = [max(self.labels[i], self.labels[j]) for i, j in self.edges]
        return len(set(weights)) == len(weights)

    def degenerate(self) -> bool:
        """Some edge joins two zero labels, so two points are at distance 0."""
        return any(self.labels[i] == 0 and self.labels[j] == 0 for i, j in self.edges)


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def _distinct_rationals(rng: random.Random, k: int) -> list[Fraction]:
    values: set[Fraction] = set()
    while len(values) < k:
        values.add(Fraction(rng.randint(1, 10**6), rng.randint(1, 97)))
    return sorted(values)


def _random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform labeled tree by decoding a random Pruefer sequence."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (i for i in range(n) if degree[i] == 1)
    edges.append((u, v))
    return edges


def path(rng: random.Random, n: int) -> Graph:
    """Ascending labels along the path: GH, with a depth n-1 caterpillar dendrogram."""
    return Graph("path", _names(n), tuple(_distinct_rationals(rng, n)),
                 tuple((i, i + 1) for i in range(n - 1)))


def star(rng: random.Random, n: int, gh: bool) -> Graph:
    """Centre 0.  A lowest centre label gives GH; a highest one gives one n-way merge."""
    values = _distinct_rationals(rng, n)
    centre = values.pop(0) if gh else values.pop()
    rng.shuffle(values)
    return Graph("star", _names(n), (centre, *values), tuple((0, i) for i in range(1, n)))


def tree(rng: random.Random, n: int, gh: bool) -> Graph:
    """Random tree.  ``gh`` labels it by BFS level from a random root, which
    makes every edge weight the label of its deeper end, hence distinct;
    otherwise labels come from a small pool and usually collide."""
    edges = _random_tree_edges(rng, n)
    if gh:
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in edges:
            adj[i].append(j)
            adj[j].append(i)
        root = rng.randrange(n)
        order, seen = [root], {root}
        for u in order:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        labels = [Fraction(0)] * n
        for v, q in zip(order, _distinct_rationals(rng, n)):
            labels[v] = q
    else:
        labels = [Fraction(rng.randint(1, 6)) for _ in range(n)]
    return Graph("tree", _names(n), tuple(labels), tuple(edges))


def sparse(rng: random.Random, n: int) -> Graph:
    """About 3n edges, a quarter of the labels 0 and at least one 0-0 edge:
    the pseudoultrametric branch, reported with ``quotient``."""
    edges = set(_random_tree_edges(rng, n))
    while len(edges) < 3 * n:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((i, j))
    zeros = rng.sample(range(n), n // 4)
    a, b = sorted(zeros[:2])
    edges.add((a, b))
    positive = iter(_distinct_rationals(rng, n))
    labels = tuple(Fraction(0) if v in zeros else next(positive) for v in range(n))
    return Graph("sparse", _names(n), labels, tuple(sorted(edges)))


def dense(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p) made connected, with mostly distinct rational labels."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    extra = [(0, r) for r in range(1, n) if find(r) == r and find(0) != r]
    for e in extra:
        parent[find(e[1])] = find(0)
    labels = tuple(Fraction(rng.randint(1, 10**6), rng.randint(1, 97)) for _ in range(n))
    return Graph("dense", _names(n), labels, tuple(edges + extra))


def report_corpus(seed: int, n: int, per_shape: int) -> list[Graph]:
    """Equal shares of four shapes, interleaved so any prefix stays balanced."""
    rng = random.Random(f"report:{seed}")
    corpus = []
    for k in range(per_shape):
        corpus += [path(rng, n), star(rng, n, gh=k % 2 == 0),
                   tree(rng, n, gh=k % 2 == 0), sparse(rng, n)]
    return corpus


def dense_corpus(seed: int, n: int, p: float, count: int) -> list[Graph]:
    rng = random.Random(f"dense:{seed}")
    return [dense(rng, n, p) for _ in range(count)]
