"""Slow reference implementations, written independently of the package.

Everything here prefers bluntness over cleverness: permutations instead
of graph traversals, exhaustive search instead of canonical forms.
These are the second routes that the fast code is judged against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from ultragraph import DistanceMatrix, LabeledGraph, WeightedGraph


def path_enumeration_distances(g: LabeledGraph) -> dict[tuple[int, int], Fraction | None]:
    """Min-over-paths of max label, by trying every vertex sequence.

    Keys are index pairs ``(i, j)`` with ``i < j``; the value is ``None``
    when no path joins the pair.
    """
    names = g.vertices
    n = len(names)
    index = {v: k for k, v in enumerate(names)}
    adjacent = [set() for _ in range(n)]
    for u, v in g.edges:
        adjacent[index[u]].add(index[v])
        adjacent[index[v]].add(index[u])
    label = [g.labels[v] for v in names]

    out: dict[tuple[int, int], Fraction | None] = {}
    for i in range(n):
        for j in range(i + 1, n):
            others = [k for k in range(n) if k != i and k != j]
            best: Fraction | None = None
            for size in range(0, n - 1):
                for middle in permutations(others, size):
                    seq = (i, *middle, j)
                    if any(seq[t + 1] not in adjacent[seq[t]] for t in range(len(seq) - 1)):
                        continue
                    peak = max(label[k] for k in seq)
                    if best is None or peak < best:
                        best = peak
            out[(i, j)] = best
    return out


def edge_route_distances(g: LabeledGraph) -> dict[tuple[int, int], Fraction | None]:
    """Same enumeration as above, but scoring paths by their largest edge
    weight ``max(l(u), l(v))`` instead of their largest vertex label."""
    names = g.vertices
    n = len(names)
    index = {v: k for k, v in enumerate(names)}
    adjacent = [set() for _ in range(n)]
    for u, v in g.edges:
        adjacent[index[u]].add(index[v])
        adjacent[index[v]].add(index[u])
    label = [g.labels[v] for v in names]

    out: dict[tuple[int, int], Fraction | None] = {}
    for i in range(n):
        for j in range(i + 1, n):
            others = [k for k in range(n) if k != i and k != j]
            best: Fraction | None = None
            for size in range(0, n - 1):
                for middle in permutations(others, size):
                    seq = (i, *middle, j)
                    if any(seq[t + 1] not in adjacent[seq[t]] for t in range(len(seq) - 1)):
                        continue
                    peak = max(
                        max(label[seq[t]], label[seq[t + 1]])
                        for t in range(len(seq) - 1)
                    )
                    if best is None or peak < best:
                        best = peak
            out[(i, j)] = best
    return out


def fraction_sorted_minimax(wg: WeightedGraph) -> list[list[Fraction]]:
    """Minimax path distances for explicit weights, as rows in vertex order.

    Kruskal over the edges sorted by their Fraction weights: when an edge
    first joins two components, every pair across them gets its weight.
    Components are plain sets, merged by copying.
    """
    names = wg.vertices
    n = len(names)
    index = {v: k for k, v in enumerate(names)}
    rows: list[list[Fraction | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(0)
    component = [{i} for i in range(n)]
    for (u, v), w in sorted(wg.weights.items(), key=lambda item: item[1]):
        a, b = component[index[u]], component[index[v]]
        if a is b:
            continue
        for x in a:
            for y in b:
                rows[x][y] = rows[y][x] = w
        merged = a | b
        for x in merged:
            component[x] = merged
    return rows


def bijection_isometric(dm1: DistanceMatrix, dm2: DistanceMatrix) -> bool:
    """Exhaustive search for a distance-preserving bijection.

    Candidates are narrowed by each point's multiset of distances (an
    isometry must preserve it), then extended one point at a time with
    backtracking.
    """
    n = len(dm1.vertices)
    if n != len(dm2.vertices):
        return False
    a = dm1.entries
    b = dm2.entries
    sig_a = [tuple(sorted(row)) for row in a]
    sig_b = [tuple(sorted(row)) for row in b]

    used = [False] * n
    assigned = [0] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        row = a[i]
        for j in range(n):
            if used[j] or sig_a[i] != sig_b[j]:
                continue
            brow = b[j]
            if all(row[k] == brow[assigned[k]] for k in range(i)):
                used[j] = True
                assigned[i] = j
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return extend(0)


def strong_triangle_violation(dm: DistanceMatrix) -> tuple[str, str, str] | None:
    """First triple ``(x, y, z)`` with ``d(x,y) > max(d(x,z), d(z,y))``.

    Tries every triple, in O(n^3); ``None`` when the strong triangle
    inequality holds throughout.
    """
    n = len(dm.vertices)
    m = dm.entries
    for i in range(n):
        for j in range(i + 1, n):
            dij = m[i][j]
            for k in range(n):
                if dij > m[i][k] and dij > m[k][j]:
                    return dm.vertices[i], dm.vertices[j], dm.vertices[k]
    return None


def cycle_vertex_sets(g: LabeledGraph) -> set[tuple[str, ...]]:
    """Every cycle subgraph, found by checking vertex-subset orderings.

    Each cycle is returned once: anchored at its least-index vertex,
    with the orientation fixed by requiring the second vertex to precede
    the last.
    """
    names = g.vertices
    n = len(names)
    index = {v: k for k, v in enumerate(names)}
    eset = set()
    for u, v in g.edges:
        eset.add((index[u], index[v]))
        eset.add((index[v], index[u]))

    found: set[tuple[str, ...]] = set()
    for size in range(3, n + 1):
        for subset in combinations(range(n), size):
            anchor = subset[0]
            for middle in permutations(subset[1:]):
                if middle[0] > middle[-1]:
                    continue
                seq = (anchor, *middle)
                if all(
                    (seq[t], seq[(t + 1) % size]) in eset for t in range(size)
                ):
                    found.add(tuple(names[k] for k in seq))
    return found


def cycle_criterion_realizable(wg: WeightedGraph) -> bool:
    """Realizability via cycles: each cycle hits its max weight twice."""
    for cycle in cycle_vertex_sets(wg.skeleton):
        weights = [
            wg.weight(cycle[t], cycle[(t + 1) % len(cycle)])
            for t in range(len(cycle))
        ]
        if weights.count(max(weights)) < 2:
            return False
    return True


def is_valid_spanning_tree(g: LabeledGraph, t: LabeledGraph) -> bool:
    """Spanning-tree oracle: right vertex set, right size, connected subgraph."""
    if t.vertices != g.vertices:
        return False
    if len(t.edges) != len(g.vertices) - 1:
        return False
    if not set(t.edges) <= set(g.edges):
        return False
    # plain reachability over the candidate's edges
    adjacent: dict[str, list[str]] = {v: [] for v in t.vertices}
    for u, v in t.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen = {t.vertices[0]}
    stack = [t.vertices[0]]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(t.vertices)


def trees_by_edge_subsets(n: int) -> set[frozenset[tuple[int, int]]]:
    """All labeled trees on ``range(n)`` by filtering edge subsets."""
    if n == 1:
        return {frozenset()}
    pairs = list(combinations(range(n), 2))
    out: set[frozenset[tuple[int, int]]] = set()
    for subset in combinations(pairs, n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        components = n
        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
            components -= 1
        if ok and components == 1:
            out.add(frozenset(subset))
    return out


def connected_edge_subsets(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every edge subset of the complete graph on ``range(n)`` that is connected."""
    pairs = list(combinations(range(n), 2))
    out: list[tuple[tuple[int, int], ...]] = []
    for mask in range(1 << len(pairs)):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        components = n
        edges = []
        for k, (u, v) in enumerate(pairs):
            if mask >> k & 1:
                edges.append((u, v))
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    components -= 1
        if components == 1:
            out.append(tuple(edges))
    return out
