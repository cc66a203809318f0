"""Slow reference implementations, written independently of the package.

Everything here prefers bluntness over cleverness: permutations instead
of graph traversals, exhaustive search instead of canonical forms.
These are the second routes that the fast code is judged against.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Iterator

from ultragraph import (
    EXHAUSTIVE,
    PSEUDOULTRAMETRIC,
    ULTRAMETRIC,
    DistanceMatrix,
    InternalCheckError,
    LabeledGraph,
    Leaf,
    MatrixInvariantError,
    Merge,
    NotUltrametricError,
    WeightedGraph,
    canonical_form,
    dendrogram,
    distance_matrix,
    distance_set,
    is_gh,
    is_tree,
    rho_w,
)
from ultragraph.analysis import _tree_criteria
from ultragraph.dendrograms import LEAF_MARK, Node
from ultragraph.explore import _pruefer_block
from ultragraph.graphs import GraphFormatError, _parse_rational, _quoted


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


def reference_simple_paths(g: LabeledGraph, x: str, y: str) -> Iterator[tuple[str, ...]]:
    """``enumerate_simple_paths`` as a recursive walk, as it was before its explicit stack.

    Kept as the reference of the package's walk: the same paths in the
    same order.  Recurses once per path vertex, so only short paths.
    """
    path = [x]
    on_path = {x}

    def walk(u: str) -> Iterator[tuple[str, ...]]:
        for w in g.neighbors(u):
            if w == y:
                yield tuple(path) + (y,)
            elif w not in on_path:
                path.append(w)
                on_path.add(w)
                yield from walk(w)
                path.pop()
                on_path.remove(w)

    yield from walk(x)


def reference_cycles(g: LabeledGraph) -> Iterator[tuple[str, ...]]:
    """``enumerate_cycles`` as a recursive walk, as it was before its explicit stack.

    Kept as the reference of the package's walk: the same cycles in the
    same order, each from its least-index vertex, with the second vertex
    before the last.
    """
    index = {v: k for k, v in enumerate(g.vertices)}
    path: list[str] = []
    on_path: set[str] = set()

    def walk(start: str, u: str) -> Iterator[tuple[str, ...]]:
        for w in g.neighbors(u):
            if w == start and len(path) >= 3:
                if index[path[1]] < index[path[-1]]:
                    yield tuple(path)
            elif index[w] > index[start] and w not in on_path:
                path.append(w)
                on_path.add(w)
                yield from walk(start, w)
                path.pop()
                on_path.remove(w)

    for start in g.vertices:
        path = [start]
        on_path = {start}
        yield from walk(start, start)


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


def matrix_realizability(wg: WeightedGraph) -> tuple:
    """Realizability read off the full minimax matrix: the first edge, in
    declaration order, whose entry is below its weight, with that entry."""
    rho = rho_w(wg)
    for u, v in wg.edges:
        shortcut = rho.get(u, v)
        if shortcut != wg.weights[(u, v)]:
            return (False, (u, v), shortcut)
    return (True, None, None)


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


def reference_tree_from_pruefer(seq, n: int) -> tuple[tuple[int, int], ...]:
    """The Pruefer decoder as it was before its heap of leaves.

    Kept verbatim as the reference of ``graphs.tree_from_pruefer``: each
    step scans every vertex for the least leaf, so it is quadratic.
    """
    if n < 2:
        raise ValueError("a Pruefer sequence encodes a tree on at least 2 vertices")
    if len(seq) != n - 2:
        raise ValueError(f"sequence for {n} vertices must have length {n - 2}")
    degree = [1] * n
    for s in seq:
        if not 0 <= s < n:
            raise ValueError(f"Pruefer symbol {s!r} is not in range({n})")
        degree[s] += 1
    edges: list[tuple[int, int]] = []
    for s in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, s) if leaf < s else (s, leaf))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = (i for i in range(n) if degree[i] == 1)
    edges.append((u, v))
    return tuple(edges)


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


# -- small facts that only the tests use ----------------------------------


def degree_sum_identity(g: LabeledGraph) -> bool:
    """Check the handshake identity: the degree total equals ``2 |E|``."""
    return sum(g.degree(v) for v in g.vertices) == 2 * len(g.edges)


def adjacent_distance(g: LabeledGraph, u: str, v: str) -> Fraction:
    """Distance across an edge, which is just ``max(l(u), l(v))``.

    No path can beat the direct edge: every path from ``u`` already
    carries ``l(u)`` and ``l(v)`` is a lower bound on the last hop.
    """
    if not g.has_edge(u, v):
        raise ValueError(f"({u!r}, {v!r}) is not an edge")
    return max(g.labels[u], g.labels[v])


def cophenetic_distances(node: Node) -> dict[frozenset[str], Fraction]:
    """Pairwise merge heights; inverts :func:`dendrogram` for tests."""
    dists: dict[frozenset[str], Fraction] = {}
    done: list[list[str]] = []
    stack: list[tuple[Node, bool]] = [(node, False)]
    while stack:
        item, expanded = stack.pop()
        if isinstance(item, Leaf):
            done.append([item.vertex])
        elif not expanded:
            stack.append((item, True))
            stack.extend((child, False) for child in reversed(item.children))
        else:
            k = len(item.children)
            blocks = done[-k:]
            del done[-k:]
            for i in range(k):
                for j in range(i + 1, k):
                    for x in blocks[i]:
                        for y in blocks[j]:
                            dists[frozenset((x, y))] = item.height
            done.append([x for block in blocks for x in block])
    return dists


# -- dendrogram readers, each with its own stack ------------------------------
#
# The readers as they were before one post-order walk served them all.
# The canonical form builds every subtree's whole string.


def reference_canonical_form(node: Node) -> str:
    """Canonical string with each merge's children rendered, then sorted."""
    done: list[str] = []
    stack: list[tuple[Node, bool]] = [(node, False)]
    while stack:
        item, expanded = stack.pop()
        if isinstance(item, Leaf):
            done.append(LEAF_MARK)
        elif not expanded:
            stack.append((item, True))
            stack.extend((child, False) for child in item.children)
        else:
            k = len(item.children)
            parts = sorted(done[-k:])
            del done[-k:]
            done.append("(" + str(item.height) + "".join(parts) + ")")
    return done[0]


def reference_leaves(node: Node) -> Iterator[str]:
    """Leaf vertices, left to right."""
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, Leaf):
            yield item.vertex
        else:
            stack.extend(reversed(item.children))


def reference_to_json_dict(node: Node) -> dict:
    """The JSON document of a tree, filled in from the root down."""
    root: dict = {}
    stack: list[tuple[Node, dict]] = [(node, root)]
    while stack:
        item, doc = stack.pop()
        if isinstance(item, Leaf):
            doc["leaf"] = item.vertex
        else:
            doc["height"] = str(item.height)
            doc["children"] = kids = [{} for _ in item.children]
            stack.extend(zip(item.children, kids))
    return root



@dataclass(frozen=True)
class GeneratedMerge:
    """``Merge`` with the dataclass-generated, recursive ``==``, ``hash`` and ``repr``."""

    # The generated repr names the class by its qualified name.
    __qualname__ = "Merge"

    height: Fraction
    children: tuple


def generated_twin(node: Node):
    """``node`` rebuilt from :class:`GeneratedMerge` nodes, by recursion."""
    if isinstance(node, Leaf):
        return node
    return GeneratedMerge(node.height, tuple(generated_twin(child) for child in node.children))


def bucket_by_distance_set(
    spaces: Iterable[DistanceMatrix],
) -> dict[tuple[Fraction, ...], list[DistanceMatrix]]:
    """Group GH spaces by their distance set, preserving input order."""
    buckets: dict[tuple[Fraction, ...], list[DistanceMatrix]] = {}
    for dm in spaces:
        if not is_gh(dm):
            raise ValueError("bucket_by_distance_set expects GH spaces only")
        buckets.setdefault(distance_set(dm), []).append(dm)
    return buckets


# -- the matrix routes on Fraction entries ----------------------------------
#
# DistanceMatrix checks, distance sets, quotients and dendrograms as they
# ran before matrices carried integer ranks: every comparison, sort and
# hash is on the Fraction entries themselves.  Messages and tie-breaks
# are kept, so the rank route must match them exactly.


_ZERO = Fraction(0)


def reference_ranks(values) -> tuple[list[int], list[Fraction]]:
    """``metrics._ranks`` by sorting and hashing the Fractions themselves."""
    ordered = sorted(set(values).union((_ZERO,)))
    zero = ordered.index(_ZERO)
    rank_of = {q: r - zero for r, q in enumerate(ordered)}
    return [rank_of[q] for q in values], ordered[zero:] + ordered[:zero]


def _fraction_sweep(n: int, pairs):
    """Union-find sweep yielding ``(w, a, b)`` as clusters first meet."""
    root = list(range(n))
    members = [[i] for i in range(n)]
    for w, i, j in pairs:
        a, b = members[root[i]], members[root[j]]
        if a is b:
            continue
        if len(a) < len(b):
            a, b = b, a
        yield w, a, b
        for x in b:
            root[x] = a[0]
        a.extend(b)


def _fraction_sorted_pairs(m) -> list[tuple[Fraction, int, int]]:
    n = len(m)
    pairs = [(row[j], i, j) for i, row in enumerate(m) for j in range(i + 1, n)]
    pairs.sort()
    return pairs


def _fraction_leaf_order(n: int, pairs) -> tuple[list[int], list[Fraction]]:
    """The leaf order of a sweep over sorted ``(w, i, j)`` pairs, with the
    Fraction gap after each point but the last."""
    after = [_ZERO] * n
    order = [0]
    for w, a, b in _fraction_sweep(n, pairs):
        after[a[-1]] = w
        order = a
    return order, [after[x] for x in order[:-1]]


def reference_leaf_order(vertices, edges, labels) -> tuple[list[int], list[Fraction]]:
    """``metrics._leaf_order``'s order and gaps, with Fraction gaps, from a
    declaration: the edges ``(u, v)`` in declaration order, either way round.

    Each edge weighs ``max(l(u), l(v))`` and is swept as ``(i, j)``, its
    ends' declaration indices ascending; the edges are sorted stably by
    their Fraction weights, so ties keep declaration order.
    """
    index = {v: k for k, v in enumerate(vertices)}
    weighted = []
    for u, v in edges:
        i, j = sorted((index[u], index[v]))
        weighted.append((max(labels[u], labels[v]), i, j))
    weighted.sort(key=lambda edge: edge[0])
    return _fraction_leaf_order(len(vertices), weighted)


def reference_matrix_leaf_order(dm: DistanceMatrix) -> tuple[list[int], list[Fraction]]:
    """``DistanceMatrix._leaf_order``'s order and gaps, with Fraction gaps:
    the pairs ``i < j`` sorted by entry, ties in row-major order."""
    return _fraction_leaf_order(len(dm.vertices), _fraction_sorted_pairs(dm.entries))


def fraction_validate(dm: DistanceMatrix) -> None:
    """Pseudoultrametric checks on the Fraction entries, sorted by value."""
    vertices, m = dm.vertices, dm.entries
    n = len(vertices)
    for i in range(n):
        if m[i][i] != 0:
            raise MatrixInvariantError(f"nonzero diagonal at {vertices[i]!r}")
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise MatrixInvariantError(
                    f"asymmetry at ({vertices[i]!r}, {vertices[j]!r})"
                )
            if m[i][j] < 0:
                raise MatrixInvariantError(
                    f"negative distance at ({vertices[i]!r}, {vertices[j]!r})"
                )
    for w, a, b in _fraction_sweep(n, _fraction_sorted_pairs(m)):
        for x in a:
            row = m[x]
            for y in b:
                if row[y] != w:
                    p, q = vertices[min(x, y)], vertices[max(x, y)]
                    raise MatrixInvariantError(
                        f"strong triangle inequality fails: d({p!r}, {q!r}) = {row[y]}, "
                        f"but a path joins them with every step at most {w}"
                    )


def fraction_classify(dm: DistanceMatrix) -> str:
    fraction_validate(dm)
    m = dm.entries
    n = len(m)
    zero_free = all(m[i][j] != 0 for i in range(n) for j in range(i + 1, n))
    return ULTRAMETRIC if zero_free else PSEUDOULTRAMETRIC


def fraction_distance_set(dm: DistanceMatrix) -> tuple[Fraction, ...]:
    values = {q for row in dm.entries for q in row}
    values.add(Fraction(0))
    return tuple(sorted(values))


def fraction_zero_quotient(dm: DistanceMatrix) -> tuple[tuple[str, ...], DistanceMatrix]:
    """Each vertex joins the first earlier representative at distance zero."""
    fraction_validate(dm)
    reps: list[str] = []
    for v in dm.vertices:
        if all(dm.get(r, v) != 0 for r in reps):
            reps.append(v)
    rows = tuple(tuple(dm.get(x, y) for y in reps) for x in reps)
    return tuple(reps), DistanceMatrix(tuple(reps), rows)


def reference_rendering(dm: DistanceMatrix, fmt: str) -> str:
    """``dist``'s output for the matrix ``dm``: ``str`` of every entry, laid
    out as text (columns as wide as their widest cell), CSV or JSON."""
    names = list(dm.vertices)
    rows = [[str(q) for q in row] for row in dm.entries]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([names, *rows])
        return buf.getvalue()
    if fmt == "json":
        return json.dumps({"vertices": names, "matrix": rows}, indent=2) + "\n"
    name_w = max(len(s) for s in names)
    col_w = [max(len(name), *map(len, col)) for name, col in zip(names, zip(*rows))]
    lines = [" " * name_w + "  " + "  ".join(map(str.rjust, names, col_w))]
    for name, row in zip(names, rows):
        lines.append(name.ljust(name_w) + "  " + "  ".join(map(str.rjust, row, col_w)))
    return "\n".join(lines) + "\n"


def reference_quotient_rendering(reps: tuple[str, ...], q: DistanceMatrix, n: int, fmt: str) -> str:
    """``quotient``'s output for representatives ``reps`` of ``n`` vertices
    and the quotient matrix ``q``."""
    identity = len(reps) == n
    if fmt == "json":
        doc = {"representatives": list(reps), "identity": identity, "vertices": list(q.vertices),
               "matrix": [[str(x) for x in row] for row in q.entries]}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        return reference_rendering(q, fmt)
    note = "note: every class is a singleton; the quotient is the input\n" if identity else ""
    return "representatives: " + " ".join(reps) + "\n" + note + reference_rendering(q, fmt)


def fraction_dendrogram(dm: DistanceMatrix) -> Node:
    """Merge tree from a sweep over the Fraction-sorted pairs."""
    if fraction_classify(dm) != ULTRAMETRIC:
        raise NotUltrametricError(
            "dendrograms need an ultrametric; collapse zero-distance "
            "classes first (zero_quotient)"
        )

    def close(height, kids):
        if len(kids) == 1:
            return kids[0]
        kids.sort(key=lambda kid: kid[0])
        return kids[0][0], Merge(height, tuple(node for _, node in kids))

    open_at = {i: (0, [(i, Leaf(v))]) for i, v in enumerate(dm.vertices)}
    for w, a, b in _fraction_sweep(len(dm.vertices), _fraction_sorted_pairs(dm.entries)):
        kids = []
        for root in (a[0], b[0]):
            height, sub = open_at.pop(root)
            if height == w:
                kids.extend(sub)
            else:
                kids.append(close(height, sub))
        open_at[a[0]] = (w, kids)
    ((height, kids),) = open_at.values()
    return close(height, kids)[1]


# -- the explorer's scan, one labeling at a time -----------------------------
#
# The shard scan as it ran before exhaustive mode checked label patterns:
# every rank tuple of every tree gets its own criteria check, in product
# order (exhaustive) or draw order (sampled).  And the label patterns
# exhaustive mode filtered before it enumerated the GH ones directly.


def weak_orders(n: int, k: int) -> list[tuple[int, ...]]:
    """Every label pattern of ``n`` vertices over ``k`` ranks.

    A pattern is a rank tuple over ``1 .. m`` that uses every value, with
    ``m <= min(n, k)``: one per weak order of ``n`` labels with at most
    ``k`` values.  It stands for the ``C(k, m)`` rank tuples over
    ``1 .. k`` with its weak order, and these add up to ``k**n``.
    """
    return [
        ranks
        for ranks in product(range(1, min(n, k) + 1), repeat=n)
        if len(set(ranks)) == max(ranks)
    ]


def _reference_labelings(cfg, n: int, tree_index: int):
    ranks = range(1, len(cfg.universe) + 1)
    if cfg.mode == EXHAUSTIVE:
        return product(ranks, repeat=n)
    rng = random.Random(f"{cfg.seed}:{n}:{tree_index}")
    return (
        tuple(rng.choice(ranks) for _ in range(n))
        for _ in range(cfg.samples_per_tree)
    )


def reference_scan_shard(task) -> tuple[int, int, list]:
    """``(trees, labelings, entries)`` of one shard, checking every labeling."""
    cfg, n, prefix = task
    ordered = (Fraction(0), *cfg.universe)
    names = tuple(str(i + 1) for i in range(n))
    zero_labels = dict.fromkeys(names, 0)
    trees = 0
    labelings = 0
    entries: list = []

    for tree_index, seq in _pruefer_block(n, prefix):
        index_edges = reference_tree_from_pruefer(seq, n)
        edges = tuple((names[i], names[j]) for i, j in index_edges)
        skeleton = LabeledGraph(names, edges, zero_labels)
        if not is_tree(skeleton):
            raise InternalCheckError(f"Pruefer sequence {seq} did not decode to a tree")
        degree_total = sum(skeleton.degree(v) for v in names)
        trees += 1
        for ranks in _reference_labelings(cfg, n, tree_index):
            labelings += 1
            verdicts = _tree_criteria(names, index_edges, ranks, degree_total, ordered)
            if len(set(verdicts)) > 1:
                raise InternalCheckError(
                    f"tree criteria disagree on {edges} with label ranks {ranks}"
                )
            if not verdicts[0]:
                continue
            labeling = tuple(cfg.universe[r - 1] for r in ranks)
            dm = distance_matrix(skeleton.with_labels(dict(zip(names, labeling))))
            entries.append(
                (
                    tree_index,
                    labeling,
                    edges,
                    distance_set(dm),
                    canonical_form(dendrogram(dm)),
                )
            )
    return trees, labelings, entries


def reference_read_records(text: str, shapes) -> tuple[dict, dict, dict]:
    """The graph-file reader as it was before its edge-line test came first.

    Kept verbatim as the reference of ``graphs._read_records``: the same
    ``(index, labels, edges)`` dicts, in the same order, or the same
    :class:`GraphFormatError` refusal (line number, category, message).

    Skips blanks and ``#`` comments, checks each record's token count
    against ``shapes``, then duplicate vertices, undeclared endpoints,
    self-loops and duplicate edges; messages quote the tokens and lines
    as written, by :func:`_quoted`.  Returns ``(index, labels, edges)``
    in declaration order: vertex -> declaration index, vertex -> label
    (a third ``v`` token), and each edge's index pair ``(i, j)``,
    ``i < j`` -> weight (a fourth ``e`` token); an absent token reads
    ``None``.
    """
    index: dict[str, int] = {}
    labels: dict[str, Fraction | None] = {}
    edges: dict[tuple[int, int], Fraction | None] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        head = tokens[0]
        if head not in shapes:
            raise GraphFormatError(
                line_no,
                "malformed-line",
                f"unknown directive {_quoted(head)} in {_quoted(raw.strip())}",
            )
        counts, usage = shapes[head]
        if len(tokens) not in counts:
            raise GraphFormatError(
                line_no, "malformed-line", f"expected '{usage}', got {_quoted(raw.strip())}"
            )
        if head == "v":
            vid = tokens[1]
            if vid in index:
                raise GraphFormatError(
                    line_no, "duplicate-vertex", f"duplicate vertex id {_quoted(vid)}"
                )
            index[vid] = len(index)
            labels[vid] = None
            if len(tokens) == 3:
                labels[vid] = _parse_rational(tokens[2], line_no, "bad-label", "label")
        else:
            u, v = tokens[1], tokens[2]
            try:
                i, j = index[u], index[v]
            except KeyError:
                end = u if u not in index else v
                raise GraphFormatError(
                    line_no, "undeclared-endpoint", f"undeclared endpoint {_quoted(end)}"
                ) from None
            if i == j:
                raise GraphFormatError(line_no, "self-loop", f"self-loop at {_quoted(u)}")
            pair = (i, j) if i < j else (j, i)
            if pair in edges:
                raise GraphFormatError(
                    line_no, "duplicate-edge", f"duplicate edge {_quoted(u)} {_quoted(v)}"
                )
            edges[pair] = None
            if len(tokens) == 4:
                edges[pair] = _parse_rational(tokens[3], line_no, "bad-weight", "weight")
    if not index:
        raise GraphFormatError(0, "empty-graph", "no vertices declared")
    return index, labels, edges
