"""Count GH tree spaces, checking that each is a caterpillar.

The question driving this module: if two labeled trees generate GH
spaces with the same distance set, must the spaces be isometric?  They
must, on any connected graph:

Proposition.  Two GH spaces generated by connected labeled graphs with
the same distance set ``{0, h_1 < ... < h_{n-1}}`` are isometric: the
dendrogram of each is the caterpillar with those heights, whose
canonical form is ``(h_{n-1}(...(h_1··)·)...·)``.

Proof.  A GH space on ``n`` points has ``n - 1`` distinct positive
distances, and each is the height of at least one internal node of its
dendrogram, so the dendrogram has at least ``n - 1`` internal nodes.  A
rooted tree with ``n`` leaves whose internal nodes have at least two
children has at most ``n - 1``, with equality exactly when it is binary;
so the dendrogram is binary and each height sits at exactly one node.
In a generated space every internal node has a leaf child: the
endpoint labeled ``h`` of an edge merging at ``h`` is at distance at
least ``h`` from every other point (as
:func:`ultragraph.dendrograms.graph_dendrogram` checks).  A binary tree
whose internal nodes all have a leaf child is a caterpillar: its
internal nodes form one chain, here with heights rising toward the
root, so the heights fix the tree.  Equal canonical forms mean
isometric spaces.

The search enumerates labeled trees over a finite universe and keeps
the GH spaces.  On a tree every edge merges,
at its own maximum ``max(l(u), l(v))``, so the distance set is ``0`` and
the edge maxima, and each GH space is checked against the proposition
stated on its edge sweep: the sweep over the edges sorted by maximum
must make ``n - 1`` merges, and the gaps of its leaf order
(:func:`ultragraph.metrics._merge_order`) must be the sorted maxima,
strictly ascending.  They are exactly when the space is the caterpillar
of its distance set.  The sweep keeps each cluster contiguous and puts
the larger of two merging clusters first, so a merge that adds one
point to a cluster puts its gap at the right end, while a merge of two
clusters of two or more points puts its gap before the smaller gaps
inside the second; and a tie repeats a gap.  So the gaps ascend
strictly exactly when each merge adds one point at a height of its
own, and the dendrogram, the Cartesian tree of the gaps (Vuillemin
1980), is then the caterpillar with those heights.  A failed check
raises :class:`InternalCheckError`.  ``pairs_tested`` counts the pairs
of GH spaces sharing a distance set, the pairs the proposition covers.
A report claims nothing beyond the universe it states, and its runs'
``"counterexamples"`` lists are always ``[]``.

Labelings are scanned as tuples of integer ranks ``1 .. k`` into the
sorted universe, and GH is decided on those ints from the edge maxima:
a labeled tree is GH exactly when its ``n - 1`` edge maxima are
pairwise distinct, since the distance set has ``n`` values exactly when
they are; the four criteria of :func:`ultragraph.analysis.tree_gh_report`
all reduce to this.  The test is exact on ranks: the rank map is
strictly increasing, so it keeps maxima and equalities.  Sampled mode
runs the test on each draw; exhaustive mode enumerates only GH patterns
(below).  The sweep check runs on the rank maxima.  Sampled mode
checks that each tree it decodes is one by a sweep over its index
pairs; exhaustive mode joins each vertex but the first to an earlier
one, which builds a tree.  No graph,
dendrogram or canonical form is built, and labels become Fractions only
in the message of a failed check.

Sampled mode counts GH spaces per distance set, keyed by its sorted
rank maxima, so its memory grows with the number of distance sets.

Exhaustive mode checks each label *pattern* once per tree: the dense
rank tuple over ``1 .. m`` with the same weak order as the labeling.  A
pattern with ``m`` values stands for the ``C(k, m)`` labelings it maps
to under the strictly increasing maps ``{1 .. m} -> {1 .. k}``, and by
the argument above every check comes out the same on each of them as on
the pattern, read as the ``m`` smallest labels; so does the sweep
check, since such a map keeps the order of the maxima.  Shards only
tally the GH patterns by ``m``, and the run's counts follow from the
tallies by counting:

Counting.  A GH pattern's ``n - 1`` edge maxima are distinct, and the
least label is no edge's maximum unless it is tied.  So a GH pattern
has ``m = n - 1`` values, all of them distances, or ``m = n``, all but
the least; ``n - 1`` distinct maxima are already ``n - 1`` distinct
labels, so none has fewer.  Let ``A`` and ``B`` count the (tree, GH
pattern) pairs with ``n - 1`` and ``n`` values.  Then
``gh_spaces = A·C(k, n-1) + B·C(k, n)``.  A distance set whose least
positive value has rank ``lo`` is shared by ``A`` spaces on exactly its
values and ``B·(lo - 1)`` with one more value below them, and
``C(k - lo, n - 2)`` sets have that least value, so
``pairs_tested = Σ_{lo=1..k} C(k - lo, n - 2)·C(A + B·(lo - 1), 2)``.
Over labeled trees ``B = n!·(n - 1)!``: with ``n`` values every vertex
but the least has exactly one neighbour of lower label, so each of the
``n!`` orders has ``(n - 1)!`` recursive trees.  And ``A = B / 2``: the
least block is a tied adjacent pair and the rest attach as before,
``C(n, 2)·(n - 2)!`` orders with ``(n - 1)!`` trees each.

Growth orders.  So a GH pattern with ``n`` values, read in increasing
label order, is an order in which its tree grows from one vertex by
adding a neighbour, and one with ``n - 1`` values is such an order
whose first two vertices share rank 1.  Exhaustive mode enumerates the
objects of that argument (:func:`_gh_patterns`): each order whose first
two vertices ascend, with each of its ``(n - 1)!`` recursive trees, and
for each tree its tied pattern and its two distinct ones.  It decodes
no Pruefer sequence and tests no weak order.

Exhaustive mode is split by the first vertex of the order, sampled
mode by the first Pruefer symbol, each shard enumerating only its own
block, so shards can run in parallel processes; merging adds up
counts, so the emitted report is byte-identical for every parallelism
width.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import permutations, product
from math import comb
from typing import Callable, Iterator, Sequence

from .graphs import CapExceededError, _coerce_rational, tree_from_pruefer
from .metrics import InternalCheckError, _merge_order, _sweep

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


@dataclass(frozen=True)
class SearchConfig:
    """Everything that determines a search, and therefore its report.

    ``jobs`` controls processes only; it never changes the output.
    """

    n_max: int
    universe: tuple[Fraction, ...]
    mode: str = EXHAUSTIVE
    seed: int = 0
    jobs: int = 1
    samples_per_tree: int = 100

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("n_max must be at least 2")
        if isinstance(self.universe, (str, bytes)):
            raise ValueError("label universe must be a sequence of labels, not a string")
        values = tuple(sorted(_coerce_rational(x) for x in self.universe))
        if not values:
            raise ValueError("label universe must be non-empty")
        if any(x <= 0 for x in values):
            raise ValueError("label universe must be strictly positive")
        if len(set(values)) != len(values):
            raise ValueError("label universe must not repeat values")
        if self.mode not in (EXHAUSTIVE, SAMPLED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.samples_per_tree < 1:
            raise ValueError("samples_per_tree must be at least 1")
        object.__setattr__(self, "universe", values)


@dataclass(frozen=True)
class RunRecord:
    n: int
    trees_examined: int
    labelings_examined: int
    gh_spaces: int
    pairs_tested: int

    def to_json_dict(self) -> dict:
        # The fields in their order; "counterexamples" is kept so reports
        # match earlier ones and perfbench/golden.json byte for byte.
        return {**asdict(self), "counterexamples": []}


@dataclass(frozen=True)
class ConjectureReport:
    n_max: int
    universe: tuple[Fraction, ...]
    mode: str
    seed: int
    samples_per_tree: int
    runs: tuple[RunRecord, ...]

    # Read by perfbench/workload.py; goes with the next benchmark change.
    counterexamples = ()

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "universe": [str(q) for q in self.universe],
            "mode": self.mode,
            "seed": self.seed,
            "samples_per_tree": self.samples_per_tree,
            # Kept so reports match earlier ones and perfbench/golden.json byte for byte.
            "reduce_symmetry": False,
            "runs": [run.to_json_dict() for run in self.runs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _labelings(cfg: SearchConfig, n: int, tree_index: int) -> Iterator[tuple[int, ...]]:
    """``cfg.samples_per_tree`` sampled labelings of one tree, as rank tuples.

    Ranks are ``1 .. k`` into ``cfg.universe``.  Lazy: each labeling is
    drawn when it is consumed, so ``samples_per_tree`` costs no memory
    up front.
    """
    ranks = range(1, len(cfg.universe) + 1)
    # One generator per tree, seeded by position, so sampled runs do not
    # depend on how trees were split across shards.  Choosing from the
    # ranks draws the same indices as choosing from the universe.
    rng = random.Random(f"{cfg.seed}:{n}:{tree_index}")
    return (tuple(rng.choice(ranks) for _ in range(n)) for _ in range(cfg.samples_per_tree))


def _pruefer_block(n: int, prefix: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The shard's Pruefer sequences, those starting with ``prefix``.

    Yields ``(tree_index, sequence)`` in lexicographic order, where
    ``tree_index`` is the sequence's position among all ``n**(n-2)``;
    it seeds sampled mode, so it must not depend on the sharding.
    """
    if n == 2:
        yield 0, ()
        return
    base = prefix * n ** (n - 3)
    for k, rest in enumerate(product(range(n), repeat=n - 3)):
        yield base + k, (prefix, *rest)


def _gh_patterns(
    n: int, first: int, k: int
) -> Iterator[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
    """The shard's (tree, GH pattern) pairs, as ``(index_edges, ranks)``.

    For each order of ``range(n)`` that starts ``first < order[1]``, each
    vertex after the first is joined to one earlier vertex, in every way:
    the ``(n - 1)!`` recursive trees of the order, each edge an index pair
    ``i < j``.  Each tree comes with its tied pattern (``order[0]`` and
    ``order[1]`` at rank 1, ``order[t]`` at rank ``t``) when ``k >= n - 1``,
    then with ``k >= n`` its two distinct ones (rank ``t + 1``, with
    ``order[0]`` or ``order[1]`` at rank 1).  The order with its first two
    vertices swapped has the same trees, so each pair comes once.
    """
    if k < n - 1:
        return
    # The ranks by position in the order: tied, then the two distinct ones.
    positional = [(1, *range(1, n))]
    if k >= n:
        positional += [tuple(range(1, n + 1)), (2, 1, *range(3, n + 1))]
    for second in range(first + 1, n):
        for tail in permutations([v for v in range(n) if v not in (first, second)]):
            order = (first, second, *tail)
            patterns = [tuple(r for _v, r in sorted(zip(order, p))) for p in positional]
            # Vertex order[t]'s choices: the edge to each earlier vertex.
            choices = [
                [(u, v) if u < v else (v, u) for u in order[:t]] for t, v in enumerate(order) if t
            ]
            for index_edges in product(*choices):
                for ranks in patterns:
                    yield index_edges, ranks


def _scan_shard(task: tuple[SearchConfig, int, int]) -> Counter:
    """Scan one shard: in exhaustive mode the (tree, GH pattern) pairs of
    :func:`_gh_patterns` whose order starts with vertex ``part``, in sampled
    mode the trees whose Pruefer sequence starts with ``part``.

    Returns the tallies.  Exhaustive mode tallies the GH patterns by their
    number ``m`` of values; sampled mode checks each tree by one sweep over
    its decoded edges (see the module docstring), decides GH on each draw
    from its edge maxima and counts the GH spaces per distance set, keyed
    by its sorted rank maxima.  Each GH pattern (in sampled mode, each GH
    labeling) is checked against the caterpillar proposition on its edge
    sweep: ``n - 1`` merges, whose gaps are the sorted edge maxima,
    strictly ascending.  Labels become Fractions only in messages.
    """
    cfg, n, part = task
    label_of = (0, *cfg.universe)
    names = tuple(str(i + 1) for i in range(n))
    counts: Counter = Counter()

    def check(
        index_edges: Sequence[tuple[int, int]], ranks: Sequence[int], maxima: Sequence[int]
    ) -> None:
        """Raise unless the sweep of the tree labeled by ``ranks``, with edge
        maxima ``maxima`` in edge order, is that of a caterpillar."""
        # Each edge is its own group, so equal maxima sort by index pair.
        _order, gaps, merges = _merge_order(n, sorted(zip(maxima, zip(index_edges))))
        if merges != n - 1:
            raise InternalCheckError(f"sweep made {merges} merges on {n} connected vertices")
        # n - 1 gaps equal to the distinct maxima sorted: strictly ascending.
        if gaps != sorted(set(maxima)):
            edges = tuple((names[i], names[j]) for i, j in index_edges)
            labels = ", ".join(str(label_of[r]) for r in ranks)
            heights = ", ".join(str(label_of[w]) for w in gaps)
            raise InternalCheckError(
                "GH space is not the caterpillar of its distance set: tree "
                f"{edges} labeled ({labels}) has sweep gaps ({heights})"
            )

    if cfg.mode == EXHAUSTIVE:
        # Tallied by m in a list, which costs less per pattern than a Counter.
        tally = [0] * (n + 1)
        for index_edges, ranks in _gh_patterns(n, part, len(cfg.universe)):
            # The larger rank by a conditional: a call to max per edge costs more.
            maxima = [ranks[i] if ranks[i] > ranks[j] else ranks[j] for i, j in index_edges]
            check(index_edges, ranks, maxima)
            tally[max(ranks)] += 1
        counts.update({m: c for m, c in enumerate(tally) if c})
        return counts

    for tree_index, seq in _pruefer_block(n, part):
        index_edges = tree_from_pruefer(seq, n)
        # Once per tree: n - 1 edges that join n points are a tree.
        # Nondegeneracy needs no check: every rank is at least 1.
        joins = _sweep(n, [(0, index_edges)])
        if len(index_edges) != n - 1 or sum(1 for _ in joins) != n - 1:
            raise InternalCheckError(f"Pruefer sequence {seq} did not decode to a tree")
        for ranks in _labelings(cfg, n, tree_index):
            maxima = [ranks[i] if ranks[i] > ranks[j] else ranks[j] for i, j in index_edges]
            # GH on a tree: the n - 1 edge maxima are pairwise distinct.
            if len(set(maxima)) == n - 1:
                check(index_edges, ranks, maxima)
                counts[tuple(sorted(maxima))] += 1  # the distance set, by rank
    return counts


def search_conjecture(
    cfg: SearchConfig, progress: Callable[[str], None] | None = None
) -> ConjectureReport:
    """Run the search over every tree size from 2 to ``cfg.n_max``.

    Exhaustive mode is capped at 7 vertices (the ``n!·(n-1)!·3/2`` GH
    patterns over all trees, 5.4 million at 7, grow too fast beyond that);
    sampled mode at 8.  Every run examines the ``n**(n-2)`` trees.
    Exhaustive shards, one per first vertex, tally GH patterns by their
    number of values, and the merged tallies ``A`` and ``B`` give
    ``gh_spaces`` and ``pairs_tested`` by the counting of the module
    docstring.  Sampled
    shards return counts per distance set; ``pairs_tested`` adds up
    ``C(c, 2)`` over the merged counts.  Every GH space found is checked
    against the proposition of the module docstring, on its edge sweep
    with no dendrogram; a failed check raises :class:`InternalCheckError`.
    """
    cap = 7 if cfg.mode == EXHAUSTIVE else 8
    if cfg.n_max > cap:
        raise CapExceededError(f"{cfg.mode} search capped at n_max={cap}, got {cfg.n_max}")

    k = len(cfg.universe)
    runs = []
    for n in range(2, cfg.n_max + 1):
        # Exhaustive shards by first vertex, sampled ones by first Pruefer symbol.
        parts = range(n - 1) if cfg.mode == EXHAUSTIVE else [0] if n == 2 else range(n)
        tasks = [(cfg, n, part) for part in parts]
        # Under fork, the pool starts every worker at once: never more
        # than there are shards or CPUs.
        workers = min(cfg.jobs, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            # Imported here: most runs use one process, and the pool's
            # modules would add to every command's start-up.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_scan_shard, tasks))
        else:
            results = [_scan_shard(task) for task in tasks]

        counts = sum(results, Counter())
        trees = n ** (n - 2)  # Cayley's formula; sampled shards decode each one
        if cfg.mode == EXHAUSTIVE:
            labelings = trees * k**n
            a, b = counts[n - 1], counts[n]
            gh_spaces = a * comb(k, n - 1) + b * comb(k, n)
            pairs_tested = sum(
                comb(k - lo, n - 2) * comb(a + b * (lo - 1), 2) for lo in range(1, k + 1)
            )
        else:
            labelings = trees * cfg.samples_per_tree
            gh_spaces = sum(counts.values())
            pairs_tested = sum(comb(c, 2) for c in counts.values())
        runs.append(RunRecord(n, trees, labelings, gh_spaces, pairs_tested))
        if progress is not None:
            progress(
                f"n={n}: trees={trees} labelings={labelings} "
                f"gh={gh_spaces} pairs={pairs_tested}"
            )

    return ConjectureReport(
        n_max=cfg.n_max,
        universe=cfg.universe,
        mode=cfg.mode,
        seed=cfg.seed,
        samples_per_tree=cfg.samples_per_tree,
        runs=tuple(runs),
    )
