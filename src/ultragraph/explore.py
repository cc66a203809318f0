"""Search for distance-set collisions among GH tree spaces.

The question driving this module: if two labeled trees generate GH
spaces with the same distance set, must the spaces be isometric?  The
search enumerates trees by Pruefer sequence, bind labelings over a
finite universe, keeps the GH spaces, buckets them by distance set, and
compares canonical forms inside each bucket.  A report claims nothing
beyond the universe it states.

Labelings are scanned as tuples of integer ranks ``1 .. k`` into the
sorted universe, and every per-labeling check runs on those ints: the
four tree criteria (cross-checked against each other), the Kruskal
sweep to a distance matrix, its validation and the ultrametric check.
This is exact.  The rank map is strictly increasing and every distance
is a label, so ``max``, ``<``, ``==`` and the sizes of distance sets
come out the same on ranks as on the Fractions.  Only the GH labelings
are mapped back to Fractions, to build their distance sets and
canonical forms through the public routes.

Work is partitioned by the first Pruefer symbol, and each shard
enumerates only its own block of sequences, so shards can run in
parallel processes; merging is order-independent and the emitted report
is byte-identical for every parallelism width.
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .analysis import _tree_criteria, distance_set, is_gh
from .dendrograms import are_isometric, canonical_form, dendrogram
from .graphs import (
    CapExceededError,
    LabeledGraph,
    _coerce_rational,
    is_tree,
    tree_from_pruefer,
)
from .metrics import (
    DistanceMatrix,
    InternalCheckError,
    distance_matrix,
    oracle_matrix,
)

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
class SpaceWitness:
    graph: LabeledGraph
    canonical: str

    def to_json_dict(self) -> dict:
        return {"canonical_form": self.canonical, "graph": self.graph.to_text()}


@dataclass(frozen=True)
class Counterexample:
    n: int
    distance_set: tuple[Fraction, ...]
    first: SpaceWitness
    second: SpaceWitness

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "distance_set": [str(q) for q in self.distance_set],
            "first": self.first.to_json_dict(),
            "second": self.second.to_json_dict(),
        }


@dataclass(frozen=True)
class RunRecord:
    n: int
    trees_examined: int
    labelings_examined: int
    gh_spaces: int
    pairs_tested: int
    counterexamples: tuple[Counterexample, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "trees_examined": self.trees_examined,
            "labelings_examined": self.labelings_examined,
            "gh_spaces": self.gh_spaces,
            "pairs_tested": self.pairs_tested,
            "counterexamples": [c.to_json_dict() for c in self.counterexamples],
        }


@dataclass(frozen=True)
class ConjectureReport:
    n_max: int
    universe: tuple[Fraction, ...]
    mode: str
    seed: int
    samples_per_tree: int
    runs: tuple[RunRecord, ...]

    @property
    def counterexamples(self) -> tuple[Counterexample, ...]:
        return tuple(c for run in self.runs for c in run.counterexamples)

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


def _labelings(cfg: SearchConfig, n: int, tree_index: int) -> Iterable[tuple[int, ...]]:
    """Labelings of one tree as tuples of ranks ``1 .. k`` into ``cfg.universe``.

    Both modes are lazy: sampled mode draws each labeling when it is
    consumed, so ``samples_per_tree`` costs no memory up front.
    """
    ranks = range(1, len(cfg.universe) + 1)
    if cfg.mode == EXHAUSTIVE:
        return product(ranks, repeat=n)
    # One generator per tree, seeded by position, so sampled runs do not
    # depend on how trees were split across shards.  Choosing from the
    # ranks draws the same indices as choosing from the universe.
    rng = random.Random(f"{cfg.seed}:{n}:{tree_index}")
    return (
        tuple(rng.choice(ranks) for _ in range(n))
        for _ in range(cfg.samples_per_tree)
    )


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


def _scan_shard(task: tuple[SearchConfig, int, int]) -> tuple[int, int, list]:
    """Scan the trees whose Pruefer sequence starts with ``prefix``.

    Returns entry tuples ``(tree_index, labeling, edges, distance_set,
    canonical_form)`` for every GH space found, in deterministic order.
    Labelings are scanned as rank tuples (see the module docstring);
    only GH labelings are turned back into Fractions.
    """
    cfg, n, prefix = task
    ordered = (Fraction(0), *cfg.universe)
    names = tuple(str(i + 1) for i in range(n))
    zero_labels = dict.fromkeys(names, 0)
    trees = 0
    labelings = 0
    entries: list = []

    for tree_index, seq in _pruefer_block(n, prefix):
        index_edges = tree_from_pruefer(seq, n)
        edges = tuple((names[i], names[j]) for i, j in index_edges)
        skeleton = LabeledGraph(names, edges, zero_labels)
        # Label-independent guards of tree_gh_report, once per tree.
        # Nondegeneracy needs no check: every rank is at least 1.
        if not is_tree(skeleton):
            raise InternalCheckError(f"Pruefer sequence {seq} did not decode to a tree")
        degree_total = sum(skeleton.degree(v) for v in names)
        trees += 1
        for ranks in _labelings(cfg, n, tree_index):
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


def reverify_counterexample(ce: Counterexample) -> bool:
    """Re-check a counterexample from scratch, down the slow routes.

    Distances are recomputed by literal path enumeration, distance sets
    and canonical forms rebuilt, and the isometry verdict re-decided.
    """
    matrices: list[DistanceMatrix] = []
    for witness in (ce.first, ce.second):
        om = oracle_matrix(witness.graph)
        if distance_set(om) != ce.distance_set:
            return False
        if canonical_form(dendrogram(om)) != witness.canonical:
            return False
        if not is_gh(om):
            return False
        matrices.append(om)
    if ce.first.canonical == ce.second.canonical:
        return False
    return not are_isometric(matrices[0], matrices[1])


def search_conjecture(
    cfg: SearchConfig, progress: Callable[[str], None] | None = None
) -> ConjectureReport:
    """Run the search over every tree size from 2 to ``cfg.n_max``.

    Exhaustive mode is capped at 7 vertices (the labeling product grows
    too fast beyond that); sampled mode at 8.  Every counterexample is
    re-verified from scratch before it is allowed into the report.
    """
    cap = 7 if cfg.mode == EXHAUSTIVE else 8
    if cfg.n_max > cap:
        raise CapExceededError(f"{cfg.mode} search capped at n_max={cap}, got {cfg.n_max}")

    runs = []
    for n in range(2, cfg.n_max + 1):
        prefixes = [0] if n == 2 else list(range(n))
        tasks = [(cfg, n, p) for p in prefixes]
        # Under fork, the pool starts every worker at once: never more
        # than there are shards or CPUs.
        workers = min(cfg.jobs, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_scan_shard, tasks))
        else:
            results = [_scan_shard(task) for task in tasks]

        trees = sum(r[0] for r in results)
        labelings = sum(r[1] for r in results)
        # Shards cover ascending Pruefer-prefix blocks, so concatenation
        # reproduces the sequential scan order exactly.
        entries = [entry for r in results for entry in r[2]]

        buckets: dict[tuple[Fraction, ...], list] = {}
        canon_to_set: dict[str, tuple[Fraction, ...]] = {}
        for entry in entries:
            dset, canon = entry[3], entry[4]
            buckets.setdefault(dset, []).append(entry)
            known = canon_to_set.setdefault(canon, dset)
            if known != dset:
                raise InternalCheckError(
                    "isometric spaces with different distance sets: " + canon
                )

        pairs_tested = 0
        counterexamples: list[Counterexample] = []
        for dset, bucket in buckets.items():
            pairs_tested += len(bucket) * (len(bucket) - 1) // 2
            by_form: dict[str, tuple] = {}
            for entry in bucket:
                by_form.setdefault(entry[4], entry)
            if len(by_form) > 1:
                reps = list(by_form.values())
                for i in range(len(reps)):
                    for j in range(i + 1, len(reps)):
                        counterexamples.append(
                            Counterexample(
                                n,
                                dset,
                                _witness(reps[i]),
                                _witness(reps[j]),
                            )
                        )

        for ce in counterexamples:
            if not reverify_counterexample(ce):
                raise InternalCheckError("counterexample failed re-verification")

        runs.append(
            RunRecord(
                n=n,
                trees_examined=trees,
                labelings_examined=labelings,
                gh_spaces=len(entries),
                pairs_tested=pairs_tested,
                counterexamples=tuple(counterexamples),
            )
        )
        if progress is not None:
            progress(
                f"n={n}: trees={trees} labelings={labelings} "
                f"gh={len(entries)} pairs={pairs_tested} "
                f"counterexamples={len(counterexamples)}"
            )

    return ConjectureReport(
        n_max=cfg.n_max,
        universe=cfg.universe,
        mode=cfg.mode,
        seed=cfg.seed,
        samples_per_tree=cfg.samples_per_tree,
        runs=tuple(runs),
    )


def _witness(entry: tuple) -> SpaceWitness:
    tree_index, labeling, edges, _dset, canon = entry
    names = tuple(str(i + 1) for i in range(len(labeling)))
    graph = LabeledGraph(names, edges, dict(zip(names, labeling)))
    return SpaceWitness(graph=graph, canonical=canon)


def write_counterexample_files(report: ConjectureReport, out_dir: str | Path) -> list[Path]:
    """Dump each counterexample as a pair of graph files for re-checking."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for k, ce in enumerate(report.counterexamples):
        for tag, witness in (("a", ce.first), ("b", ce.second)):
            path = out / f"counterexample_n{ce.n}_{k:03d}_{tag}.graph"
            path.write_text(witness.graph.to_text())
            written.append(path)
    return written
