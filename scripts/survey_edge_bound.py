#!/usr/bin/env python3
"""Survey the slack in the distance-set bound |D| <= |E| + 1.

Samples random connected labeled graphs beyond the exhaustively tested
sizes (a random spanning tree plus a random batch of extra edges),
tabulates how many distance values actually arise per edge count, and
counts where the bound is attained.  Attainment is expected only on
trees; a non-tree hit would be a bug worth a bisected graph file.

Example:
    python3 scripts/survey_edge_bound.py --n 9 --graphs 3000 --seed 1
"""

from __future__ import annotations

import argparse
import random
import string
import sys
from fractions import Fraction
from itertools import combinations

from ultragraph import (
    LabeledGraph,
    distance_matrix,
    distance_set,
    is_tree,
    tree_from_pruefer,
)
from ultragraph.graphs import _rational


def random_graph(n: int, pool: tuple[Fraction, ...], rng: random.Random) -> LabeledGraph:
    names = tuple(string.ascii_lowercase[:n])
    seq = tuple(rng.randrange(n) for _ in range(n - 2)) if n > 2 else ()
    edges = set(tree_from_pruefer(seq, n))
    absent = [
        (i, j) for i, j in combinations(range(n), 2)
        if (i, j) not in edges and (j, i) not in edges
    ]
    extras = rng.randrange(len(absent) + 1)
    edges.update(rng.sample(absent, extras))
    return LabeledGraph(
        names,
        tuple((names[i], names[j]) for i, j in sorted(edges)),
        {v: rng.choice(pool) for v in names},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=8, metavar="N", help="vertices per graph")
    parser.add_argument("--graphs", type=int, default=2000, metavar="K")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--labels",
        metavar="Q,Q,...",
        help="label pool (default 1..n; fewer than n values makes attainment impossible)",
    )
    args = parser.parse_args(argv)
    if args.n < 2 or args.n > 26:
        print("error: --n must be between 2 and 26", file=sys.stderr)
        return 2

    if args.labels is None:
        args.labels = ",".join(str(k) for k in range(1, args.n + 1))
    try:
        # The graph-file grammar of labels, as in `ultragraph explore`.
        pool = tuple(_rational(tok, "label") for tok in args.labels.split(",") if tok.strip())
        if not pool:
            raise ValueError("--labels names no label")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)

    by_edges: dict[int, list[int]] = {}
    tree_hits = 0
    non_tree_hits = 0
    for _ in range(args.graphs):
        g = random_graph(args.n, pool, rng)
        size = len(distance_set(distance_matrix(g)))
        m = len(g.edges)
        by_edges.setdefault(m, []).append(size)
        if size == m + 1:
            if is_tree(g):
                tree_hits += 1
            else:
                non_tree_hits += 1

    print(f"n={args.n}, {args.graphs} graphs, labels {{{args.labels}}}, seed {args.seed}")
    print("edges  graphs  |D| min  |D| mean  |D| max  bound  attained")
    for m in sorted(by_edges):
        sizes = by_edges[m]
        hits = sum(1 for s in sizes if s == m + 1)
        print(
            f"{m:5d}  {len(sizes):6d}  {min(sizes):7d}  "
            f"{sum(sizes) / len(sizes):8.2f}  {max(sizes):7d}  {m + 1:5d}  {hits:8d}"
        )
    print(f"bound attained on {tree_hits} trees and {non_tree_hits} non-trees")
    return 1 if non_tree_hits else 0


if __name__ == "__main__":
    raise SystemExit(main())
