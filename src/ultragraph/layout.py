"""The distance matrix of a space printed from the leaf order of its dendrogram.

With the vertices in the leaf order of their dendrogram, and gap
``gaps[p]`` between positions ``p`` and ``p + 1``, the distance between
the vertices at positions ``p < q`` is ``max(gaps[p:q])`` (single
linkage, Gower and Ross 1969).  The edge sweep of
:mod:`ultragraph.metrics` yields that order
(:func:`ultragraph.metrics._leaf_order`), and the zero classes are its
runs of zero gaps (:func:`ultragraph.metrics._zero_runs`).  So
printing the distance matrix (:func:`_render_order`) needs no n^2 table,
and each distinct distance becomes a string once; there are at most
``n + 1`` of them (every distance is ``0`` or a label).

Seen from position ``p``, the distances to the right are the running
maximum of ``gaps[p:]``: constant from each weak record (a gap no
smaller than every gap before it) to the next, which is the record's
next gap no smaller than it.  The right side of a row is thus a few
pieces: a constant block between records that are apart, a slice of the
table of gaps shown in place where records are adjacent, and, once the
maximum reaches every gap left of ``p``, a slice of the table of prefix
maxima, which is the rest of the row.  The left side is the same walk
on the mirrored order, reversed.  The chains of records are found once
per side, in O(n), and every table is O(n), so memory is O(n) beyond the
row being written.
"""

from __future__ import annotations

import json
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Sequence

from .metrics import _csv_line, _json_scalar


def _record_chains(gaps: Sequence[int]) -> tuple[list[int], list[int]]:
    """The chain of weak records of ``gaps``, for :func:`_render_order`.

    Returns ``(nge, run)``.  ``nge[k]`` is the next gap no smaller than
    ``gaps[k]``, or ``m = len(gaps)`` when there is none.  ``run[k]`` is
    where the chain of ``nge`` steps of one from ``k`` ends; ``run`` has a
    spare last slot, ``m``.  One stack pass: O(m).  "No smaller than" is
    symmetric, so the chain leftwards is this one on ``gaps[::-1]``.
    """
    m = len(gaps)
    nge, stack = [m] * m, []
    for k, w in enumerate(gaps):
        while stack and gaps[stack[-1]] <= w:
            nge[stack.pop()] = k
        stack.append(k)
    run = [m] * (m + 1)
    for k in range(m - 1, -1, -1):
        run[k] = run[k + 1] if nge[k] == k + 1 else k
    return nge, run


def _right_walk(gaps: list, cell: list, chains: tuple) -> Callable[[int, list], list]:
    """The function ``walk(p, row)`` that appends the cells right of position ``p`` to ``row``.

    ``cell[p]`` holds position ``p``'s cells by rank, and ``chains`` is
    :func:`_record_chains` of ``gaps``.
    """
    m = len(gaps)
    nge, run = chains
    # The cells of position k + 1 showing gap k and its prefix maximum.
    pmax = list(accumulate(gaps, max))
    right = list(map(list.__getitem__, cell[1:], gaps))
    prefix = list(map(list.__getitem__, cell[1:], pmax))
    pmax.append(-1)
    # wend[p]: the last position of the run from p that shares one cell table.
    wend = [m] * (m + 1)
    for p in range(m - 1, -1, -1):
        wend[p] = wend[p + 1] if cell[p] is cell[p + 1] else p

    def walk(p: int, row: list) -> list:
        k, top = p, pmax[p - 1]
        while k < m:
            w = gaps[k]
            if w >= top:
                row += prefix[k:]
                break
            e = nge[k]
            if e == k + 1:
                r = run[k]
                row += right[k:r]
                k = r
                continue
            if wend[k + 1] >= e:
                row += repeat(cell[k + 1][w], e - k)
            else:
                row += map(list.__getitem__, cell[k + 1 : e + 1], repeat(w, e - k))
            k = e
        return row

    return walk


def _render_order(
    names: Sequence[str],
    order: Sequence[int],
    gaps: Sequence[int],
    ordered: Sequence,
    fmt: str,
    head: Mapping | None = None,
) -> Iterator[str]:
    """The distance matrix of a leaf order, piece by piece.

    ``order`` lists indices into ``names`` and ``gaps`` the ranks into
    ``ordered`` between neighbours in it.  Rows and columns are in the
    order of ``names``.  ``fmt`` is ``"text"`` (right-aligned columns
    under the names, each as wide as its widest cell), ``"csv"`` or
    ``"json"`` (``{"vertices": ..., "matrix": ...}`` after the members of
    ``head``, as ``json.dumps(doc, indent=2)`` plus a newline).

    Each row is built in leaf order from the pieces of the module
    docstring, then put in column order by one shared ``itemgetter``.
    A column's width is the widest value met along its two chains of
    records, or its name.
    """
    n, m = len(order), len(gaps)
    text = [str(q) for q in ordered]
    pos = [0] * n
    for p, i in enumerate(order):
        pos[i] = p
    sides = (gaps, gaps[::-1])
    chains = list(map(_record_chains, sides))

    if fmt == "text":
        # The widest value on the chain of records from each gap rightwards,
        # in the order and in its mirror: so on either side of a position.
        wide = []
        for g, (nge, _) in zip(sides, chains):
            widest = [0] * (m + 1)
            for k in range(m - 1, -1, -1):
                widest[k] = max(len(text[g[k]]), widest[nge[k]])
            wide.append(widest)
        width = list(map(max, map(len, map(names.__getitem__, order)), wide[0], reversed(wide[1])))
        # A text cell carries the two spaces in front of it, so a row is one join.
        padded = {w: ["  " + t.rjust(w) for t in text] for w in set(width)}
        # cell[p][r]: the value of rank r as shown in the column at position p.
        cell = list(map(padded.__getitem__, width))
    else:
        shown = list(map(_json_scalar, text)) if fmt == "json" else text
        cell = [shown] * n
    fore, back = map(_right_walk, sides, (cell, cell[::-1]), chains)
    perm = itemgetter(*pos) if n > 1 else tuple

    if fmt == "text":
        name_w = max(map(len, names))
        yield " " * name_w + "  " + "  ".join(map(str.rjust, names, perm(width))) + "\n"
    elif fmt == "csv":
        yield _csv_line(names)
    else:
        members = {**(head or {}), "vertices": list(names)}
        yield "{\n" + "".join(
            f"  {_json_scalar(key)}: " + json.dumps(value, indent=2).replace("\n", "\n  ") + ",\n"
            for key, value in members.items()
        ) + '  "matrix": ['
    for i, name in enumerate(names):
        p = pos[i]
        # The left side is the right side of the mirrored order, reversed.
        row = back(n - 1 - p, [])
        row.reverse()
        row.append(cell[p][0])
        row = perm(fore(p, row))
        if fmt == "text":
            yield name.ljust(name_w) + "".join(row) + "\n"
        elif fmt == "csv":
            # The str of a Fraction never needs CSV quoting.
            yield ",".join(row) + "\n"
        else:
            yield ("," if i else "") + "\n    [\n      " + ",\n      ".join(row) + "\n    ]"
    if fmt == "json":
        yield "\n  ]\n}\n"
