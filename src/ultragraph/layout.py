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
maxima, which is the rest of the row.  The left side is the mirror
image.  The chains of records are found once, in O(n), and every table
is O(n), so memory is O(n) beyond the row being written.
"""

from __future__ import annotations

import json
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

from .metrics import _csv_line, _json_scalar


def _record_chains(gaps: Sequence[int]) -> tuple[list[int], list[int], list[int], list[int]]:
    """The chains of weak records of ``gaps``, for :func:`_render_order`.

    Returns ``(nge, pge, run, lrun)``.  ``nge[k]`` (``pge[k]``) is the
    next (previous) gap no smaller than ``gaps[k]``, or ``m`` (``-1``)
    when there is none, where ``m = len(gaps)``.  ``run[k]`` (``lrun[k]``)
    is where the chain of ``nge`` (``pge``) steps of one from ``k`` ends.
    ``run`` and ``lrun`` have a spare last slot, ``m`` and ``-1``, which
    the chains' ends past either side index.  One stack pass: O(m).
    """
    m = len(gaps)
    nge, pge, stack = [m] * m, [-1] * m, []
    for k, w in enumerate(gaps):
        while stack and gaps[stack[-1]] < w:
            nge[stack.pop()] = k
        if stack:
            pge[k] = stack[-1]
            if gaps[stack[-1]] == w:
                nge[stack.pop()] = k
        stack.append(k)
    run, lrun = [m] * (m + 1), [-1] * (m + 1)
    for k in range(m - 1, -1, -1):
        run[k] = run[k + 1] if nge[k] == k + 1 else k
    for k in range(m):
        lrun[k] = lrun[k - 1] if pge[k] == k - 1 else k
    return nge, pge, run, lrun


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
    nge, pge, run, lrun = _record_chains(gaps)

    if fmt == "text":
        # rw[k] (lw[k]): the widest value on the chain from gap k rightwards (leftwards).
        gw = [len(text[w]) for w in gaps]
        rw, lw = [0] * (m + 1), [0] * (m + 1)
        for k in range(m - 1, -1, -1):
            rw[k] = max(gw[k], rw[nge[k]])
        for k in range(m):
            lw[k] = max(gw[k], lw[pge[k]])
        width = list(map(max, map(len, map(names.__getitem__, order)), rw, lw[-1:] + lw[:m]))
        padded = {w: [t.rjust(w) for t in text] for w in set(width)}
        # cell[p][r]: the value of rank r as shown in the column at position p.
        cell = list(map(padded.__getitem__, width))
    else:
        shown = list(map(_json_scalar, text)) if fmt == "json" else text
        width, cell = [0] * n, [shown] * n
    # wend[p]: the last position of the run of equal widths from position p.
    wend = [m] * n
    for p in range(m - 1, -1, -1):
        wend[p] = wend[p + 1] if width[p] == width[p + 1] else p

    # The cells of position k + 1 (right) and k (left) showing gap k, its
    # prefix maximum and its suffix maximum; and each position's zero.
    pmax = list(accumulate(gaps, max))
    smax = list(accumulate(reversed(gaps), max))[::-1]
    right = list(map(list.__getitem__, cell[1:], gaps))
    left = list(map(list.__getitem__, cell, gaps))
    prefix = list(map(list.__getitem__, cell[1:], pmax))
    suffix = list(map(list.__getitem__, cell, smax))
    zero = [c[0] for c in cell]
    pmax.append(-1)
    smax.append(-1)
    perm = itemgetter(*pos) if n > 1 else tuple

    if fmt == "text":
        name_w = max(map(len, names))
        col_w = list(map(width.__getitem__, pos))
        yield " " * name_w + "  " + "  ".join(map(str.rjust, names, col_w)) + "\n"
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
        pieces = []
        # Leftwards from position p - 1, then reversed.
        k, top = p - 1, smax[p]
        while k >= 0:
            w = gaps[k]
            if w >= top:
                pieces.append(suffix[: k + 1])
                break
            e = pge[k]
            if e == k - 1:
                r = lrun[k]
                pieces.append(left[r + 1 : k + 1])
                k = r
                continue
            if wend[e + 1] >= k:
                pieces.append(repeat(cell[k][w], k - e))
            else:
                pieces.append(map(list.__getitem__, cell[e + 1 : k + 1], repeat(w, k - e)))
            k = e
        pieces.reverse()
        pieces.append((zero[p],))
        # Rightwards from position p + 1.
        k, top = p, pmax[p - 1]
        while k < m:
            w = gaps[k]
            if w >= top:
                pieces.append(prefix[k:])
                break
            e = nge[k]
            if e == k + 1:
                r = run[k]
                pieces.append(right[k:r])
                k = r
                continue
            if wend[k + 1] >= e:
                pieces.append(repeat(cell[k + 1][w], e - k))
            else:
                pieces.append(map(list.__getitem__, cell[k + 1 : e + 1], repeat(w, e - k)))
            k = e
        row = perm(list(chain.from_iterable(pieces)))
        if fmt == "text":
            yield name.ljust(name_w) + "  " + "  ".join(row) + "\n"
        elif fmt == "csv":
            # The str of a Fraction never needs CSV quoting.
            yield ",".join(row) + "\n"
        else:
            yield ("," if i else "") + "\n    [\n      " + ",\n      ".join(row) + "\n    ]"
    if fmt == "json":
        yield "\n  ]\n}\n"
