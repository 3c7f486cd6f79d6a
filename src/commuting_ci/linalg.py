"""Exact rank computation for the graded-slice matrices.

Matrices are sparse: a sequence of rows, each a dict from column index to an
entry.  Both coefficient regimes go through one sparse dict-of-rows
elimination with a Markowitz-style pivot choice to limit fill-in:

* GF(p): entries are reduced mod p on entry (zeros dropped), so any integer
  input is accepted, including negatives and multiples of p.  Elimination
  scales the pivot row by its inverse and stays in [0, p).

* rationals: denominators are cleared per row first, then elimination runs
  over Z with cross-multiplication updates and gcd stripping, so no
  fractions ever appear.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence

Row = Dict[int, int]


def rank_mod_p(rows: Sequence[Dict[int, int]], ncols: int, p: int) -> int:
    reduced: List[Row] = []
    for r in rows:
        row = {c: m for c, v in r.items() if (m := v % p)}
        if row:
            reduced.append(row)
    if not reduced or ncols == 0:
        return 0
    return _rank_sparse(reduced, p=p)


def rank_rational(rows: Sequence[Dict[int, Fraction]], ncols: int) -> int:
    cleared: List[Row] = []
    for r in rows:
        if not r:
            continue
        den = 1
        for v in r.values():
            if isinstance(v, Fraction):
                den = den * v.denominator // gcd(den, v.denominator)
        row = {c: int(v * den) for c, v in r.items()}
        row = {c: v for c, v in row.items() if v}
        if row:
            cleared.append(row)
    if not cleared or ncols == 0:
        return 0
    return _rank_sparse(cleared, p=None)


def _rank_sparse(work: List[Row], p) -> int:
    """Sparse elimination; exact over GF(p) (p given) or Z (p None).

    The rows must be nonempty and are eliminated in place.  Over GF(p) every
    entry must already lie in [1, p).
    """
    colrows: Dict[int, set] = {}
    for i, r in enumerate(work):
        for c in r:
            colrows.setdefault(c, set()).add(i)
    alive = set(range(len(work)))
    heap = [(len(r), i) for i, r in enumerate(work)]
    heapq.heapify(heap)
    rank = 0
    while heap:
        nnz, i = heapq.heappop(heap)
        if i not in alive:
            continue
        row = work[i]
        if not row:
            alive.discard(i)
            continue
        if len(row) != nnz:  # stale entry, requeue with the current size
            heapq.heappush(heap, (len(row), i))
            continue
        # Markowitz-style: within the sparsest row, pivot on the emptiest column
        pc = min(row, key=lambda c: (len(colrows[c]), c))
        alive.discard(i)
        rank += 1
        pa = row[pc]
        targets = [j for j in colrows[pc] if j != i and j in alive]
        if p is not None:
            inv = pow(pa, p - 2, p)
            piv_items = [(c, v * inv % p) for c, v in row.items()]
            for j in targets:
                rj = work[j]
                f = rj.get(pc)
                if not f:
                    continue
                for c, v in piv_items:
                    old = rj.get(c)
                    nv = ((old or 0) - f * v) % p
                    if nv:
                        rj[c] = nv
                        if old is None:
                            colrows.setdefault(c, set()).add(j)
                    elif old is not None:
                        del rj[c]
                        colrows[c].discard(j)
                if rj:
                    heapq.heappush(heap, (len(rj), j))
                else:
                    alive.discard(j)
        else:
            piv_items = list(row.items())
            for j in targets:
                rj = work[j]
                f = rj.get(pc)
                if not f:
                    continue
                g = 0
                for c, v in piv_items:
                    old = rj.get(c)
                    nv = (old or 0) * pa - f * v
                    if nv:
                        rj[c] = nv
                        if old is None:
                            colrows.setdefault(c, set()).add(j)
                    elif old is not None:
                        del rj[c]
                        colrows[c].discard(j)
                for c, v in list(rj.items()):
                    if c not in row:
                        rj[c] = v * pa
                # strip content to keep the integers small
                for v in rj.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    for c in rj:
                        rj[c] //= g
                if rj:
                    heapq.heappush(heap, (len(rj), j))
                else:
                    alive.discard(j)
        # retire the pivot row from the column index
        for c in row:
            colrows[c].discard(i)
    return rank
