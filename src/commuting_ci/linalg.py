"""Exact rank computation for the graded-slice matrices.

Matrices are sparse: a sequence of rows, each a dict from column index to an
entry.  Both coefficient regimes go through one left-looking echelon:

* GF(p): entries are reduced mod p on entry (zeros dropped), so any integer
  input is accepted, including negatives and multiples of p.  A row is
  reduced by subtracting multiples of pivot rows and stays in [0, p).

* rationals: denominators are cleared per row first, then elimination runs
  over Z with fraction-free updates and gcd stripping, so no fractions ever
  appear.

The rows are taken sparsest first.  Each one is reduced at its highest
column against the pivot that owns that column, until it vanishes or its
highest column has no pivot yet; then it becomes that column's pivot, as it
stands.  Pivot rows are never touched again, so `pivots` (column -> pivot
row) is an echelon form of the row space and the rank is its size.

The Koszul differentials are almost binomial, so the pivot order decides the
fill.  Counting the pivot entries applied to rows over GF(32003): on U6 d_1
at weight 8 (76,114 rows), highest column with the sparsest rows first
applies 244k, lowest column first 359k, and highest column with the rows in
reverse order 756k; on U6 d_2 at weight 9 the three apply 189k, 775k and
619k.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

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


def _rank_sparse(work: List[Row], p: Optional[int]) -> int:
    """Left-looking echelon; exact over GF(p) (p given) or Z (p None).

    The rows must be nonempty and are reduced in place.  Over GF(p) every
    entry must already lie in [1, p).
    """
    # leading column -> (inverse of the leading entry mod p, or over Z the
    # leading entry itself; the pivot row)
    pivots: Dict[int, Tuple[int, Row]] = {}
    for row in sorted(work, key=len):
        while row:
            c = max(row)
            hit = pivots.get(c)
            if hit is None:
                pivots[c] = (row[c] if p is None else pow(row[c], -1, p), row)
                break
            lead, piv = hit
            if p is not None:
                f = row[c] * lead % p
                for k, v in piv.items():
                    nv = (row.get(k, 0) - f * v) % p
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
                continue
            # (lead/g) * row - (f/g) * pivot, then strip the content
            g = gcd(lead, row[c])
            a, f = lead // g, row[c] // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in piv.items():
                nv = row.get(k, 0) - f * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
            g = 0
            for v in row.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                for k in row:
                    row[k] //= g
    return len(pivots)
