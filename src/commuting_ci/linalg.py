"""Exact rank computation for the graded-slice matrices.

Matrices are sparse: a sequence of rows, each a dict from column index to an
entry.  Both coefficient regimes go through one left-looking echelon, which
never changes the caller's rows:

* GF(p): any integer entries are accepted, including negatives, zeros and
  multiples of p.  An entry is reduced mod p when it leads its row, where a
  0 is dropped, or when an update writes it.

* rationals: a row of ints is used as it stands; a row holding a `Fraction`
  has its denominators cleared first.  Elimination then runs over Z with
  fraction-free updates and gcd stripping, so no fractions ever appear.

The rows are taken sparsest first.  Each one is reduced at its highest
column against the pivot that owns that column, until it vanishes or its
highest column has no pivot yet; then it becomes that column's pivot, as it
stands.  A row is copied only the first time it must be written to, so one
that becomes a pivot untouched is never copied.  Pivot rows are never touched
again, so `pivots` (column -> pivot row) is an echelon form of the row space
and the rank is its size.

The Koszul differentials are almost binomial, so the pivot order decides the
fill.  Counting the pivot entries applied to rows over GF(32003): on U6 d_1
at weight 8 (76,114 rows), highest column with the sparsest rows first
applies 244k, lowest column first 359k, and highest column with the rows in
reverse order 756k; on U6 d_2 at weight 9 the three apply 189k, 775k and
619k.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

Row = Dict[int, int]


def rank_mod_p(rows: Sequence[Dict[int, int]], ncols: int, p: int) -> int:
    if ncols == 0:
        return 0
    return _rank_sparse(rows, p=p)


def rank_rational(rows: Sequence[Dict[int, Fraction]], ncols: int) -> int:
    if ncols == 0:
        return 0
    over_z: List[Row] = []
    for r in rows:
        # a sum of ints is an int, and one Fraction makes the sum a Fraction
        if type(sum(r.values())) is not int:
            den = lcm(*(v.denominator for v in r.values()))
            r = {c: v.numerator * (den // v.denominator) for c, v in r.items()}
        over_z.append(r)
    return _rank_sparse(over_z, p=None)


def _rank_sparse(rows: Sequence[Row], p: Optional[int]) -> int:
    """Left-looking echelon; exact over GF(p) (p given) or Z (p None).

    A row is copied on its first write.  Its leading entry is reduced mod p
    (over Z, tested for 0) each time it leads, and a 0 is deleted from the
    copy.  Other entries, a pivot's too, may stay unreduced until an update
    writes them.
    """
    # leading column -> (inverse of the leading entry mod p, or over Z the
    # leading entry itself; the pivot row)
    pivots: Dict[int, Tuple[int, Row]] = {}
    for row in sorted(rows, key=len):
        owned = False
        while row:
            c = max(row)
            lead_c = row[c] if p is None else row[c] % p
            hit = pivots.get(c)
            if hit is None and lead_c:
                pivots[c] = (lead_c if p is None else pow(lead_c, -1, p), row)
                break
            if not owned:
                row, owned = dict(row), True
            if not lead_c:
                del row[c]
                continue
            lead, piv = hit
            if p is not None:
                f = lead_c * lead % p
                for k, v in piv.items():
                    nv = (row.get(k, 0) - f * v) % p
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
                continue
            # (lead/g) * row - (f/g) * pivot, then strip the content
            g = gcd(lead, lead_c)
            a, f = lead // g, lead_c // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in piv.items():
                nv = row.get(k, 0) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            g = 0
            for v in row.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                for k in row:
                    row[k] //= g
    return len(pivots)
