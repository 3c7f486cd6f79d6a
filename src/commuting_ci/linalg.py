"""Exact row echelon form of the graded-slice matrices.

A matrix is a sequence of sparse rows, each a dict from column key to an int
entry; a column key is any int, and the columns are ordered by it.  One
left-looking echelon serves both coefficient regimes:

* GF(p): any integer entries are accepted, including negatives, zeros and
  multiples of p.  An entry is reduced mod p when it leads its row, where a
  0 is dropped, or when an update writes it.

* Z, for the rationals: entries are ints (a caller with fractions clears the
  denominators first, which changes no rank).  Updates are fraction-free,
  and each updated row is divided by its content.

`echelon` takes the rows in the caller's order and owns them: a row is
reduced in place, with no copy.  Each row is reduced at its highest column
against the pivot that owns that column, until it vanishes or its highest
column has no pivot yet; then it becomes that column's pivot.  Pivot rows
are never touched again, so the pivots it returns (column -> pivot row) are
an echelon form of the row space: the rank is their number, and their
columns are the leading columns of the row space.  Given the pivots of
earlier rows, it adds the new rows to them, so a caller that feeds its rows
in groups can tell which group made each pivot: the pivots keep their
insertion order.

The Koszul differentials are almost binomial, so the row and pivot order
decide the fill.  `koszul` feeds the rows of each generator in turn,
sparsest generator first, with packed monomial keys as columns.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, Optional, Tuple

Row = Dict[int, int]
#: leading column -> (the leading entry, reduced mod p over GF(p); the pivot row)
Pivots = Dict[int, Tuple[int, Row]]


def echelon(rows: Iterable[Row], p: Optional[int], pivots: Optional[Pivots] = None) -> Pivots:
    """Add `rows`, in order, to the echelon form `pivots` (a new one if None)
    and return it; exact over GF(p) (p given) or Z (p None).

    The rows are reduced in place.  A row's leading entry is reduced mod p
    (over Z, tested for 0) each time it leads, and a 0 is deleted.  Other
    entries, a pivot's too, may stay unreduced until an update writes them.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        while row:
            c = max(row)
            lead_c = row[c] if p is None else row[c] % p
            hit = pivots.get(c)
            if hit is None and lead_c:
                pivots[c] = (lead_c, row)
                break
            if not lead_c:
                del row[c]
                continue
            lead, piv = hit
            if p is not None:
                f = lead_c * pow(lead, -1, p) % p
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
    return pivots
