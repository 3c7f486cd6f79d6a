"""Koszul complexes on weight-homogeneous generators and their graded slices.

The differential sends the degree-1 generator attached to f_k to f_k and
extends by the graded Leibniz rule, so on the basis element t_S * m (S a set
of generator indices, m a monomial) it is the alternating sum over k in S of
f_k * m placed in t_{S - k}.

Every variable weight is >= 1, so the slice of fixed homological degree i and
internal weight w is finite dimensional; its homology is computed by exact
rank of the two differential matrices over the coefficient field.  Nothing is
ever computed as a module presentation.  A slice is handled in three steps:

* Counting.  dim C_i(w) comes from generating functions: the number of
  monomials of each weight (c[u] += c[u - w_v] over the variables) times the
  number of i-subsets of generators of each weight.  No basis is built to be
  counted, and the size cap is tested on these counts.
* Packed keys.  At weight w a basis element t_S * m is one int: the exponent
  of variable v in a field of w.bit_length() bits at bit v * width, and S as
  a bitmask above all the fields.  An exponent of a monomial of weight <= w is
  at most w, so adding packed monomials never carries from one field into the
  next.  Applying generator s with term c * x^e to a key is one addition of
  the precomputed pack(e) - bit(s); the sign is (-1)^(elements of S below s).
* Lazy columns.  d_i and d_{i+1} are built row by row from the bases of C_i
  and C_{i+1}; a column is numbered when a row first hits its key, so
  C_{i-1} (for i = 1, all monomials of weight w) is never built.

`build_complex` makes the complex of a unipotent commutator system and
`homology_slice` computes one slice; a slice above the size cap is reported
"incomplete" instead of being built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .polyring import Polynomial, RingDescriptor

#: Chain slices above this many basis elements are not materialized.
DEFAULT_SLICE_CAP = 200_000


class PositiveWeightRequired(ValueError):
    """The complex needs every variable weight >= 1 for finite slices."""


@dataclass(frozen=True)
class KoszulComplex:
    """Generators f_k with their internal weights, over a shared ring.

    `exterior_zero_count` records how many identically-zero generator
    positions were split off before building the complex; their homology
    contribution is a pure exterior factor on that many degree-1 generators
    and is accounted for separately in reports.
    """

    ring: RingDescriptor
    generators: Tuple[Polynomial, ...]
    weights: Tuple[int, ...]
    exterior_zero_count: int = 0

    def __post_init__(self) -> None:
        if not self.ring.positively_weighted():
            raise PositiveWeightRequired(
                "weight-0 variables make graded slices infinite dimensional"
            )
        if len(self.generators) != len(self.weights):
            raise ValueError("one weight per generator required")
        for f, w in zip(self.generators, self.weights):
            if w < 1:
                raise ValueError("generator weights must be >= 1")
            if not f.is_zero:
                fw = f.weight_of()
                if fw != w:
                    raise ValueError(f"generator not weight-homogeneous of weight {w}")


@dataclass
class KoszulSliceReport:
    """Dimensions of one (homological degree, internal weight) slice."""

    i: int
    w: int
    chain_dims: Tuple[int, int, int]  # dims of C_{i-1}, C_i, C_{i+1} at weight w
    h_dim: Optional[int]
    status: str  # "ok" | "incomplete"
    ranks: Optional[Tuple[int, int]] = None  # rank d_i, rank d_{i+1}; None if incomplete
    # (rows, cols) of d_i and d_{i+1} as built: cols counts the columns hit,
    # (0, 0) for a map that is zero because one end is empty
    shapes: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None
    # wall seconds spent building d_i, d_{i+1} ("assembly") and in their
    # ranks ("rank"); None if incomplete
    seconds: Optional[Dict[str, float]] = None

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "w": self.w,
            "chain_dims": list(self.chain_dims),
            "h_dim": self.h_dim,
            "status": self.status,
            "ranks": None if self.ranks is None else list(self.ranks),
            "shapes": None if self.shapes is None else [list(s) for s in self.shapes],
            "seconds": None if self.seconds is None else dict(self.seconds),
        }


def build_complex(system) -> KoszulComplex:
    """Koszul complex on the nonzero generators of a unipotent commutator system."""
    from .groupmat import UNIPOTENT  # local import to avoid a cycle

    if system.kind != UNIPOTENT:
        raise PositiveWeightRequired(
            "only unipotent systems have positively weighted coordinate rings"
        )
    gens: List[Polynomial] = []
    weights: List[int] = []
    for (i, j), f in system.generators:
        gens.append(f)
        weights.append(j - i)
    return KoszulComplex(
        system.ring, tuple(gens), tuple(weights), len(system.zero_positions)
    )


def _slice_dim(K: KoszulComplex, i: int, w: int) -> int:
    """dim C_i(w) from generating functions; no basis is built to be counted."""
    if i < 0 or w < 0 or i > len(K.generators):
        return 0
    monomials = [1] + [0] * w  # monomials[u]: number of monomials of weight u
    for wv in K.ring.weights:
        for u in range(wv, w + 1):
            monomials[u] += monomials[u - wv]
    # subsets[k][u]: number of k-subsets of the generators of total weight u
    subsets = [[1] + [0] * w] + [[0] * (w + 1) for _ in range(i)]
    for ws in K.weights:
        for k in range(i, 0, -1):
            prev, cur = subsets[k - 1], subsets[k]
            for u in range(ws, w + 1):
                cur[u] += prev[u - ws]
    return sum(count * monomials[w - u] for u, count in enumerate(subsets[i]))


def _monomial_table(weights: Sequence[int], width: int, top: int) -> List[List[int]]:
    """Packed monomials of each weight 0..top, `width` bits per exponent."""
    table = [[0]] + [[] for _ in range(top)]
    for v, wv in enumerate(weights):
        step = 1 << (v * width)
        for u in range(wv, top + 1):
            table[u] += [m + step for m in table[u - wv]]
    return table


def _slice_layout(K: KoszulComplex, i: int, w: int):
    """How C_i(w) is packed: (S, w - weight(S)) for each i-subset S that fits,
    the packed monomial table, the bits per exponent field, and the first bit of S."""
    ws = K.weights
    fits = [
        (S, rem)
        for S in combinations(range(len(ws)), i)
        if (rem := w - sum(ws[s] for s in S)) >= 0
    ]
    width = max(w.bit_length(), 1)  # every exponent of a key is <= w
    table = _monomial_table(K.ring.weights, width, max((rem for _, rem in fits), default=0))
    return fits, table, width, K.ring.nvars * width


def _differential_rows(
    K: KoszulComplex, i: int, w: int
) -> Tuple[List[Dict[int, object]], Dict[int, int]]:
    """Rows of d_i on the C_i(w) basis (i >= 1), and the column numbering.

    A column is the packed key of a C_{i-1}(w) element, numbered when first
    hit, so C_{i-1}(w) itself is never enumerated.  Entries are the signed
    generator coefficients; `linalg` reduces them into the field.
    """
    fits, table, width, base = _slice_layout(K, i, w)
    # applying generator s to t_S * m is adding pack(exponent) - bit(s) to its key
    deltas = [
        [
            (sum(e << (v * width) for v, e in enumerate(me) if e) - (1 << (base + s)), c)
            for me, c in f.terms.items()
        ]
        for s, f in enumerate(K.generators)
    ]
    index: Dict[int, int] = {}
    claim = index.setdefault
    rows: List[Dict[int, object]] = []
    for S, rem in fits:
        key_S = sum(1 << (base + s) for s in S)
        moves = [(key_S + d, -c if k & 1 else c) for k, s in enumerate(S) for d, c in deltas[s]]
        for m in table[rem]:
            rows.append({claim(m + d, len(index)): c for d, c in moves})
    return rows, index


def homology_slice(
    K: KoszulComplex,
    i: int,
    w: int,
    *,
    size_cap: int = DEFAULT_SLICE_CAP,
) -> KoszulSliceReport:
    """Exact dimension of H_i at internal weight w.

    Counts the three chain slices, builds d_i on C_i(w) and d_{i+1} on
    C_{i+1}(w) over the coefficient field, and returns dim C_i(w) -
    rank(d_i) - rank(d_{i+1}).  Slices with a chain dimension above
    `size_cap` yield an "incomplete" report instead of an answer.
    """
    if i < 0 or w < 0:
        raise ValueError("homological degree and weight must be nonnegative")
    dims = (_slice_dim(K, i - 1, w), _slice_dim(K, i, w), _slice_dim(K, i + 1, w))
    if max(dims) > size_cap:
        return KoszulSliceReport(i, w, dims, None, "incomplete")
    prime = K.ring.field.p

    ranks = [0, 0]
    shapes = [(0, 0), (0, 0)]
    seconds = {"assembly": 0.0, "rank": 0.0}
    for k, deg in enumerate((i, i + 1)):
        # d_deg: C_deg -> C_{deg-1} is zero unless both ends are nonzero
        if deg >= 1 and dims[k] and dims[k + 1]:
            t0 = time.perf_counter()
            rows, index = _differential_rows(K, deg, w)
            t1 = time.perf_counter()
            ranks[k] = _rank(rows, len(index), prime)
            seconds["assembly"] += t1 - t0
            seconds["rank"] += time.perf_counter() - t1
            shapes[k] = (len(rows), len(index))
    rank_down, rank_up = ranks

    # d_i d_{i+1} = 0, so rank_down + rank_up <= dim C_i; a violation means
    # the rank computation is wrong, and no homology number may be reported.
    if rank_down + rank_up > dims[1]:
        raise RuntimeError(
            f"rank(d_{i}) + rank(d_{i + 1}) = {rank_down} + {rank_up} exceeds "
            f"dim C_{i} = {dims[1]} at (i, w) = ({i}, {w})"
        )
    h = dims[1] - rank_down - rank_up
    return KoszulSliceReport(i, w, dims, h, "ok", tuple(ranks), tuple(shapes), seconds)


def _rank(rows, ncols: int, prime: Optional[int]) -> int:
    if prime is not None:
        return linalg.rank_mod_p(rows, ncols, prime)
    return linalg.rank_rational(rows, ncols)
