"""Koszul complexes on weight-homogeneous generators and their graded slices.

The differential sends the degree-1 generator attached to f_k to f_k and
extends by the graded Leibniz rule, so on the basis element t_S * m (S a set
of generator indices, m a monomial) it is the alternating sum over k in S of
f_k * m placed in t_{S - k}.

Every variable weight is >= 1, so the slice of fixed homological degree i and
internal weight w is finite dimensional; its homology is computed by exact
rank of the two differential matrices over the coefficient field.  Nothing is
ever computed as a module presentation.  A slice is handled in four steps:

* Counting.  dim C_i(w) comes from generating functions: the number of
  monomials of each weight (c[u] += c[u - w_v] over the variables) times the
  number of i-subsets of generators of each weight.  No basis is built to be
  counted, and the size cap is tested on these counts.
* Torus blocks.  Each variable and each generator also has a torus weight:
  a vector of nonnegative fields that sum to its weight.  For a unipotent
  system it is e_i - e_j in simple-root coordinates, the weight of entry
  (i, j) under conjugation by the diagonal torus.  Every generator is
  torus-homogeneous, so the differential preserves the torus weight of
  t_S * m, and each slice splits into blocks, one per torus weight.  The
  monomial table is indexed by packed torus weight, one field per torus
  coordinate, and d_i is built, ranked and dropped one block at a time: the
  rank of d_i is the sum of the block ranks.  A complex given no torus uses
  its scalar weights as a one-field torus, which makes one block per slice.
* Packed keys.  At weight w a basis element t_S * m is one int: the exponent
  of variable v in a field of w.bit_length() bits at bit v * width, and S as
  a bitmask above all the fields.  An exponent of a monomial of weight <= w is
  at most w, so adding packed monomials never carries from one field into the
  next; the same holds for packed torus weights.  Applying generator s with
  term c * x^e to a key is one addition of the precomputed pack(e) - bit(s);
  the sign is (-1)^(elements of S below s).
* Lazy columns.  The rows of a block of d_i are the block's C_i basis; a
  column is numbered when a row first hits its key, so C_{i-1} (for i = 1,
  all monomials of weight w) is never built.

`build_complex` makes the complex of a unipotent commutator system and
`homology_slice` computes one slice; a slice above the size cap, or one that
passes its deadline, is reported "incomplete" instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .groupmat import UNIPOTENT
from .polyring import Exponent, Polynomial, RingDescriptor, jsonable

#: Chain slices above this many basis elements are not materialized.
DEFAULT_SLICE_CAP = 200_000

Torus = Tuple[int, ...]
#: One i-subset S within a torus block: the key of t_S, the moves of d on t_S
#: (key offset and signed coefficient, one per generator term) and the
#: monomials m that complete t_S * m to the block's torus weight.
Part = Tuple[int, List[Tuple[int, object]], List[int]]


class PositiveWeightRequired(ValueError):
    """The complex needs every variable weight >= 1 for finite slices."""


@dataclass(frozen=True)
class KoszulComplex:
    """Generators f_k with their internal weights, over a shared ring.

    `exterior_zero_count` records how many identically-zero generator
    positions were split off before building the complex; their homology
    contribution is a pure exterior factor on that many degree-1 generators
    and is accounted for separately in reports.

    `variable_torus` and `generator_torus` give the torus weight of each
    variable and generator: equally long vectors of nonnegative ints that sum
    to the scalar weight.  Given neither, the scalar weights serve as a
    one-field torus.
    """

    ring: RingDescriptor
    generators: Tuple[Polynomial, ...]
    weights: Tuple[int, ...]
    exterior_zero_count: int = 0
    variable_torus: Optional[Tuple[Torus, ...]] = None
    generator_torus: Optional[Tuple[Torus, ...]] = None

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
        if (self.variable_torus is None) != (self.generator_torus is None):
            raise ValueError("give the torus weights of the variables and the generators, or neither")
        if self.variable_torus is None:
            object.__setattr__(self, "variable_torus", tuple((w,) for w in self.ring.weights))
            object.__setattr__(self, "generator_torus", tuple((w,) for w in self.weights))
        vt, gt = self.variable_torus, self.generator_torus
        if len(vt) != self.ring.nvars or len(gt) != len(self.generators):
            raise ValueError("one torus weight per variable and per generator required")
        if len({len(t) for t in vt + gt}) > 1:
            raise ValueError("torus weights must all have the same number of fields")
        for t, w in zip(vt + gt, self.ring.weights + self.weights):
            if any(x < 0 for x in t) or sum(t) != w:
                raise ValueError(f"torus weight {t} is not nonnegative with sum {w}")
        for f, t in zip(self.generators, gt):
            if any(_torus_of(e, vt) != t for e in f.terms):
                raise ValueError(f"generator not torus-homogeneous of torus weight {t}")


def _torus_of(exp: Exponent, variable_torus: Sequence[Torus]) -> Torus:
    """Torus weight of the monomial x^exp."""
    total = [0] * len(variable_torus[0])
    for v, e in enumerate(exp):
        if e:
            for k, x in enumerate(variable_torus[v]):
                total[k] += e * x
    return tuple(total)


@dataclass
class KoszulSliceReport:
    """Dimensions of one (homological degree, internal weight) slice."""

    i: int
    w: int
    chain_dims: Tuple[int, int, int]  # dims of C_{i-1}, C_i, C_{i+1} at weight w
    h_dim: Optional[int]
    status: str  # "ok" | "incomplete"
    ranks: Optional[Tuple[int, int]] = None  # rank d_i, rank d_{i+1}; None if incomplete
    # (rows, cols) of d_i and d_{i+1} as built, summed over the blocks: cols
    # counts the columns hit, (0, 0) for a map that is zero because one end is empty
    shapes: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None
    # number of nonempty torus blocks of C_i, and (rows, cols) of the d_i
    # block with the most rows ((0, 0) when d_i is not built); None if incomplete
    blocks: Optional[int] = None
    largest_block: Optional[Tuple[int, int]] = None
    # wall seconds spent grouping and building d_i, d_{i+1} ("assembly") and
    # in their ranks ("rank"); None if incomplete
    seconds: Optional[Dict[str, float]] = None

    def to_json(self) -> dict:
        return jsonable(self)


def _root(i: int, j: int, n: int) -> Torus:
    """e_i - e_j for i < j in simple-root coordinates: alpha_i + ... + alpha_{j-1}."""
    return tuple(int(i <= k < j) for k in range(1, n))


def require_unipotent(kind: str) -> None:
    """Refuse a group family whose slices are not finite: every one but unipotent."""
    if kind != UNIPOTENT:
        raise PositiveWeightRequired(
            "only unipotent systems have positively weighted coordinate rings"
        )


def build_complex(system) -> KoszulComplex:
    """Koszul complex on the nonzero generators of a unipotent commutator system,
    graded by the diagonal torus."""
    require_unipotent(system.kind)
    n = system.n
    gens: List[Polynomial] = []
    weights: List[int] = []
    generator_torus: List[Torus] = []
    for (i, j), f in system.generators:
        gens.append(f)
        weights.append(j - i)
        generator_torus.append(_root(i, j, n))
    # entry variables are named x_t_i_j / y_t_i_j
    variable_torus = tuple(
        _root(int(i), int(j), n) for _, _, i, j in (name.split("_") for name in system.ring.variables)
    )
    return KoszulComplex(
        system.ring,
        tuple(gens),
        tuple(weights),
        len(system.zero_positions),
        variable_torus,
        tuple(generator_torus),
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


def _pack(fields: Sequence[int], width: int) -> int:
    return sum(f << (k * width) for k, f in enumerate(fields))


class _SliceLayout:
    """The packing of the weight-w slices of K, and its monomials up to weight `top`.

    `table` maps a packed torus weight to the packed monomials of that torus
    weight, and `layers[u]` lists the packed torus weights of scalar weight u.
    """

    def __init__(self, K: KoszulComplex, w: int, top: int) -> None:
        self.K, self.w = K, w
        width = max(w.bit_length(), 1)  # every exponent and torus field is <= w
        base = K.ring.nvars * width  # first bit of S
        self.base = base
        self.generator_torus = [_pack(t, width) for t in K.generator_torus]
        table: Dict[int, List[int]] = {0: [0]}
        layers: List[List[int]] = [[0]] + [[] for _ in range(top)]
        for v, (wv, tv) in enumerate(zip(K.ring.weights, K.variable_torus)):
            step, tstep = 1 << (v * width), _pack(tv, width)
            # ascending u, so table[t] already holds the monomials using v
            for u in range(top + 1 - wv):
                for t in layers[u]:
                    grown = [m + step for m in table[t]]
                    target = t + tstep
                    if target in table:
                        table[target] += grown
                    else:
                        table[target] = grown
                        layers[u + wv].append(target)
        self.table, self.layers = table, layers
        # applying generator s to t_S * m is adding pack(exponent) - bit(s) to its key
        self.deltas = [
            [
                (sum(e << (v * width) for v, e in enumerate(me) if e) - (1 << (base + s)), c)
                for me, c in f.terms.items()
            ]
            for s, f in enumerate(K.generators)
        ]

    def blocks(self, i: int) -> Dict[int, List[Part]]:
        """C_i(w) by torus block: packed torus weight -> one `Part` per S, so
        that the block's basis is the keys t_S + m."""
        ws = self.K.weights
        out: Dict[int, List[Part]] = {}
        for S in combinations(range(len(ws)), i):
            rem = self.w - sum(ws[s] for s in S)
            if rem < 0:
                continue
            key_S = sum(1 << (self.base + s) for s in S)
            moves = [
                (key_S + d, -c if k & 1 else c) for k, s in enumerate(S) for d, c in self.deltas[s]
            ]
            torus_S = sum(self.generator_torus[s] for s in S)
            for t in self.layers[rem]:
                out.setdefault(torus_S + t, []).append((key_S, moves, self.table[t]))
        return out


def _block_rows(parts: List[Part]) -> Tuple[List[Dict[int, object]], Dict[int, int]]:
    """Rows of d on one block of `_SliceLayout.blocks`, and the column numbering.

    A column is the packed key of a C_{i-1}(w) element, numbered when first
    hit, so C_{i-1}(w) itself is never enumerated.  Entries are the signed
    generator coefficients; `linalg` reduces them into the field.
    """
    index: Dict[int, int] = {}
    claim = index.setdefault
    rows: List[Dict[int, object]] = []
    for _, moves, monomials in parts:
        for m in monomials:
            rows.append({claim(m + d, len(index)): c for d, c in moves})
    return rows, index


def homology_slice(
    K: KoszulComplex,
    i: int,
    w: int,
    *,
    size_cap: int = DEFAULT_SLICE_CAP,
    deadline: Optional[float] = None,
) -> KoszulSliceReport:
    """Exact dimension of H_i at internal weight w.

    Counts the three chain slices, builds d_i on C_i(w) and d_{i+1} on
    C_{i+1}(w) over the coefficient field one torus block at a time, and
    returns dim C_i(w) - rank(d_i) - rank(d_{i+1}).  Slices with a chain
    dimension above `size_cap` yield an "incomplete" report instead of an
    answer, and so does a slice still running past `deadline` (a
    `time.monotonic` value), which is checked before every block.
    """
    if i < 0 or w < 0:
        raise ValueError("homological degree and weight must be nonnegative")
    dims = (_slice_dim(K, i - 1, w), _slice_dim(K, i, w), _slice_dim(K, i + 1, w))
    if max(dims) > size_cap:
        return KoszulSliceReport(i, w, dims, None, "incomplete")
    prime = K.ring.field.p

    ranks = [0, 0]
    shapes = [(0, 0), (0, 0)]
    blocks = 0
    largest = (0, 0)
    seconds = {"assembly": 0.0, "rank": 0.0}
    if dims[1]:
        t0 = time.perf_counter()
        # C_i(w) holds the heaviest monomials of the two chain groups built
        layout = _SliceLayout(K, w, w - sum(sorted(K.weights)[:i]))
        grouped = (layout.blocks(i), layout.blocks(i + 1) if dims[2] else {})
        seconds["assembly"] += time.perf_counter() - t0
        blocks = len(grouped[0])
        for k, deg in enumerate((i, i + 1)):
            # d_deg: C_deg -> C_{deg-1} is zero unless both ends are nonzero
            if not (deg >= 1 and dims[k] and dims[k + 1]):
                continue
            nrows = ncols = 0
            for parts in grouped[k].values():
                if deadline is not None and time.monotonic() > deadline:
                    return KoszulSliceReport(i, w, dims, None, "incomplete")
                t0 = time.perf_counter()
                rows, index = _block_rows(parts)
                t1 = time.perf_counter()
                ranks[k] += _rank(rows, len(index), prime)
                seconds["assembly"] += t1 - t0
                seconds["rank"] += time.perf_counter() - t1
                nrows += len(rows)
                ncols += len(index)
                if k == 0:
                    largest = max(largest, (len(rows), len(index)))
            shapes[k] = (nrows, ncols)
    rank_down, rank_up = ranks

    # d_i d_{i+1} = 0, so rank_down + rank_up <= dim C_i; a violation means
    # the rank computation is wrong, and no homology number may be reported.
    if rank_down + rank_up > dims[1]:
        raise RuntimeError(
            f"rank(d_{i}) + rank(d_{i + 1}) = {rank_down} + {rank_up} exceeds "
            f"dim C_{i} = {dims[1]} at (i, w) = ({i}, {w})"
        )
    h = dims[1] - rank_down - rank_up
    return KoszulSliceReport(
        i, w, dims, h, "ok", tuple(ranks), tuple(shapes), blocks, largest, seconds
    )


def _rank(rows, ncols: int, prime: Optional[int]) -> int:
    if prime is not None:
        return linalg.rank_mod_p(rows, ncols, prime)
    return linalg.rank_rational(rows, ncols)
