"""Koszul complexes on weight-homogeneous generators and their graded slices.

The differential sends the degree-1 generator attached to f_k to f_k and
extends by the graded Leibniz rule, so on the basis element t_S * m (S a set
of generator indices, m a monomial) it is the alternating sum over k in S of
f_k * m placed in t_{S - k}.

Every variable weight is >= 1, so the slice of fixed homological degree i and
internal weight w is finite dimensional, and H_i at weight w has dimension
dim C_i(w) - rank d_i - rank d_{i+1}, from exact ranks over the coefficient
field.  Nothing is ever computed as a module presentation.  `slices` makes
one pass over the weights w = 0, 1, ..., max_weight, and each slice is
handled in four steps:

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
  coordinate, and grows by one weight at a time as the pass needs it; d_i
  is built, ranked and dropped one block at a time, and the rank of d_i is
  the sum of the block ranks.  A complex given no torus uses its scalar
  weights as a one-field torus, which makes one block per slice.
* Packed keys.  One packing serves the whole pass: a basis element t_S * m
  is one int, the exponent of variable v in a field of
  max_weight.bit_length() bits at bit v * width, and S as a bitmask above all
  the fields.  An exponent of a monomial of weight <= max_weight is at most
  max_weight, so adding packed monomials never carries from one field into
  the next; the same holds for packed torus weights.  A monomial therefore
  has one key at every weight, key(m * m') = key(m) + key(m'), and comparing
  keys is the lex order on exponents, last variable first: a monomial order.
  Applying generator s with term c * x^e to a key is one addition of the
  precomputed pack(e) - bit(s); the sign is (-1)^(elements of S below s).
* Rows.  A row of d_i is a dict from the packed keys of the C_{i-1} elements
  it hits to its entries, so C_{i-1} (for i = 1, all monomials of weight w)
  is never built; the keys a block's rows hit are counted for the report.
  Entries are the signed generator coefficients, with each generator's
  denominators cleared once (a unit multiple of f_s changes no rank), and
  `linalg.echelon` ranks the rows in the order they are built.

Rows skipped by the F5 criterion (Faugere, ISSAC 2002).  The generators are
put in a fixed order, sparsest first; I_{<s} is the ideal of the generators
before s, and LM takes leading monomials in the key order.  In each block the
rows of d_1 are fed to `linalg.echelon` one generator at a time, and each row
is reduced at its largest key.  Once the rows of the generators before s are
in, the pivot columns are LM(I_{<s}) in that block, so tabling each pivot
column (a monomial) with the generator whose row made it gives LM(I_{<s}) at
every weight done.  A row t_S * m is skipped when m is in LM(I_{<s}) at
weight w - w_S, where s = min S.  Such a row is redundant: let
g = sum_{j<s} a_j f_j have leading monomial m.  The Leibniz rule gives
d(sum_j a_j t_j t_S) = g t_S - sum_j a_j t_j d(t_S), and d d = 0 then gives

    d(t_S m) = d(sum_j a_j t_j d(t_S)) - d(t_S (g - m)).

The first term is a combination of rows t_{S'} m' with min S' = j < s, the
second one of rows t_S m' with m' < m.  Order the rows by (min S, S, m):
every skipped row is a combination of smaller rows, so by induction the kept
rows span the image of d.  The keys a set of rows hits are those of its
span, so a skipped row hits no key that the kept rows miss, and neither do
the pivot rows they leave: the shapes are counted from those.  A table that
misses some leading monomials only skips fewer rows; in degree i >= 2 no d_1
is built, nothing is tabled and every row is kept.  A pivot that generator s
makes at weight u is looked up only by rows t_S * m with min S after s and
u + w_S <= max_weight, so it is tabled only if some generator after s is
that light: the table never holds a weight above max_weight minus the least
generator weight.

The rank of d_{i+1}, for i >= 1, is found one of two ways in each block:

* The kept rows of d_i are independent.  Then rank d_i is their number and
  ker d_i has the dimension of the skipped rows.  Each skipped row t_S m
  gives z = d(sum_j a_j t_j t_S) in the image of d_{i+1}; in the order above
  its largest term is t_S m, so the z are independent and rank d_{i+1} is at
  least the number of skipped rows.  d_i d_{i+1} = 0 bounds it by dim ker
  d_i, so the two are equal and d_{i+1} is never built; only the keys its
  kept rows hit are counted.
* Otherwise d_{i+1} is built, its rows skipped the same way, and ranked.
  This fallback is needed: the kept rows can depend on each other through a
  syzygy that is not principal, and then rank d_{i+1} exceeds the number of
  skipped rows.  For (x, x, y) at weight 2 the kept rows t_1 y and t_2 y both
  map to xy; two rows are skipped, while rank d_2 = 3.

`build_complex` makes the complex of a unipotent commutator system;
`slices` computes the slices of one homological degree, weight by weight.
A slice above the size cap, or one that passes its deadline, is reported
"incomplete" instead.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, islice
from math import lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .groupmat import UNIPOTENT
from .ordering import Exponent
from .polyring import Polynomial, RingDescriptor, jsonable

#: Chain slices above this many basis elements are not materialized.
DEFAULT_SLICE_CAP = 200_000

Torus = Tuple[int, ...]
#: One i-subset S within a torus block: the position of its first generator,
#: the moves of d on t_S (key offset and signed coefficient, one per generator
#: term) and the monomials m that complete t_S * m to the block's torus weight.
Part = Tuple[int, List[Tuple[int, int]], List[int]]


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


def _past(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() > deadline


class _SlicePass:
    """The packing, the monomial table and the leading-monomial table of one
    pass over the weights 0..max_weight of K in homological degree i.

    Generators are numbered by position, sparsest first, and t_S has the bits
    base + position.  `table` maps a packed torus weight to its packed
    monomials in increasing order, and `layers[u]` lists the packed torus
    weights of scalar weight u.  `lead` maps a tabled pivot monomial of d_1
    to the position of the generator whose row made it.
    """

    def __init__(self, K: KoszulComplex, i: int, max_weight: int) -> None:
        self.K, self.i, self.p = K, i, K.ring.field.p
        self.width = width = max(max_weight.bit_length(), 1)
        base = K.ring.nvars * width
        order = sorted(range(len(K.generators)), key=lambda s: len(K.generators[s].terms))
        self.r = len(order)
        self.weights = [K.weights[s] for s in order]
        self.generator_torus = [_pack(K.generator_torus[s], width) for s in order]
        self.bits = [1 << (base + pos) for pos in range(self.r)]
        # applying generator s to t_S * m is adding pack(e) - bit(s) to its key;
        # a unit multiple of f_s changes no rank, so its denominators go once
        self.deltas = []
        for pos, s in enumerate(order):
            terms = K.generators[s].terms
            den = lcm(*(c.denominator for c in terms.values()))
            self.deltas.append(
                [
                    (_pack(e, width) - self.bits[pos], c.numerator * (den // c.denominator))
                    for e, c in terms.items()
                ]
            )
        self.steps = [
            (wv, 1 << (v * width), _pack(tv, width))
            for v, (wv, tv) in enumerate(zip(K.ring.weights, K.variable_torus))
        ]
        self.table: Dict[int, List[int]] = {0: [0]}
        self.layers: List[List[int]] = [[0]]
        self.lead: Dict[int, int] = {}
        # a pivot that generator s makes at weight u is looked up only by rows
        # t_S * m with min S after s, so only if u + w_S <= max_weight
        self.lead_top = [
            max_weight - min(self.weights[pos + 1 :], default=max_weight + 1)
            for pos in range(self.r)
        ]
        self.lightest = sum(sorted(K.weights)[:i])  # weight of the lightest t_S in C_i

    def _grow(self, top: int) -> None:
        """Table the monomials of every weight up to `top`.

        A monomial of weight u whose last variable is v is x_v times one of
        weight u - w_v with no variable after v; those have the smallest
        keys, so they are a prefix of each sorted list, and appending them
        for v = 0, 1, ... keeps the new lists sorted."""
        table, layers, width = self.table, self.layers, self.width
        for u in range(len(layers), top + 1):
            layer: List[int] = []
            for v, (wv, step, tstep) in enumerate(self.steps):
                if wv > u:
                    continue
                below = 1 << ((v + 1) * width)  # the keys with no variable after v
                for t in layers[u - wv]:
                    src = table[t]
                    grown = list(map(step.__add__, islice(src, bisect_left(src, below))))
                    target = t + tstep
                    if target in table:
                        table[target] += grown
                    else:
                        table[target] = grown
                        layer.append(target)
            layers.append(layer)

    def _blocks(self, j: int, w: int) -> Dict[int, List[Part]]:
        """C_j(w) by torus block: packed torus weight -> one `Part` per S, in
        the order of the positions, so that the block's basis is the keys
        t_S + m."""
        ws, out = self.weights, {}
        for S in combinations(range(self.r), j):
            rem = w - sum(ws[s] for s in S)
            if rem < 0:
                continue
            key_S = sum(self.bits[s] for s in S)
            moves = [
                (key_S + d, -c if k & 1 else c) for k, s in enumerate(S) for d, c in self.deltas[s]
            ]
            torus_S = sum(self.generator_torus[s] for s in S)
            for t in self.layers[rem]:
                out.setdefault(torus_S + t, []).append((S[0] if S else 0, moves, self.table[t]))
        return out

    def _block(
        self, parts: List[Part], rank: bool, record: Optional[int], seconds: Dict[str, float]
    ) -> Tuple[int, int, int, int]:
        """d on one torus block: its rows, the keys it hits, its kept rows and
        its rank (0 when not `rank`, which builds no row).  A `record` weight
        means d is d_1 at that weight: each new pivot monomial that a later
        row can look up is tabled with its generator.

        The kept rows span the rows, and so do the pivots they leave, so the
        keys hit are those of the pivot rows (which hold no zero entry); when
        no row is built they are those of the kept rows."""
        lead, get, r = self.lead, self.lead.get, self.r
        pivots: linalg.Pivots = {}
        hit: set = set()
        nrows = nkept = 0
        for first, moves, monomials in parts:
            t0 = time.perf_counter()
            nrows += len(monomials)
            kept = [m for m in monomials if get(m, r) >= first] if first else monomials
            nkept += len(kept)
            if not rank:
                for d, _ in moves:
                    hit.update(map(d.__add__, kept))
                seconds["assembly"] += time.perf_counter() - t0
                continue
            rows = [{m + d: c for d, c in moves} for m in kept]
            t1 = time.perf_counter()
            before = len(pivots)
            linalg.echelon(rows, self.p, pivots)
            del rows  # the pivots hold the rows still needed
            if record is not None and record <= self.lead_top[first]:
                for col in islice(reversed(pivots), len(pivots) - before):
                    lead[col] = first
            seconds["assembly"] += t1 - t0
            seconds["rank"] += time.perf_counter() - t1
        t0 = time.perf_counter()
        rank_ = len(pivots)
        while pivots:  # each pivot row is dropped once its keys are in
            hit.update(pivots.popitem()[1][1])
        seconds["assembly"] += time.perf_counter() - t0
        return nrows, len(hit), nkept, rank_

    def slice(self, w: int, size_cap: int, deadline: Optional[float]) -> KoszulSliceReport:
        K, i = self.K, self.i
        dims = (_slice_dim(K, i - 1, w), _slice_dim(K, i, w), _slice_dim(K, i + 1, w))
        if max(dims) > size_cap or _past(deadline):
            return KoszulSliceReport(i, w, dims, None, "incomplete")
        ranks = [0, 0]
        shapes = [(0, 0), (0, 0)]
        blocks = 0
        largest = (0, 0)
        seconds = {"assembly": 0.0, "rank": 0.0}
        if dims[1]:
            t0 = time.perf_counter()
            # C_i(w) holds the heaviest monomials of the chain groups built
            self._grow(w - self.lightest)
            down = self._blocks(i, w)
            up = self._blocks(i + 1, w) if dims[2] else {}
            seconds["assembly"] += time.perf_counter() - t0
            blocks = len(down)
            # d_j: C_j -> C_{j-1} is zero unless both ends are nonzero
            build_down, build_up = i >= 1 and dims[0] > 0, dims[2] > 0
            # the pivots of d_1, whichever end of the slice it is, are tabled
            tabled_down, tabled_up = (w if i == 1 else None), (w if i == 0 else None)
            for t in list(down) + [t for t in up if t not in down]:
                if _past(deadline):
                    return KoszulSliceReport(i, w, dims, None, "incomplete")
                independent, skipped = False, 0
                if build_down and t in down:
                    rows, cols, kept, rank = self._block(down[t], True, tabled_down, seconds)
                    ranks[0] += rank
                    shapes[0] = (shapes[0][0] + rows, shapes[0][1] + cols)
                    largest = max(largest, (rows, cols))
                    independent, skipped = rank == kept, rows - kept
                if build_up and t in up:
                    # kept rows of d_i independent: rank d_{i+1} is the number
                    # of rows skipped, and d_{i+1} only has its keys counted
                    rows, cols, _, rank = self._block(up[t], not independent, tabled_up, seconds)
                    ranks[1] += skipped if independent else rank
                    shapes[1] = (shapes[1][0] + rows, shapes[1][1] + cols)
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


def slices(
    K: KoszulComplex,
    i: int,
    max_weight: int,
    *,
    size_cap: int = DEFAULT_SLICE_CAP,
    deadline: Optional[float] = None,
) -> Iterator[KoszulSliceReport]:
    """The slices of H_i at the weights 0, 1, ..., max_weight, in one pass.

    Each report gives dim C_i(w) - rank(d_i) - rank(d_{i+1}), with d_i and
    d_{i+1} taken over the coefficient field one torus block at a time.  A
    slice with a chain dimension above `size_cap` is reported "incomplete",
    and so is one still running past `deadline` (a `time.monotonic` value),
    which is checked before every slice and every block; once the deadline
    has passed, every later slice is reported "incomplete" too, without work.
    """
    if i < 0 or max_weight < 0:
        raise ValueError("homological degree and weight must be nonnegative")
    run = _SlicePass(K, i, max_weight)
    for w in range(max_weight + 1):
        yield run.slice(w, size_cap, deadline)
