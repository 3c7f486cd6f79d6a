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

* Counting.  dim C_j(w), for j = i - 1, i and i + 1, is counted by torus
  block (below) and never from a basis: the number of monomials of each
  packed torus weight, grown one weight at a time by a recurrence, summed
  over the j-subsets S of generators with w_S <= w.  One walk over the
  generators yields exactly those S, trying a generator only while the
  lightest subset it can start still fits; when some variable has weight 1,
  as in every unipotent system, each S it yields adds at least one basis
  element, so the walk costs no more than the slice.  Monomials are counted
  up to w minus the weight of the lightest j-subset and no further.  The
  size cap is tested on the sums of these counts, and the report's blocks,
  rows and columns come from them too.
* Torus blocks.  Each variable and each generator also has a torus weight:
  a vector of nonnegative fields that sum to its weight.  For a unipotent
  system it is e_i - e_j in simple-root coordinates, the weight of entry
  (i, j) under conjugation by the diagonal torus.  Every generator is
  torus-homogeneous, so the differential preserves the torus weight of
  t_S * m, and each slice splits into blocks, one per torus weight.  The
  monomial table is indexed by packed torus weight, one field per torus
  coordinate, and grows by one weight at a time as the pass needs it; d_i
  is built, ranked and dropped one block at a time, and the rank of d_i is
  the sum of the block ranks.  The scalar weights, given as a one-field
  torus, make one block per slice.
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
  is never built; the report gives each block dim C_{i-1} of its torus
  weight as its columns, from the counts.  A slice that builds no
  differential tables no monomial.
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
rows span the image of d.  A table that misses some leading monomials only
skips fewer rows; in degree i >= 2 no d_1 is built, nothing is tabled and
every row is kept.  A pivot that generator s makes at weight u is looked up
only by rows t_S * m with min S after s and u + w_S <= max_weight, so it is
tabled only if some generator after s is that light: the table never holds a
weight above max_weight minus the least generator weight.

The rank of d_{i+1}, for i >= 1, is found one of two ways in each block:

* The kept rows of d_i are independent.  Then rank d_i is their number and
  ker d_i has the dimension of the skipped rows.  Each skipped row t_S m
  gives z = d(sum_j a_j t_j t_S) in the image of d_{i+1}; in the order above
  its largest term is t_S m, so the z are independent and rank d_{i+1} is at
  least the number of skipped rows.  d_i d_{i+1} = 0 bounds it by dim ker
  d_i, so the two are equal and d_{i+1} is never built.
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
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, islice
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
    to the scalar weight.
    """

    ring: RingDescriptor
    generators: Tuple[Polynomial, ...]
    weights: Tuple[int, ...]
    variable_torus: Tuple[Torus, ...]
    generator_torus: Tuple[Torus, ...]
    exterior_zero_count: int = 0

    def __post_init__(self) -> None:
        if not self.ring.positively_weighted():
            raise PositiveWeightRequired(
                "weight-0 variables make graded slices infinite dimensional"
            )
        if len(self.generators) != len(self.weights):
            raise ValueError("one weight per generator required")
        if any(w < 1 for w in self.weights):
            raise ValueError("generator weights must be >= 1")
        vt, gt = self.variable_torus, self.generator_torus
        if len(vt) != self.ring.nvars or len(gt) != len(self.generators):
            raise ValueError("one torus weight per variable and per generator required")
        if len({len(t) for t in vt + gt}) > 1:
            raise ValueError("torus weights must all have the same number of fields")
        for t, w in zip(vt + gt, self.ring.weights + self.weights):
            if any(x < 0 for x in t) or sum(t) != w:
                raise ValueError(f"torus weight {t} is not nonnegative with sum {w}")
        # each torus sums to its scalar weight, so this also makes every
        # generator weight-homogeneous of its weight
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
    # (rows, cols) of d_i and d_{i+1}, summed over the blocks of their source:
    # a block of C_j at torus weight t has dim C_j(t) rows and dim C_{j-1}(t)
    # cols, and (0, 0) is a map that is zero because one end is empty
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
        variable_torus,
        tuple(generator_torus),
        len(system.zero_positions),
    )


def _pack(fields: Sequence[int], width: int) -> int:
    return sum(f << (k * width) for k, f in enumerate(fields))


def _past(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() > deadline


class _SlicePass:
    """The packing, the monomial table and the leading-monomial table of one
    pass over the weights 0..max_weight of K in homological degree i.

    Generators are numbered by position, sparsest first, and t_S has the bits
    base + position.  `layers[u]` lists the packed torus weights of scalar
    weight u, and `counts` maps each to its number of monomials; `_dims`
    sums them into every chain dimension, block, row and column count of a
    slice.  `table` maps a packed torus weight to its packed monomials in
    increasing order, up to the weight `tabled`.  `lead` maps a tabled pivot
    monomial of d_1 to the position of the generator whose row made it.
    """

    def __init__(self, K: KoszulComplex, i: int, max_weight: int) -> None:
        self.i, self.p = i, K.ring.field.p
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
        # variables that share a weight and a torus weight count alike
        self.classes = Counter((wv, tstep) for wv, _, tstep in self.steps)
        self.counts: Dict[int, int] = {0: 1}
        self.layers: List[List[int]] = [[0]]
        self.table: Dict[int, List[int]] = {0: [0]}
        self.tabled = 0  # the heaviest weight in `table`
        self.lead: Dict[int, int] = {}
        # a pivot that generator s makes at weight u is looked up only by rows
        # t_S * m with min S after s, so only if u + w_S <= max_weight
        self.lead_top = [
            max_weight - min(self.weights[pos + 1 :], default=max_weight + 1)
            for pos in range(self.r)
        ]
        # lightest[p][k]: the weight of the lightest k positions from p on
        self.lightest = [
            list(accumulate(sorted(self.weights[pos:]), initial=0)) for pos in range(self.r + 1)
        ]

    def _count(self, top: int) -> None:
        """Count the monomials of every torus weight up to scalar weight `top`.

        A monomial of weight u, taken u times, is taken once for each unit of
        weight of each of its variables, so the counts c satisfy
        u * c(t) = sum over the variables v and k >= 1 of w_v * c(t - k t_v)
        (the Euler operator on the generating function prod 1 / (1 - z^t_v)),
        and each weight's counts come from lighter ones."""
        counts, layers = self.counts, self.layers
        for u in range(len(layers), top + 1):
            total: Dict[int, int] = {}
            for (wv, tstep), copies in self.classes.items():
                for k in range(1, u // wv + 1):
                    shift = k * tstep
                    for t in layers[u - k * wv]:
                        total[t + shift] = total.get(t + shift, 0) + copies * wv * counts[t]
            for t, c in total.items():
                counts[t] = c // u
            layers.append(list(total))

    def _grow(self, top: int) -> None:
        """Table the monomials of every weight up to `top`.

        A monomial of weight u whose last variable is v is x_v times one of
        weight u - w_v with no variable after v; those have the smallest
        keys, so they are a prefix of each sorted list, and appending them
        for v = 0, 1, ... keeps the new lists sorted."""
        self._count(top)
        table, layers, width = self.table, self.layers, self.width
        for u in range(self.tabled + 1, top + 1):
            for v, (wv, step, tstep) in enumerate(self.steps):
                if wv > u:
                    continue
                below = 1 << ((v + 1) * width)  # the keys with no variable after v
                for t in layers[u - wv]:
                    src = table[t]
                    grown = map(step.__add__, islice(src, bisect_left(src, below)))
                    table.setdefault(t + tstep, []).extend(grown)
            self.tabled = u

    def _subsets(
        self, j: int, w: int, start: int = 0, S: Tuple[int, ...] = (), torus_S: int = 0
    ) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
        """The j-subsets S of the positions from `start` on with w_S <= w, in
        lexicographic order, each with w - w_S and its packed torus weight.
        A position is taken only if the lightest j - 1 after it still fit,
        and the walk stops at the first p whose lightest j from p on do not."""
        ws, lightest = self.weights, self.lightest
        if not j:
            yield S, w, torus_S
            return
        for p in range(start, self.r - j + 1):
            if lightest[p][j] > w:
                return
            if ws[p] + lightest[p + 1][j - 1] <= w:
                yield from self._subsets(
                    j - 1, w - ws[p], p + 1, S + (p,), torus_S + self.generator_torus[p]
                )

    def _dims(self, j: int, w: int) -> Dict[int, int]:
        """dim C_j(w) by torus block, from the monomial counts: packed torus
        weight -> the number of basis elements t_S * m of that weight.  The
        monomials are counted up to w minus the weight of the lightest t_S."""
        if not 0 <= j <= self.r or self.lightest[0][j] > w:
            return {}
        self._count(w - self.lightest[0][j])
        counts, layers, out = self.counts, self.layers, {}
        for _, rem, torus_S in self._subsets(j, w):
            for t in layers[rem]:
                out[torus_S + t] = out.get(torus_S + t, 0) + counts[t]
        return out

    def _blocks(self, j: int, w: int) -> Dict[int, List[Part]]:
        """C_j(w) by torus block: packed torus weight -> one `Part` per S, in
        the order of the positions, so that the block's basis is the keys
        t_S + m."""
        out: Dict[int, List[Part]] = {}
        for S, rem, torus_S in self._subsets(j, w):
            key_S = sum(self.bits[s] for s in S)
            moves = [
                (key_S + d, -c if k & 1 else c) for k, s in enumerate(S) for d, c in self.deltas[s]
            ]
            for t in self.layers[rem]:
                out.setdefault(torus_S + t, []).append((S[0] if S else 0, moves, self.table[t]))
        return out

    def _block(
        self, parts: List[Part], record: Optional[int], seconds: Dict[str, float]
    ) -> Tuple[int, int]:
        """d on one torus block: its kept rows and its rank.  A `record`
        weight means d is d_1 at that weight: each new pivot monomial that a
        later row can look up is tabled with its generator."""
        lead, get, r = self.lead, self.lead.get, self.r
        pivots: linalg.Pivots = {}
        nkept = 0
        for first, moves, monomials in parts:
            t0 = time.perf_counter()
            kept = [m for m in monomials if get(m, r) >= first] if first else monomials
            nkept += len(kept)
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
        return nkept, len(pivots)

    def slice(self, w: int, size_cap: int, deadline: Optional[float]) -> KoszulSliceReport:
        i = self.i
        t0 = time.perf_counter()
        # below, here, above: dim C_{i-1}, C_i and C_{i+1} at w by torus block
        below, here, above = (self._dims(j, w) for j in (i - 1, i, i + 1))
        dims = (sum(below.values()), sum(here.values()), sum(above.values()))
        if max(dims) > size_cap or _past(deadline):
            return KoszulSliceReport(i, w, dims, None, "incomplete")
        ranks = [0, 0]
        shapes = [(0, 0), (0, 0)]
        largest = (0, 0)
        # d_j: C_j -> C_{j-1} is zero unless both ends are nonzero; on block t
        # it has dim C_j(t) rows and dim C_{j-1}(t) cols
        build_down, build_up = dims[0] > 0 and dims[1] > 0, dims[1] > 0 and dims[2] > 0
        if build_down:
            shapes[0] = (dims[1], sum(below.get(t, 0) for t in here))
            largest = max((rows, below.get(t, 0)) for t, rows in here.items())
        if build_up:
            shapes[1] = (dims[2], sum(here.get(t, 0) for t in above))
        if build_down or build_up:
            # C_i(w) holds the heaviest monomials of the chain groups built
            self._grow(w - self.lightest[0][i])
        down = self._blocks(i, w) if build_down else {}
        up = self._blocks(i + 1, w) if build_up else {}
        seconds = {"assembly": time.perf_counter() - t0, "rank": 0.0}
        # the pivots of d_1, whichever end of the slice it is, are tabled
        tabled_down, tabled_up = (w if i == 1 else None), (w if i == 0 else None)
        for t in list(down) + [t for t in up if t not in down]:
            if _past(deadline):
                return KoszulSliceReport(i, w, dims, None, "incomplete")
            independent, skipped = False, 0
            if t in down:
                kept, rank = self._block(down[t], tabled_down, seconds)
                ranks[0] += rank
                independent, skipped = rank == kept, here[t] - kept
            if t in up:
                # kept rows of d_i independent: rank d_{i+1} is the number
                # of rows skipped, and d_{i+1} is not built
                ranks[1] += skipped if independent else self._block(up[t], tabled_up, seconds)[1]
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
            i, w, dims, h, "ok", tuple(ranks), tuple(shapes), len(here), largest, seconds
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
