"""Slow, direct references that the tests compare the package against."""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from commuting_ci import linalg
from commuting_ci.groebner import GroebnerBasis, IncompleteComputation
from commuting_ci.groupmat import BOREL, UNIPOTENT, commutator_ring, normalize_kind
from commuting_ci.koszul import KoszulComplex, KoszulSliceReport, _pack, _slice_dim, slices
from commuting_ci.ordering import Coeff, Exponent, MonomialOrder
from commuting_ci.polyring import QQ, Field, Polynomial, PrimeField, RingDescriptor, parse_poly
from commuting_ci.polyring import _coerce

# -- exponent tuples -----------------------------------------------------------


def grevlex_key(order: MonomialOrder) -> Callable[[Exponent], Tuple[int, ...]]:
    """The order as tuple keys, correct for exponents of any size: the
    reference that `ordering.Packing` is checked against.

    Larger key means larger monomial.  The degree comes first: total, or
    sum w_v * e_v when the order has weights.  Ties in degree are broken by
    the reverse lexicographic rule: the monomial whose exponent is smaller at
    the last position where they differ (in permuted order) is larger.
    """
    rev = order.permutation[:0:-1]
    weights = order.weights or (1,) * order.nvars

    def key(exp: Exponent) -> Tuple[int, ...]:
        return (sum(w * e for w, e in zip(weights, exp)), *[-exp[v] for v in rev])

    return key


def leading_exponent(order: MonomialOrder, terms: Iterable[Exponent]) -> Exponent:
    return max(terms, key=grevlex_key(order))


def divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x if x > y else y for x, y in zip(a, b))


# -- arithmetic on exponent tuples, normalized by the `Polynomial` constructor --


def add(*polys: Polynomial) -> Polynomial:
    """The sum of polynomials over one ring."""
    return Polynomial(polys[0].ring, [t for p in polys for t in p.terms.items()])


def scale(p: Polynomial, c: Coeff) -> Polynomial:
    """c * p, for a coefficient c."""
    return Polynomial(p.ring, [(e, c * a) for e, a in p.terms.items()])


def mul(*polys: Polynomial) -> Polynomial:
    """The product of polynomials over one ring, term by term."""
    out = polys[0]
    for q in polys[1:]:
        pairs = product(out.terms.items(), q.terms.items())
        out = Polynomial(out.ring, [(map(int.__add__, a, b), c * d) for (a, c), (b, d) in pairs])
    return out


def reduce_units(p: Polynomial) -> Polynomial:
    """Cancel the ring's unit pairs (a, b) inside every monomial: x_a * x_b -> 1."""
    terms = []
    for exp, c in p.terms.items():
        exp = list(exp)
        for a, b in p.ring.unit_pairs:
            m = min(exp[a], exp[b])
            exp[a], exp[b] = exp[a] - m, exp[b] - m
        terms.append((exp, c))
    return Polynomial(p.ring, terms)


def spolynomial(f: Polynomial, g: Polynomial, order: Optional[MonomialOrder] = None) -> Polynomial:
    """S-polynomial of f and g, by arithmetic on exponent tuples."""
    if order is None:
        order = MonomialOrder.identity(f.ring.nvars)
    lmf = leading_exponent(order, f.terms)
    lmg = leading_exponent(order, g.terms)
    m = lcm(lmf, lmg)

    def cofactor(lm: Exponent, lc: Coeff) -> Polynomial:
        # m / (lc * x^lm); the constructor maps 1/lc into the field
        return Polynomial(f.ring, {tuple(a - b for a, b in zip(m, lm)): Fraction(1) / lc})

    return add(mul(f, cofactor(lmf, f.terms[lmf])), mul(g, cofactor(lmg, -g.terms[lmg])))


# -- rings and polynomials -----------------------------------------------------


def with_field(ring: RingDescriptor, field: Field) -> RingDescriptor:
    """The same variables, weights and unit pairs over another field."""
    return RingDescriptor(tuple(zip(ring.variables, ring.weights)), field, ring.unit_pairs)


def reduce_mod(p: Polynomial, prime: int) -> Polynomial:
    """Map a rational-coefficient polynomial into GF(prime).

    Raises ZeroDivisionError when a denominator vanishes mod prime.
    """
    return Polynomial(with_field(p.ring, PrimeField(prime)), p.terms)


def evaluate(p: Polynomial, values: Mapping[str, Coeff]) -> Coeff:
    """Evaluate p at a point given by name -> coefficient."""
    ring = p.ring
    idxval: Dict[int, Coeff] = {ring.index(k): _coerce(ring.field, v) for k, v in values.items()}
    total: Coeff = 0
    for exp, c in p.terms.items():
        v = c
        for i, e in enumerate(exp):
            if e:
                v = v * idxval[i] ** e  # KeyError for a variable without a value
        total = total + v
    if isinstance(ring.field, PrimeField):
        total %= ring.field.p
    return total


# -- the commutator word --------------------------------------------------------

Matrix = List[List[Polynomial]]


def _word_product(ring: RingDescriptor, A: Matrix, B: Matrix) -> Matrix:
    """A*B for upper-triangular A and B (k runs over i..j only), unit-reduced."""
    n = len(A)
    out = [[ring.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = reduce_units(add(*(mul(A[i][k], B[k][j]) for k in range(i, j + 1))))
    return out


def _word_solve(
    ring: RingDescriptor, A: Matrix, B: Matrix, inv_diag: Optional[Sequence[Polynomial]]
) -> Matrix:
    """W with W*B = A for upper-triangular A and B, by forward substitution;
    `inv_diag[j]` inverts B[j][j] modulo the unit relations, None means B has
    unit diagonal."""
    n = len(A)
    W = [[ring.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            W[i][j] = add(A[i][j], *(scale(mul(W[i][k], B[k][j]), -1) for k in range(i, j)))
            if inv_diag is not None:
                W[i][j] = reduce_units(mul(W[i][j], inv_diag[j]))
    return W


def reference_word(kind: str, n: int, genus: int, field: Field = QQ) -> Matrix:
    """The word matrix of `commutator_word`, by arithmetic on exponent
    tuples: the product of the genus commutators [X_t, Y_t], each
    as W' with W'*(Y*X) = W*X*Y, minus the identity for B_n."""
    kind = normalize_kind(kind)
    ring = commutator_ring(kind, n, genus, field)
    zero, one = ring.zero(), ring.one()
    word = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for t in range(1, genus + 1):
        X: Matrix = []
        Y: Matrix = []
        for i in range(1, n + 1):
            for M, role in ((X, "x"), (Y, "y")):
                row = [zero] * (i - 1) + [one] * (kind == UNIPOTENT)
                row += [parse_poly(f"{role}_{t}_{i}_{j}", ring) for j in range(len(row) + 1, n + 1)]
                M.append(row)
        inv_diag = None
        if kind == BOREL:
            inv_diag = [
                parse_poly(f"d_{2 * t}_{j}*d_{2 * t - 1}_{j}", ring) for j in range(1, n + 1)
            ]
        WXY = _word_product(ring, _word_product(ring, word, X), Y)
        word = _word_solve(ring, WXY, _word_product(ring, Y, X), inv_diag)
    if kind == BOREL:
        for i in range(n):
            word[i][i] = add(word[i][i], scale(one, -1))
    return word


def monomials_of_weight(ring: RingDescriptor, w: int) -> List[Exponent]:
    """All exponent tuples of internal weight exactly w, by recursion over the variables.

    Requires every weight >= 1; otherwise the list is infinite.
    """
    if not ring.positively_weighted():
        raise ValueError("monomials_of_weight needs a positively weighted ring")
    out: List[Exponent] = []
    exp = [0] * ring.nvars

    def rec(i: int, rem: int) -> None:
        if i == ring.nvars:
            if rem == 0:
                out.append(tuple(exp))
            return
        for k in range(rem // ring.weights[i] + 1):
            exp[i] = k
            rec(i + 1, rem - k * ring.weights[i])
        exp[i] = 0

    if w >= 0:
        rec(0, w)
    return out


# -- dimensions of quotients ---------------------------------------------------


def dimension_by_enumeration(gb: GroebnerBasis) -> int:
    """Krull dimension by trying every variable subset, largest first."""
    if not gb.is_complete:
        raise IncompleteComputation("dimension of an incomplete basis is meaningless")
    n = gb.ring.nvars
    supports = [frozenset(i for i, e in enumerate(exp) if e) for exp in gb.leading_exponents()]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            sset = frozenset(subset)
            if not any(s <= sset for s in supports):
                return size
    return 0


def standard_monomial_dimension(gb: GroebnerBasis, weight: int) -> int:
    """Number of weight-`weight` monomials outside the leading-term ideal."""
    if not gb.is_complete:
        raise IncompleteComputation("standard monomials need a complete basis")
    lts = gb.leading_exponents()
    return sum(
        1
        for exp in monomials_of_weight(gb.ring, weight)
        if not any(divides(lt, exp) for lt in lts)
    )


# -- exact ranks -------------------------------------------------------------------


def rank_mod_p(rows: Sequence[Dict[int, int]], ncols: int, p: int) -> int:
    """Rank over GF(p) by `linalg.echelon`, of copies of the rows, which it
    would otherwise reduce in place."""
    return len(linalg.echelon([dict(r) for r in rows], p)) if ncols else 0


def rank_rational(rows: Sequence[Dict[int, Coeff]], ncols: int) -> int:
    """Rank over Q: each row's denominators cleared on a copy, then
    `linalg.echelon` over Z."""
    if not ncols:
        return 0
    over_z = []
    for r in rows:
        den = math.lcm(*(Fraction(v).denominator for v in r.values()))
        over_z.append({c: int(v * den) for c, v in r.items()})
    return len(linalg.echelon(over_z, None))


# -- Koszul slices ---------------------------------------------------------------


class SliceLayout:
    """The packing of the weight-w slices of K alone, and its monomials up to
    weight `top`: the layout `koszul` rebuilt for every slice before its
    slices shared one pass.

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

    def blocks(self, i: int) -> dict:
        """C_i(w) by torus block: packed torus weight -> one (key of t_S,
        moves of d on t_S, monomials m) per S, so that the block's basis is
        the keys t_S + m."""
        ws = self.K.weights
        out: dict = {}
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


def block_rows(parts) -> Tuple[List[Dict[int, Coeff]], int]:
    """Every row of d on one block of `SliceLayout.blocks`, and the number of
    columns.

    A column is the packed key of a C_{i-1}(w) element, numbered when first
    hit.  Entries are the signed generator coefficients, as they stand.
    """
    index: Dict[int, int] = {}
    claim = index.setdefault
    rows: List[Dict[int, Coeff]] = []
    for _, moves, monomials in parts:
        for m in monomials:
            rows.append({claim(m + d, len(index)): c for d, c in moves})
    return rows, len(index)


def homology_slice(K: KoszulComplex, i: int, w: int, **limits) -> KoszulSliceReport:
    """The slice of H_i at weight w: the last report of `slices(K, i, w)`,
    whose lower weights fill the tables that its row skip reads."""
    return list(slices(K, i, w, **limits))[-1]


def reference_slice(K: KoszulComplex, i: int, w: int) -> KoszulSliceReport:
    """One slice with no row skipped: every row of d_i and d_{i+1} built
    from its own layout, block by block, and ranked ("seconds" is None)."""
    dims = (_slice_dim(K, i - 1, w), _slice_dim(K, i, w), _slice_dim(K, i + 1, w))
    prime = K.ring.field.p
    ranks, shapes, blocks, largest = [0, 0], [(0, 0), (0, 0)], 0, (0, 0)
    if dims[1]:
        layout = SliceLayout(K, w, w - sum(sorted(K.weights)[:i]))
        grouped = (layout.blocks(i), layout.blocks(i + 1) if dims[2] else {})
        blocks = len(grouped[0])
        for k, deg in enumerate((i, i + 1)):
            if not (deg >= 1 and dims[k] and dims[k + 1]):
                continue
            nrows = ncols = 0
            for parts in grouped[k].values():
                rows, cols = block_rows(parts)
                ranks[k] += rank_rational(rows, cols) if prime is None else rank_mod_p(rows, cols, prime)
                nrows, ncols = nrows + len(rows), ncols + cols
                if k == 0:
                    largest = max(largest, (len(rows), cols))
            shapes[k] = (nrows, ncols)
    h = dims[1] - sum(ranks)
    return KoszulSliceReport(i, w, dims, h, "ok", tuple(ranks), tuple(shapes), blocks, largest)


def slice_blocks(K: KoszulComplex, i: int, w: int) -> dict:
    """The torus blocks of C_i(w) in the layout of one slice, from a table of
    every monomial of weight <= w."""
    return SliceLayout(K, w, w).blocks(i)


def block_basis(parts) -> List[int]:
    """Packed keys of one block's C_i basis, in the row order of `block_rows`."""
    return [key_S + m for key_S, _, monomials in parts for m in monomials]


def block_columns(parts) -> List[int]:
    """Packed keys of the C_{i-1} columns that d hits on one block, in the
    order `block_rows` numbers them: first hit first."""
    cols: dict = {}
    for _, moves, monomials in parts:
        for m in monomials:
            for d, _ in moves:
                cols.setdefault(m + d, len(cols))
    return list(cols)


def slice_basis(K: KoszulComplex, i: int, w: int) -> List[int]:
    """Packed keys of the C_i(w) basis, block by block."""
    if i < 0 or w < 0:
        return []
    return [key for parts in slice_blocks(K, i, w).values() for key in block_basis(parts)]


def key_torus(K: KoszulComplex, key: int, w: int) -> tuple:
    """Torus weight of the basis element t_S * m packed in `key` at weight w,
    summed from the generators in S and the variables of m."""
    width = max(w.bit_length(), 1)
    nvars = K.ring.nvars
    fields = [(key >> (v * width)) & ((1 << width) - 1) for v in range(nvars)]
    S = [s for s in range(len(K.generators)) if key >> (nvars * width + s) & 1]
    parts = [K.generator_torus[s] for s in S]
    parts += [tuple(e * x for x in K.variable_torus[v]) for v, e in enumerate(fields) if e]
    return tuple(map(sum, zip(*parts))) if parts else (0,) * len(K.variable_torus[0])


def extend_with_zero_generators(K: KoszulComplex, count: int) -> KoszulComplex:
    """Append `count` identically-zero generators of weight 1."""
    zeros = (K.ring.zero(),) * count
    return KoszulComplex(K.ring, K.generators + zeros, K.weights + (1,) * count, K.exterior_zero_count)


def kunneth_zero_check(K: KoszulComplex, zeros: int, max_weight: int) -> bool:
    """Check the tensor formula for appending identically-zero generators.

    Appending z zero generators of weight 1 must multiply homology by an
    exterior algebra on z degree-1, weight-1 generators:

        dim H_i(extended) at w  ==  sum_b C(z, b) * dim H_{i-b}(K) at w - b

    The check runs slice by slice for all weights up to `max_weight` and the
    homological degrees 0, 1 and 2; both sides are computed by the same
    linear algebra.
    """
    ext = extend_with_zero_generators(K, zeros)

    @functools.cache  # keyed by the complex's name: polynomials are unhashable
    def h_dim(name: str, i: int, w: int) -> int:
        if i < 0 or w < 0:
            return 0
        rep = homology_slice({"K": K, "ext": ext}[name], i, w)
        if rep.status != "ok":
            raise RuntimeError(f"slice cap exceeded at H_{i} weight {w}")
        return rep.h_dim

    return all(
        h_dim("ext", i, w) == sum(comb(zeros, b) * h_dim("K", i - b, w - b) for b in range(i + 1))
        for w in range(max_weight + 1)
        for i in range(3)
    )
