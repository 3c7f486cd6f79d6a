"""Slow, direct references that the tests compare the package against."""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from commuting_ci import koszul
from commuting_ci.groebner import GroebnerBasis, IncompleteComputation
from commuting_ci.koszul import KoszulComplex, homology_slice
from commuting_ci.ordering import Coeff, Exponent, MonomialOrder
from commuting_ci.polyring import Field, Polynomial, PrimeField, RingDescriptor
from commuting_ci.polyring import _coerce

# -- exponent tuples -----------------------------------------------------------


def grevlex_key(order: MonomialOrder) -> Callable[[Exponent], Tuple[int, ...]]:
    """The order as tuple keys, correct for exponents of any size: the
    reference that `ordering.Packing` is checked against.

    Larger key means larger monomial.  Ties in total degree are broken by the
    reverse lexicographic rule: the monomial whose exponent is smaller at the
    last position where they differ (in permuted order) is larger.
    """
    rev = order.permutation[:0:-1]

    def key(exp: Exponent) -> Tuple[int, ...]:
        return (sum(exp), *[-exp[v] for v in rev])

    return key


def leading_exponent(order: MonomialOrder, terms: Iterable[Exponent]) -> Exponent:
    return max(terms, key=grevlex_key(order))


def divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x if x > y else y for x, y in zip(a, b))


def spolynomial(f: Polynomial, g: Polynomial, order: Optional[MonomialOrder] = None) -> Polynomial:
    """S-polynomial of f and g, by `Polynomial` arithmetic on exponent tuples."""
    if order is None:
        order = MonomialOrder.identity(f.ring.nvars)
    lmf = leading_exponent(order, f.terms)
    lmg = leading_exponent(order, g.terms)
    m = lcm(lmf, lmg)

    def cofactor(lm: Exponent, lc: Coeff) -> Polynomial:
        # m / (lc * x^lm); the constructor maps 1/lc into the field
        return Polynomial(f.ring, {tuple(a - b for a, b in zip(m, lm)): Fraction(1) / lc})

    return f * cofactor(lmf, f.terms[lmf]) - g * cofactor(lmg, g.terms[lmg])


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


# -- Koszul slices ---------------------------------------------------------------


def slice_blocks(K: KoszulComplex, i: int, w: int) -> dict:
    """The torus blocks of C_i(w) as `koszul` builds them, from a table of every
    monomial of weight <= w."""
    return koszul._SliceLayout(K, w, w).blocks(i)


def block_basis(parts) -> List[int]:
    """Packed keys of one block's C_i basis, in the row order of `koszul._block_rows`."""
    return [key_S + m for key_S, _, monomials in parts for m in monomials]


def block_columns(parts) -> List[int]:
    """Packed keys of the C_{i-1} columns that d hits on one block, in the
    order `koszul._block_rows` numbers them: first hit first."""
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
