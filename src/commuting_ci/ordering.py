"""The monomial order, and the packed monomials that realise it.

One order family is supported: graded reverse lexicographic, composed with a
permutation of the variables, on a degree that is either the standard total
degree (grevlex) or a weighted degree sum w_v * e_v with positive integer
weights (wgrevlex).  The permutation is enough to probe order-independence
of downstream verdicts; the weights let a weighted-homogeneous ideal, such
as the U_n generators under deg x_t_i_j = j - i, be computed degree by
degree in its own grading.  Grevlex is wgrevlex with every weight 1.

`Packing` is the one implementation of that order.  It packs a monomial into
one int that is its order key (Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  For an order
with permutation p and weights w on n variables and a field width of B bits,
the layout, most significant first, is

    [deg][c_{p[n-1]}] ... [c_{p[1]}][c_{p[0]}],    c_v = fmax - e_v,

with deg = sum w_v * e_v, fmax = 2**B - 1 and one zero guard bit above every
c field.  Because the fields below deg hold complements, the packed int is
the order key itself (c_{p[0]} is fixed by deg and the others, so it never
decides a comparison), and packing is linear: with K0 the packing of 1,

    pack(a * b) = pack(a) + pack(b) - K0,

and a divides b exactly when t = pack(b) + K0 - pack(a) has every guard bit
clear, in which case t packs the quotient b / a.  The lcm of two monomials
is a per-field minimum of the complement fields (SWAR, SIMD within a
register).  Its degree is read back modulo 2**(B+1) - 1 once per weight
class: the fields of the variables of weight w, masked out, are congruent
to their sum, and fmax times their count minus that sum is the class's
share of the lcm's exponents, at most 2 * fmax, so below the modulus.
Grevlex is the single class of weight 1.

`Packing.fitting` sizes B from the data: the largest degree of the monomials
it will see, or a larger degree the caller names.  Since every weight is at
least 1, within that degree every exponent stays within fmax and no field
can carry into its guard; packing an exponent above fmax raises
`OverflowError` instead of mis-ordering.  `polyring.format_poly` sorts terms
by the packed key, and `groebner` and the commutator word build in
`groupmat` compute on packed terms, so text and engine read one order.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Coeff = Union[int, Fraction]


@dataclass(frozen=True)
class MonomialOrder:
    """Graded reverse lexicographic order with a variable permutation.

    ``permutation[k]`` is the ring index of the k-th largest variable.  The
    identity permutation orders variables as the ring declares them.
    ``weights[v]`` is the degree of variable v, every one at least 1; None
    means standard total degree (grevlex).
    """

    permutation: Tuple[int, ...]
    weights: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ValueError("permutation must be a permutation of 0..n-1")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
            if len(self.weights) != len(self.permutation):
                raise ValueError("need one weight per variable")
            if any(w < 1 for w in self.weights):
                raise ValueError("order weights must be positive")

    @staticmethod
    def identity(nvars: int, weights: Optional[Sequence[int]] = None) -> "MonomialOrder":
        return MonomialOrder(tuple(range(nvars)), weights)

    @staticmethod
    def seeded(
        nvars: int, seed: Optional[int], weights: Optional[Sequence[int]] = None
    ) -> "MonomialOrder":
        """Order with the variables shuffled reproducibly by `seed`."""
        if seed is None:
            return MonomialOrder.identity(nvars, weights)
        perm = list(range(nvars))
        random.Random(seed).shuffle(perm)
        return MonomialOrder(tuple(perm), weights)

    @property
    def nvars(self) -> int:
        return len(self.permutation)

    def degree(self, exp: Exponent) -> int:
        """The degree the order grades by: total, or weighted by `weights`."""
        if self.weights is None:
            return sum(exp)
        return sum(map(operator.mul, self.weights, exp))


class Packing:
    """Packed monomials of one order whose degrees stay within `bound`.

    See the module docstring for the layout.  `one` is K0, the packing of the
    monomial 1; `guards` has the guard bit of every complement field set.
    """

    __slots__ = (
        "bits", "fmax", "shift", "one", "guards", "low", "modulus",
        "_classes", "_weights", "_offsets", "_permutation",
    )

    def __init__(self, order: MonomialOrder, bound: int) -> None:
        n = order.nvars
        weights = order.weights or (1,) * n
        bits = max(bound, 1).bit_length()
        width = bits + 1
        self.bits = bits
        self.fmax = fmax = (1 << bits) - 1
        self.shift = n * width  # offset of the degree field
        self.low = (1 << self.shift) - 1  # the complement fields
        ones = self.low // ((1 << width) - 1)  # 1 in every field
        self.one = fmax * ones
        self.guards = ones << bits
        # 2**width is 1 modulo 2**width - 1, so a packed int is congruent to
        # the sum of its fields
        self.modulus = (1 << width) - 1
        offsets = [0] * n  # offsets[v]: bit offset of the field of variable v
        for k, v in enumerate(order.permutation):
            offsets[v] = k * width
        self._permutation = order.permutation  # the variable of each field, lowest first
        # pack(e) = one + (deg(e) << shift) - sum(e_v << offsets[v])
        self._weights = weights
        self._offsets = tuple(offsets)
        # per weight w: (w, mask of the complement fields of weight w, fmax * their count)
        self._classes = tuple(
            (w, sum(fmax << o for wv, o in zip(weights, offsets) if wv == w), weights.count(w) * fmax)
            for w in sorted(set(weights))
        )

    @classmethod
    def fitting(cls, order: MonomialOrder, exps: Iterable[Exponent], degree: int = 0) -> "Packing":
        """The packing for the monomials `exps` and any of degree up to `degree`."""
        return cls(order, max(degree, max(map(order.degree, exps), default=0)))

    def pack(self, exp: Exponent) -> int:
        nonzero = list(compress(exp, exp))  # most monomials have few variables
        if nonzero and max(nonzero) > self.fmax:
            raise OverflowError(
                f"exponent {max(nonzero)} does not fit a {self.bits}-bit packed field"
            )
        deg = sum(map(operator.mul, nonzero, compress(self._weights, exp)))
        fields = sum(map(operator.lshift, nonzero, compress(self._offsets, exp)))
        return self.one + (deg << self.shift) - fields

    def unpack(self, m: int) -> Exponent:
        exps = self.one - (m & self.low)  # fmax - c_v = e_v in every field
        width, permutation = self.bits + 1, self._permutation
        exp = [0] * len(permutation)
        # walk the nonzero fields only, from the top: the highest set bit
        # names the field, the field names the variable
        while exps:
            offset = (exps.bit_length() - 1) // width * width
            e = exps >> offset
            exp[permutation[offset // width]] = e
            exps -= e << offset
        return tuple(exp)

    def pack_terms(self, terms: Dict[Exponent, Coeff]) -> Dict[int, Coeff]:
        pack = self.pack
        return {pack(e): c for e, c in terms.items()}

    def unpack_terms(self, terms: Dict[int, Coeff]) -> Dict[Exponent, Coeff]:
        unpack = self.unpack
        return {unpack(m): c for m, c in terms.items()}

    def lcms(self, a: int, others: Iterable[int]) -> List[int]:
        """lcm(a, b) for each b of `others`, all of degree at most fmax."""
        low, guards, bits, shift = self.low, self.guards, self.bits, self.shift
        modulus, classes = self.modulus, self._classes
        a &= low
        above = a | guards
        out = []
        for b in others:
            b &= low
            # guard bit k is set where field k of a >= field k of b
            ge = (above - b) & guards
            # fieldwise min of complements = max of exponents
            c = a ^ ((a ^ b) & (ge - (ge >> bits)))
            # each class's exponent sum is at most 2 * fmax < modulus, so its residue is it
            deg = 0
            for w, fields, nfmax in classes:
                deg += w * ((nfmax - (c & fields)) % modulus)
            out.append((deg << shift) | c)
        return out
