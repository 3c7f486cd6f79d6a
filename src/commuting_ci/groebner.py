"""Buchberger Groebner bases and the Krull dimension of the quotient.

The engine is a plain Buchberger loop with the normal selection strategy
(smallest lcm first, hence smallest lcm degree first) and the Gebauer-Moeller
pair update, which implements both the product and the chain criterion.  The
update takes the lcms of the new leading monomial with the whole basis in
one pass and walks them in ascending order, so a candidate is tested only
against the lcms already kept.

Only leading terms steer the pair loop, so each S-polynomial is top-reduced:
reduced until its leading term is irreducible, its tail left as it stands.
That leading term is the one full reduction of the same polynomial would
give, and full reduction of the result gives the same normal form.  The
tails are never reduced further: the codimension reads only the leading
monomials.  A basis is minimal, monic and sorted by leading monomial
ascending, with its tails as the pair loop left them.

Inside `buchberger` every monomial is one packed int, the order key
itself, in the layout `ordering.Packing` defines; a divisor's tail is
stored pre-shifted by -K0, the packing of 1, so each reduction term costs
one addition.  The packing is sized by the input and the degree cap.  The
order is graded, by total degree or by the weighted degree of a wgrevlex
order, and the cap and `max_degree` count that degree; so no reduction and
no S-polynomial that the cap admits ever exceeds it.  Public signatures
and `Polynomial` keep exponent tuples; only the leading monomials and, when
it is read, the basis are unpacked.

One term loop serves both fields: sums are formed exactly, and
`_reduce_terms` reduces a GF(p) coefficient mod p once, when it pops its
monomial, and drops it there if it is 0.  S-polynomials are built as plain
sums, zeros included, for `_reduce_terms` to reduce and drop the same way.

Resource limits (degree cap, wall-clock deadline, memory) never turn into
answers: hitting one names the limit in ``stats.stopped_by``, which makes
the basis incomplete, and every consumer of an incomplete basis refuses to
certify anything from it.  The deadline is an absolute `time.monotonic`
value, as everywhere in the package, so a caller hands one budget to every
stage of a run; it is also checked inside a reduction, every few thousand
heap pops.  A `MemoryError` inside the pair loop ends the run the same way.
A reduction cut short is never admitted.

Dimension of the quotient is read off the leading-term ideal: the maximal
number of variables avoiding the support of every leading monomial.  The
complement is a minimum hitting set, found by branch and bound; tests check
it against exhaustive subset enumeration.
"""

from __future__ import annotations

import heapq
import operator
import time
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .ordering import Coeff, Exponent, MonomialOrder, Packing
from .polyring import Polynomial, RingDescriptor, jsonable


class IncompleteComputation(RuntimeError):
    """A resource limit stopped a computation before a certified answer."""


@dataclass
class BuchbergerStats:
    """Counters for one basis computation.

    `stopped_by` names the limit that ended an incomplete run ("timeout",
    "degree_cap" or "memory", else None); `basis_size` and `pairs_pending`
    are the sizes of the basis and of the pair set when the pair loop ended.
    `max_degree` is the largest leading-monomial degree in the order's
    grading, weighted for a wgrevlex order.
    """

    pairs: int = 0
    zero_reductions: int = 0
    max_degree: int = 0
    seconds: float = 0.0
    stopped_by: Optional[str] = None
    basis_size: int = 0
    pairs_pending: int = 0

    def to_json(self) -> dict:
        return {**jsonable(self), "seconds": round(self.seconds, 3)}


@dataclass
class GroebnerBasis:
    """The basis `buchberger` returns, kept packed until `.basis` is read.

    `_elems` are the basis elements as the pair loop left them, monic, packed
    by `_packing`, sorted by leading monomial ascending, and with the tails
    of top-reduced S-polynomials.  No element's leading monomial divides
    another's, so the basis is minimal.  `leading_exponents` unpacks just
    the leading monomials; `.basis` unpacks the elements once, when it is
    first read.
    """

    ring: RingDescriptor
    order: MonomialOrder
    stats: BuchbergerStats
    _packing: Packing = field(repr=False)
    _elems: List[_Elem] = field(repr=False)

    @property
    def is_complete(self) -> bool:
        return self.stats.stopped_by is None

    @cached_property
    def basis(self) -> Tuple[Polynomial, ...]:
        """The elements as the pair loop left them, unpacked on the first read."""
        ring, unpack_terms, one = self.ring, self._packing.unpack_terms, self._packing.one
        return tuple(Polynomial._raw(ring, unpack_terms(e.terms(one))) for e in self._elems)

    def leading_exponents(self) -> List[Exponent]:
        """Leading exponents of `.basis`, ascending, without reading it."""
        unpack = self._packing.unpack
        return [unpack(e.lm) for e in self._elems]


# -- reduction ----------------------------------------------------------------


class _Elem:
    """Preprocessed basis element: monic and packed, tail pre-shifted by -K0."""

    __slots__ = ("lm", "neg", "tail")

    def __init__(self, terms: Dict[int, Coeff], one: int, prime: Optional[int]) -> None:
        lm = max(terms)
        lc = terms[lm]
        if prime is not None:
            inv = pow(lc, prime - 2, prime)
            monic = {e: c * inv % prime for e, c in terms.items()}
        elif lc == 1:
            monic = terms
        else:
            monic = {e: Fraction(c, 1) / lc for e, c in terms.items()}
            monic = {e: int(c) if c.denominator == 1 else c for e, c in monic.items()}
        self.lm = lm
        self.neg = one - lm  # m + neg packs m / lm whenever lm divides m
        self.tail = [(e - one, c) for e, c in monic.items() if e != lm]

    def terms(self, one: int) -> Dict[int, Coeff]:
        """The monic element as a packed term dict, leading term first."""
        terms: Dict[int, Coeff] = {self.lm: 1}
        terms.update((e + one, c) for e, c in self.tail)
        return terms


class _DeadlinePassed(Exception):
    """The deadline passed inside a reduction."""


#: Heap pops between two looks at the clock inside `_reduce_terms`.
_CLOCK_EVERY = 4096


def _reduce_terms(
    terms: Dict[int, Coeff],
    elems: Sequence[_Elem],
    guards: int,
    prime: Optional[int],
    deadline: Optional[float] = None,
    *,
    top: bool = False,
) -> Dict[int, Coeff]:
    """Normal form of a packed term dict against monic divisors, tried in order.

    The full normal form, which admission takes of each generator, or with
    `top` the top-reduced form, which the pair loop takes of each
    S-polynomial: the terms are reduced only until the leading one is
    irreducible, and the rest is returned as it stands, reduced mod p and
    without zeros.  Both have the
    same leading term, and the full normal form of the top-reduced form is
    that of `terms`.  Raises `_DeadlinePassed` once `deadline` (a
    `time.monotonic` value) has passed; the clock is read every
    `_CLOCK_EVERY` heap pops.
    """
    h = dict(terms)
    if not h:
        return h
    heap = [-m for m in h]
    heapq.heapify(heap)
    remainder: Dict[int, Coeff] = {}
    push = heapq.heappush
    pop = heapq.heappop
    pops = 0
    while heap:
        m = -pop(heap)
        if deadline is not None:
            pops += 1
            if pops % _CLOCK_EVERY == 0 and time.monotonic() > deadline:
                raise _DeadlinePassed
        c = h.pop(m, 0)
        if prime is not None:
            c %= prime
        if not c:
            continue
        for g in elems:
            q = m + g.neg
            if not q & guards:
                break
        else:
            remainder[m] = c
            if top:
                for e, v in h.items():
                    if prime is not None:
                        v %= prime
                    if v:
                        remainder[e] = v
                return remainder
            continue
        neg_c = -c
        for et, ct in g.tail:
            e = q + et
            old = h.get(e)
            if old is None:
                h[e] = neg_c * ct
                push(heap, -e)
            else:
                v = old + neg_c * ct
                if v:
                    h[e] = v
                else:
                    del h[e]
    return remainder


# -- Buchberger -------------------------------------------------------------

#: Default cap on the degree of one basis computation, in the order's grading.
DEFAULT_DEGREE_CAP = 30


def buchberger(
    gens: Sequence[Polynomial],
    order: Optional[MonomialOrder] = None,
    *,
    ring: Optional[RingDescriptor] = None,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Optional[float] = None,
) -> GroebnerBasis:
    """Minimal Groebner basis of the ideal generated by `gens`.

    Zero generators are dropped, and each generator is admitted fully
    reduced against those before it.  Each S-polynomial is top-reduced, and
    its tail is kept as it stands.  When the degree cap is hit, `deadline`
    (a `time.monotonic` value; None for no limit) passes or the memory runs
    out, the partial basis is returned with the limit in `stats.stopped_by`,
    so `is_complete` is False; callers must not derive verdicts from it.
    `stats.seconds` covers admission and the pair loop.
    """
    t0 = time.monotonic()
    gens = [g for g in gens if not g.is_zero]
    if ring is None:
        if not gens:
            raise ValueError("need a ring to build the basis of the zero ideal")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    if order is None:
        order = MonomialOrder.identity(ring.nvars)
    prime = ring.field.p
    stats = BuchbergerStats()

    packing = Packing.fitting(order, (e for g in gens for e in g.terms), degree_cap)
    one, guards, shift = packing.one, packing.guards, packing.shift
    polys: List[_Elem] = []  # all elements ever admitted, never removed
    lms: List[int] = []  # their leading monomials
    G: Set[int] = set()  # indices of the current (pruned) basis
    P: Dict[Tuple[int, int], int] = {}  # pending pairs and their lcms
    heap: List[Tuple[int, int, int]] = []  # (lcm, i, j): smallest lcm first
    # the elements of G in ascending index order: remainders depend on it
    reducers: List[_Elem] = []

    def admit(terms: Dict[int, Coeff]) -> None:
        nonlocal reducers
        elem = _Elem(terms, one, prime)
        polys.append(elem)
        lms.append(elem.lm)
        stats.max_degree = max(stats.max_degree, elem.lm >> shift)
        for entry in _update_pairs(lms, G, P, packing):
            heapq.heappush(heap, entry)
        reducers = [polys[k] for k in sorted(G)]

    try:
        # admit the input, reducing each generator against what is already there
        for g in sorted((packing.pack_terms(g.terms) for g in gens), key=max):
            rem = _reduce_terms(g, reducers, guards, prime, deadline)
            if rem:
                admit(rem)

        while heap:
            if deadline is not None and time.monotonic() > deadline:
                stats.stopped_by = "timeout"
                break
            l, i, j = heapq.heappop(heap)
            if (i, j) not in P:
                continue
            if l >> shift > degree_cap:
                stats.stopped_by = "degree_cap"
                break
            fi, fj = polys[i], polys[j]
            qi = l + fi.neg
            qj = l + fj.neg
            s: Dict[int, Coeff] = {qi + e: c for e, c in fi.tail}
            for e, c in fj.tail:
                ee = qj + e
                s[ee] = s.get(ee, 0) - c
            # only the leading term decides the pair loop: the tail stays as it is
            rem = _reduce_terms(s, reducers, guards, prime, deadline, top=True)
            del P[(i, j)]  # only now: a pair cut short by a limit stays pending
            stats.pairs += 1
            if not rem:
                stats.zero_reductions += 1
                continue
            admit(rem)
    except _DeadlinePassed:
        stats.stopped_by = "timeout"
    except MemoryError:
        heap.clear()  # room to finish the report; P still counts the pending pairs
        stats.stopped_by = "memory"
    stats.basis_size = len(G)
    stats.pairs_pending = len(P)
    # each admitted remainder has a leading monomial irreducible by G, and
    # the update drops every element whose leading monomial the new one
    # divides, so no leading monomial in G divides another: G is minimal
    elems = sorted((polys[k] for k in G), key=operator.attrgetter("lm"))
    stats.seconds = time.monotonic() - t0
    return GroebnerBasis(ring, order, stats, packing, elems)


def _update_pairs(
    lms: Sequence[int], G: Set[int], P: Dict[Tuple[int, int], int], packing: Packing
) -> List[Tuple[int, int, int]]:
    """Gebauer-Moeller update after admitting element ih = len(lms) - 1.

    `lms` are the packed leading monomials of every element admitted, `G`
    the indices of the current basis and `P` the pending pairs with their
    lcms.  Prunes `P` and `G` in place, adds ih to `G` and the new pairs to
    `P`, and returns the new pairs as (lcm, i, ih).
    """
    one, guards = packing.one, packing.guards
    ih = len(lms) - 1
    mh = lms[ih]
    negh = one - mh  # x + negh has a guard bit set unless mh divides x
    idx = list(G)
    lcms = packing.lcms(mh, [lms[k] for k in idx])
    # the chain criterion among the candidates: walked by (lcm, not coprime,
    # index), an lcm is kept when no kept lcm divides it, and its first
    # candidate becomes a new pair unless the product criterion drops it
    prod = mh - one  # prod + m packs mh * m
    kept: List[int] = []
    new: List[Tuple[int, int, int]] = []
    flags = [prod + lms[k] != l for k, l in zip(idx, lcms)]  # True unless coprime
    for l, not_coprime, ig in sorted(zip(lcms, flags, idx)):
        t = l + one
        for k in kept:
            if not (t - k) & guards:
                break
        else:
            kept.append(l)
            if not_coprime:
                new.append((l, ig, ih))
    # prune the old pairs whose lcm the new leading monomial strictly improves:
    # it divides lcm(i, j), which differs from lcm(i, h) and from lcm(j, h)
    lcm_of = dict(zip(idx, lcms))
    divided = [(pair, l) for pair, l in P.items() if not (l + negh) & guards]
    missing = list({k for pair, _ in divided for k in pair if k not in lcm_of})
    lcm_of.update(zip(missing, packing.lcms(mh, [lms[k] for k in missing])))
    for (i, j), l in divided:
        if lcm_of[i] != l and lcm_of[j] != l:
            del P[i, j]
    for l, i, j in new:
        P[i, j] = l
    G.difference_update([k for k in idx if not (lms[k] + negh) & guards])
    G.add(ih)
    return new


# -- dimension of the leading-term ideal ------------------------------------


def _minimal_supports(exps: Sequence[Exponent]) -> List[FrozenSet[int]]:
    sups = {frozenset(i for i, e in enumerate(exp) if e) for exp in exps}
    out: List[FrozenSet[int]] = []
    for s in sorted(sups, key=len):
        if not any(t <= s for t in out):
            out.append(s)
    return out


def _min_hitting_set(supports: List[FrozenSet[int]]) -> int:
    """Size of a smallest set of variables meeting every support."""
    supports = sorted(supports, key=len)
    best = len(supports)  # picking one variable per support always works

    def rec(remaining: List[FrozenSet[int]], chosen: int) -> None:
        nonlocal best
        if chosen >= best:
            return
        if not remaining:
            best = chosen
            return
        # lower bound: pairwise-disjoint supports need one pick each
        bound = chosen
        seen: Set[int] = set()
        for s in remaining:
            if not (s & seen):
                bound += 1
                seen |= s
        if bound >= best:
            return
        s0 = remaining[0]
        for v in sorted(s0):
            rest = [s for s in remaining if v not in s]
            rec(rest, chosen + 1)

    rec(supports, 0)
    return best


def krull_dimension(gb: GroebnerBasis) -> int:
    """Dimension of the quotient by the ideal, from its leading-term ideal:
    the largest cardinality of a variable set S such that no leading monomial
    has support inside S."""
    if not gb.is_complete:
        raise IncompleteComputation("dimension of an incomplete basis is meaningless")
    n = gb.ring.nvars
    lts = gb.leading_exponents()
    if not lts:
        return n
    supports = _minimal_supports(lts)
    if any(not s for s in supports):
        raise ValueError("unit ideal has no Krull dimension in this setting")
    return n - _min_hitting_set(supports)
