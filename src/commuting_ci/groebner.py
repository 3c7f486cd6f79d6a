"""Buchberger Groebner bases, normal forms, and the Krull dimension of the quotient.

The engine is a plain Buchberger loop with the normal selection strategy
(smallest lcm first, hence smallest lcm degree first) and the Gebauer-Moeller
pair update, which implements both the product and the chain criterion.
Bases are monic and sorted by leading monomial ascending, and reduced when
`.basis` is first read unless the deadline stopped the run.

Inside `buchberger` and `normal_form` every monomial is one packed int, the
order key itself, in the layout `ordering.Packing` defines; a divisor's
tail is stored pre-shifted by -K0, the packing of 1, so each reduction term
costs one addition.  The packing is sized by the input and, for
`buchberger`, the degree cap.  The order is graded, by total degree or by
the weighted degree of a wgrevlex order, and the cap and `max_degree` count
that degree; so no reduction and no S-polynomial that the cap admits ever
exceeds it.  Public signatures and `Polynomial` keep exponent tuples; only
a basis, when it is read, and remainders are unpacked.

One term loop serves both fields: sums are formed exactly, and
`_reduce_terms` reduces a GF(p) coefficient mod p once, when it pops its
monomial, and drops it there if it is 0.  S-polynomials are built as plain
sums, zeros included, for `_reduce_terms` to reduce and drop the same way.

Resource limits (degree cap, wall-clock deadline) never turn into
answers: hitting one names the limit in ``stats.stopped_by``, which makes
the basis incomplete, and every consumer of an incomplete basis refuses to
certify anything from it.  The deadline is an absolute `time.monotonic`
value, as everywhere in the package, so a caller hands one budget to every
stage of a run; it is also checked inside a reduction, every few thousand
heap pops.  A reduction cut short is never admitted, and the basis of a run
the clock stopped is read as it stands, without inter-reducing it.

Dimension of the quotient is read off the leading-term ideal: the maximal
number of variables avoiding the support of every leading monomial.  The
complement is a minimum hitting set, found by branch and bound; tests check
it against exhaustive subset enumeration.
"""

from __future__ import annotations

import heapq
import json
import operator
import time
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .ordering import Coeff, Exponent, MonomialOrder, Packing
from .polyring import Polynomial, RingDescriptor, format_poly, jsonable


class IncompleteComputation(RuntimeError):
    """A resource limit stopped a computation before a certified answer."""


@dataclass
class BuchbergerStats:
    """Counters for one basis computation.

    `stopped_by` names the limit that ended an incomplete run ("timeout" or
    "degree_cap", else None); `basis_size` and `pairs_pending` are the sizes
    of the basis and of the pair set when the pair loop ended.  `max_degree`
    is the largest leading-monomial degree in the order's grading, weighted
    for a wgrevlex order.
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


@dataclass(frozen=True)
class IdealStats:
    """Variable count, quotient Krull dimension, and codimension."""

    nvars: int
    dimension: int
    codimension: int


@dataclass
class GroebnerBasis:
    """The basis `buchberger` returns, kept packed until `.basis` is read.

    `_elems` are the basis elements as the pair loop left them, monic, packed
    by `_packing` and sorted by leading monomial ascending.  No element's
    leading monomial divides another's, so inter-reduction keeps every
    leading monomial: `leading_exponents` unpacks just those, and the basis
    is reduced when `.basis` is first read.
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
        """Monic, sorted by leading monomial ascending, and reduced unless
        the deadline stopped the run; computed on the first read."""
        elems, guards, prime = self._elems, self._packing.guards, self.ring.field.p
        if self.stats.stopped_by == "timeout":
            # the clock has run out: the basis as it stands, not inter-reduced
            reduced = [e.poly for e in elems]
        else:
            reduced = [
                _reduce_terms(e.poly, elems[:pos] + elems[pos + 1 :], guards, prime)
                for pos, e in enumerate(elems)
            ]
        unpack_terms = self._packing.unpack_terms
        return tuple(Polynomial._raw(self.ring, unpack_terms(r)) for r in reduced)

    def leading_exponents(self) -> List[Exponent]:
        """Leading exponents of `.basis`, ascending, without reading it."""
        unpack = self._packing.unpack
        return [unpack(e.lm) for e in self._elems]

    def dump(self) -> str:
        """One polynomial per line, leading monomials ascending; stats as JSON."""
        lines = [format_poly(g, self.order) for g in self.basis]
        lines.append(json.dumps(self.stats.to_json()))
        return "\n".join(lines)


# -- reduction ----------------------------------------------------------------


class _Elem:
    """Preprocessed basis element: monic and packed, tail pre-shifted by -K0."""

    __slots__ = ("lm", "neg", "tail", "poly")

    def __init__(self, terms: Dict[int, Coeff], one: int, prime: Optional[int]) -> None:
        lm = max(terms)
        lc = terms[lm]
        if prime is not None:
            inv = pow(lc, prime - 2, prime)
            monic = {e: c * inv % prime for e, c in terms.items()}
        elif lc == 1:
            monic = dict(terms)
        else:
            monic = {e: Fraction(c, 1) / lc for e, c in terms.items()}
            monic = {e: int(c) if c.denominator == 1 else c for e, c in monic.items()}
        self.lm = lm
        self.neg = one - lm  # m + neg packs m / lm whenever lm divides m
        self.tail = [(e - one, c) for e, c in monic.items() if e != lm]
        self.poly = monic


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
) -> Dict[int, Coeff]:
    """Full normal form of a packed term dict against monic divisors, tried in order.

    Raises `_DeadlinePassed` once `deadline` (a `time.monotonic` value) has
    passed; the clock is read every `_CLOCK_EVERY` heap pops.
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


def normal_form(
    p: Polynomial,
    divisors: Sequence[Polynomial],
    order: Optional[MonomialOrder] = None,
) -> Polynomial:
    """Remainder of multivariate division of p by `divisors`, in list order.

    No remainder term is divisible by any divisor's leading monomial.  The
    result is deterministic for a fixed order and divisor list.
    """
    ring = p.ring
    if order is None:
        order = MonomialOrder.identity(ring.nvars)
    divisors = [g for g in divisors if not g.is_zero]
    packing = Packing.fitting(order, (e for f in (p, *divisors) for e in f.terms))
    prime = ring.field.p
    elems = [_Elem(packing.pack_terms(g.terms), packing.one, prime) for g in divisors]
    rem = _reduce_terms(packing.pack_terms(p.terms), elems, packing.guards, prime)
    return Polynomial._raw(ring, packing.unpack_terms(rem))


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
    """Groebner basis of the ideal generated by `gens`, reduced when `.basis` is first read.

    Zero generators are dropped.  When the degree cap is hit or `deadline`
    (a `time.monotonic` value; None for no limit) passes, the partial basis
    is returned with the limit in `stats.stopped_by` ("timeout": its
    `.basis` is not inter-reduced), so `is_complete` is False; callers must
    not derive verdicts from it.  `stats.seconds` covers admission and the
    pair loop.
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
    one, guards, shift, lcm = packing.one, packing.guards, packing.shift, packing.lcm
    polys: List[_Elem] = []  # all elements ever admitted, never removed
    G: Set[int] = set()  # indices of the current (pruned) basis
    P: Dict[Tuple[int, int], int] = {}  # pending pairs and their lcms
    heap: List[Tuple[int, int, int]] = []  # (lcm, i, j): smallest lcm first
    # the elements of G in ascending index order: remainders depend on it
    reducers: List[_Elem] = []

    def update(ih: int) -> None:
        """Gebauer-Moeller pair update after admitting element `ih`."""
        nonlocal G, P, reducers
        mh = polys[ih].lm
        negh = one - mh  # x + negh has a guard bit set unless mh divides x
        # candidate new pairs, filtered by the chain criterion among themselves
        C = sorted(G)
        D: List[int] = []
        lcms = {ig: lcm(mh, polys[ig].lm) for ig in C}
        while C:
            ig = C.pop()
            lhg = lcms[ig]
            if mh + polys[ig].lm - one == lhg:
                D.append(ig)  # product criterion pairs are kept only to prune others
                continue
            base = lhg + one
            if not any(not (base - lcms[ix]) & guards for ix in C) and not any(
                not (base - lcms[ix]) & guards for ix in D
            ):
                D.append(ig)
        E = [ig for ig in D if mh + polys[ig].lm - one != lcms[ig]]
        # prune old pairs whose lcm the new leading monomial strictly improves
        newP: Dict[Tuple[int, int], int] = {}
        for pair, lij in P.items():
            if (
                (lij + negh) & guards
                or lcm(polys[pair[0]].lm, mh) == lij
                or lcm(polys[pair[1]].lm, mh) == lij
            ):
                newP[pair] = lij
        for ig in E:
            pair = (ig, ih) if ig < ih else (ih, ig)
            l = lcms[ig]
            newP[pair] = l
            heapq.heappush(heap, (l, pair[0], pair[1]))
        P = newP
        G = {ig for ig in G if (polys[ig].lm + negh) & guards}
        G.add(ih)
        reducers = [polys[k] for k in sorted(G)]

    def admit(terms: Dict[int, Coeff]) -> None:
        elem = _Elem(terms, one, prime)
        polys.append(elem)
        stats.max_degree = max(stats.max_degree, elem.lm >> shift)
        update(len(polys) - 1)

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
            rem = _reduce_terms(s, reducers, guards, prime, deadline)
            del P[(i, j)]  # only now: a pair cut short by the clock stays pending
            stats.pairs += 1
            if not rem:
                stats.zero_reductions += 1
                continue
            admit(rem)
    except _DeadlinePassed:
        stats.stopped_by = "timeout"
    stats.basis_size = len(G)
    stats.pairs_pending = len(P)
    # each admitted remainder is reduced against G, and the update drops
    # every element whose leading monomial the new one divides, so no
    # leading monomial in G divides another: G is already a minimal basis
    elems = sorted((polys[k] for k in G), key=operator.attrgetter("lm"))
    stats.seconds = time.monotonic() - t0
    return GroebnerBasis(ring, order, stats, packing, elems)


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


def krull_dimension(gb: GroebnerBasis) -> IdealStats:
    """Dimension of the quotient by the ideal, from its leading-term ideal.

    Returns the largest cardinality of a variable set S such that no leading
    monomial has support inside S, together with the codimension N - dim.
    """
    if not gb.is_complete:
        raise IncompleteComputation("dimension of an incomplete basis is meaningless")
    n = gb.ring.nvars
    lts = gb.leading_exponents()
    if not lts:
        return IdealStats(n, n, 0)
    supports = _minimal_supports(lts)
    if any(not s for s in supports):
        raise ValueError("unit ideal has no Krull dimension in this setting")
    codim = _min_hitting_set(supports)
    return IdealStats(n, n - codim, codim)
