"""Buchberger postconditions, membership, and the dimension combinatorics."""

import hashlib
import json
import random
import re
import sys
import time
import types

import pytest

from commuting_ci import groebner
from commuting_ci.cidecide import decide_ci
from commuting_ci.groebner import (
    IncompleteComputation,
    buchberger,
    krull_dimension,
    normal_form,
)
from commuting_ci.ordering import MonomialOrder, Packing
from commuting_ci.polyring import (
    Polynomial,
    PrimeField,
    RingDescriptor,
    format_poly,
    parse_poly,
)

from conftest import system, system_basis
from oracles import (
    add,
    dimension_by_enumeration,
    grevlex_key,
    leading_exponent,
    monomials_of_weight,
    mul,
    reduce_mod,
    scale,
    spolynomial,
    standard_monomial_dimension,
    with_field,
)


@pytest.fixture
def xy():
    return RingDescriptor([("x", 1), ("y", 1)])


@pytest.fixture
def u3ring():
    return system("un", 3, 1).ring


def u3_relation(ring):
    return parse_poly("x_1_1_2*y_1_2_3 - x_1_2_3*y_1_1_2", ring)


# -- normal form ---------------------------------------------------------------


def test_normal_form_self_reduction(u3ring):
    g = u3_relation(u3ring)
    assert normal_form(g, [g]).is_zero


def test_normal_form_power(xy):
    assert normal_form(parse_poly("x^2", xy), [parse_poly("x", xy)]).is_zero


def test_normal_form_no_divisible_terms(xy):
    rem = normal_form(parse_poly("x^2 + y", xy), [parse_poly("x^2 - y", xy)])
    assert rem == parse_poly("2*y", xy)
    # remainder terms are never divisible by the divisor's leading monomial
    for exp in rem.terms:
        assert not all(e >= l for l, e in zip((2, 0), exp))


def test_normal_form_is_deterministic_in_list_order(xy):
    f, g1, g2 = (parse_poly(t, xy) for t in ("x^2*y", "x^2 - y", "x*y - x"))
    assert normal_form(f, [g1, g2]) == normal_form(f, [g1, g2])
    # different list order may reduce differently but both are valid remainders
    r21 = normal_form(f, [g2, g1])
    for exp in r21.terms:
        assert not all(e >= l for l, e in zip((1, 1), exp))


# -- buchberger -----------------------------------------------------------------


def test_single_generator_basis(u3ring):
    from fractions import Fraction

    g = u3_relation(u3ring)
    gb = buchberger([g])
    assert gb.is_complete
    assert len(gb.basis) == 1
    # monic normalization of the same polynomial
    lead = leading_exponent(gb.order, g.terms)
    assert gb.basis[0] == scale(g, Fraction(1, g.terms[lead]))


def test_xy_basis_and_dimension(xy):
    gb = buchberger([parse_poly("x", xy), parse_poly("y", xy)])
    assert sorted(format_poly(b) for b in gb.basis) == ["x", "y"]
    assert krull_dimension(gb) == 0


def test_zero_ideal_dimension(u3ring):
    gb = buchberger([], ring=u3ring)
    assert krull_dimension(gb) == 6


def test_zero_generators_are_dropped(u3ring):
    gb = buchberger([u3ring.zero(), u3_relation(u3ring)])
    assert len(gb.basis) == 1


def test_u3_dimension_and_enumeration_oracle(u3ring):
    gb = buchberger([u3_relation(u3ring)])
    assert krull_dimension(gb) == 5
    assert dimension_by_enumeration(gb) == 5


def test_u5_full_run():
    gb = system_basis("un", 5, 1, 32003)
    assert gb.is_complete
    assert krull_dimension(gb) == 14


# -- membership --------------------------------------------------------------------


def is_member(p, gens):
    gb = buchberger(gens, ring=p.ring)
    assert gb.is_complete
    return normal_form(p, gb.basis, gb.order).is_zero


def test_membership_zero(u3ring):
    assert is_member(u3ring.zero(), [u3_relation(u3ring)])


def test_membership_constructed_member(u3ring):
    rng = random.Random(11)
    g1 = u3_relation(u3ring)
    g2 = parse_poly("x_1_1_3*y_1_1_2 - y_1_1_3", u3ring)
    for _ in range(5):
        q = Polynomial(
            u3ring,
            {
                tuple(rng.randrange(2) for _ in range(6)): rng.randint(-3, 3)
                for _ in range(3)
            },
        )
        assert is_member(add(mul(g1, q), g2), [g1, g2])


def test_membership_rejects_low_weight(u3ring):
    assert not is_member(parse_poly("x_1_1_2", u3ring), [u3_relation(u3ring)])


# -- S-pair postcondition -----------------------------------------------------------


@pytest.mark.parametrize(
    "kind,n,genus,prime",
    [("un", 3, 1, None), ("un", 4, 1, None), ("bn", 2, 1, None), ("un", 5, 1, 32003), ("bn", 3, 1, 32003)],
)
def test_all_spairs_reduce_to_zero(kind, n, genus, prime):
    gb = system_basis(kind, n, genus, prime)
    assert gb.is_complete
    assert len(gb.basis) <= 40
    for i in range(len(gb.basis)):
        for j in range(i + 1, len(gb.basis)):
            s = spolynomial(gb.basis[i], gb.basis[j], gb.order)
            assert normal_form(s, gb.basis, gb.order).is_zero


def test_weighted_basis_passes_the_buchberger_criterion():
    # the wgrevlex basis `decide_ci` computes for U_n, checked with tuple
    # arithmetic in the same weighted order
    s = system("un", 4, 1)
    order = MonomialOrder.identity(s.ring.nvars, s.ring.weights)
    gens = [f for _, f in s.generators]
    gb = buchberger(gens, order, ring=s.ring)
    assert gb.is_complete and gb.order.weights == s.ring.weights
    basis = gb.basis
    assert gb.leading_exponents() == [leading_exponent(order, g.terms) for g in basis]
    for i, f in enumerate(basis):
        for g in basis[i + 1 :]:
            assert normal_form(spolynomial(f, g, order), basis, order).is_zero
    assert all(normal_form(f, basis, order).is_zero for f in gens)


def test_basis_is_reduced():
    gb = system_basis("un", 4, 1)
    lms = [leading_exponent(gb.order, g.terms) for g in gb.basis]
    for i, g in enumerate(gb.basis):
        for exp in g.terms:
            for j, lm in enumerate(lms):
                if j != i:
                    assert not all(e >= l for l, e in zip(lm, exp)), "reducible term survived"


# -- dimension oracle ------------------------------------------------------------------


def test_dimension_agrees_with_enumeration_on_random_monomial_ideals():
    rng = random.Random(2024)
    for trial in range(20):
        nvars = rng.randint(3, 12)
        ring = RingDescriptor([(f"v{i}", 1) for i in range(nvars)])
        gens = []
        for _ in range(rng.randint(1, 6)):
            exp = [0] * nvars
            for _ in range(rng.randint(1, 3)):
                exp[rng.randrange(nvars)] += rng.randint(1, 2)
            gens.append(Polynomial(ring, {tuple(exp): 1}))
        gb = buchberger(gens)
        assert krull_dimension(gb) == dimension_by_enumeration(gb), f"trial {trial}"


def test_krull_bound_codim_at_most_generator_count():
    for kind, n, genus, prime in [
        ("un", 3, 1, None),
        ("un", 4, 1, None),
        ("un", 5, 1, 32003),
        ("bn", 2, 1, None),
        ("bn", 3, 1, 32003),
    ]:
        s = system(kind, n, genus, prime)
        gb = system_basis(kind, n, genus, prime)
        r = len(s.generators) + len(s.unit_relations)
        assert s.ring.nvars - krull_dimension(gb) <= r


# -- order independence ------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7])
def test_codimension_is_order_independent(seed):
    for kind, n, prime in [("un", 3, None), ("un", 4, None), ("bn", 2, None)]:
        s = system(kind, n, 1, prime)
        gens = [f for _, f in s.generators] + list(s.unit_relations)
        base = krull_dimension(system_basis(kind, n, 1, prime))
        order = MonomialOrder.seeded(s.ring.nvars, seed)
        permuted = krull_dimension(buchberger(gens, order, ring=s.ring))
        assert permuted == base


# -- modular consistency ---------------------------------------------------------------


@pytest.mark.parametrize("kind,n", [("un", 3), ("un", 4), ("bn", 2), ("un", 5)])
def test_modular_leading_terms_match_rational(kind, n):
    s = system(kind, n, 1)
    gens = [f for _, f in s.generators] + list(s.unit_relations)
    gb_q = buchberger(gens, ring=s.ring)
    gens_p = [reduce_mod(g, 32003) for g in gens]
    gb_p = buchberger(gens_p, ring=with_field(s.ring, PrimeField(32003)))
    assert gb_q.is_complete and gb_p.is_complete
    # an unlucky prime would show up as differing leading-term ideals
    assert sorted(gb_q.leading_exponents()) == sorted(gb_p.leading_exponents())


# -- sympy as an extra oracle -------------------------------------------------------------


def test_sympy_agrees_on_random_ideals():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(99)
    for trial in range(25):
        nvars = rng.randint(2, 4)
        ring = RingDescriptor([(f"v{i}", 1) for i in range(nvars)])
        syms = sympy.symbols([f"v{i}" for i in range(nvars)])
        gens, exprs = [], []
        for _ in range(rng.randint(2, 4)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exp = tuple(rng.randint(0, 2) for _ in range(nvars))
                c = rng.randint(-4, 4)
                if c:
                    terms[exp] = terms.get(exp, 0) + c
            p = Polynomial(ring, terms)
            if not p.is_zero:
                gens.append(p)
                e = 0
                for exp, c in p.terms.items():
                    t = sympy.Integer(int(c))
                    for i, ei in enumerate(exp):
                        if ei:
                            t *= syms[i] ** ei
                    e += t
                exprs.append(e)
        if not gens:
            continue
        mine = buchberger(gens, ring=ring, deadline=time.monotonic() + 30)
        assert mine.is_complete
        theirs = sympy.groebner(exprs, *syms, order="grevlex")
        mine_set = {
            frozenset((exp, sympy.Rational(str(c))) for exp, c in g.terms.items())
            for g in mine.basis
        }
        their_set = set()
        for p in theirs.polys:
            lead = p.LC(order="grevlex")
            their_set.add(
                frozenset(
                    (tuple(m), sympy.Rational(c, lead))
                    for m, c in zip(p.monoms(order="grevlex"), p.coeffs(order="grevlex"))
                )
            )
        assert mine_set == their_set, f"trial {trial}"


def test_sympy_agrees_on_small_ideals():
    sympy = pytest.importorskip("sympy")
    s = system("un", 4, 1)
    ring = s.ring
    syms = sympy.symbols(ring.variables)
    gens = []
    for _, f in s.generators:
        expr = 0
        for exp, c in f.terms.items():
            term = sympy.Integer(int(c))
            for i, e in enumerate(exp):
                if e:
                    term *= syms[i] ** e
            expr += term
        gens.append(expr)
    gb = sympy.groebner(gens, *syms, order="grevlex")
    mine = system_basis("un", 4, 1)
    assert len(gb.exprs) == len(mine.basis)
    mine_lts = sorted(leading_exponent(mine.order, g.terms) for g in mine.basis)
    theirs = sorted(tuple(p.LM(order="grevlex").exponents) for p in gb.polys)
    assert mine_lts == theirs


# -- limits -----------------------------------------------------------------------------


def test_timeout_yields_incomplete_not_a_verdict():
    s = system("un", 5, 1, 32003)
    gens = [f for _, f in s.generators]
    gb = buchberger(gens, ring=s.ring, deadline=time.monotonic())
    assert not gb.is_complete
    with pytest.raises(IncompleteComputation):
        krull_dimension(gb)


def test_degree_cap_yields_incomplete():
    s = system("un", 5, 1, 32003)
    gens = [f for _, f in s.generators]
    gb = buchberger(gens, ring=s.ring, degree_cap=2)
    assert not gb.is_complete


def test_tiny_timeout_on_u5_genus_2():
    s = system("un", 5, 2, 32003)
    gens = [f for _, f in s.generators]
    gb = buchberger(gens, ring=s.ring, deadline=time.monotonic() + 0.01)
    assert not gb.is_complete
    assert gb.stats.stopped_by == "timeout"
    assert gb.stats.seconds < 5


def test_deadline_inside_a_reduction_admits_no_partial_remainder(monkeypatch):
    s = system("un", 5, 2, 32003)
    gens = [f for _, f in s.generators]
    admitted = []

    class Recorded(groebner._Elem):
        __slots__ = ()

        def __init__(self, terms, one, prime):
            super().__init__(terms, one, prime)
            admitted.append(dict(self.poly))

    calls = []
    trip = [None]

    def clock():
        # frozen at 0 until call number `trip`, then far past any deadline
        calls.append(sys._getframe(1).f_code.co_name)
        return 1e9 if trip[0] is not None and len(calls) > trip[0] else 0.0

    monkeypatch.setattr(groebner, "_Elem", Recorded)
    monkeypatch.setattr(groebner, "_CLOCK_EVERY", 1)
    monkeypatch.setattr(groebner, "time", types.SimpleNamespace(monotonic=clock))
    full = buchberger(gens, ring=s.ring, degree_cap=6, deadline=1.0)
    reference = list(admitted)
    inside = [k for k, name in enumerate(calls) if name == "_reduce_terms"]
    assert full.stats.stopped_by == "degree_cap" and inside

    # stop at a clock read inside an S-pair reduction halfway through the run
    trip[0] = inside[len(inside) // 2]
    admitted.clear()
    calls.clear()
    cut = buchberger(gens, ring=s.ring, degree_cap=6, deadline=1.0)
    assert calls[-2] == "_reduce_terms"  # the read that tripped (the last one times the run)
    assert not cut.is_complete and cut.stats.stopped_by == "timeout"
    assert cut.stats.pairs < full.stats.pairs and cut.stats.pairs_pending > 0
    # the same deterministic run up to the cut, and nothing admitted from it
    assert 0 < len(admitted) < len(reference)
    assert admitted == reference[: len(admitted)]
    # with the clock run out the basis is returned as admitted, not inter-reduced
    packing = Packing.fitting(cut.order, (e for g in gens for e in g.terms), 6)
    assert len(cut.basis) == cut.stats.basis_size
    assert all(packing.pack_terms(g.terms) in admitted for g in cut.basis)


# -- the basis is reduced when it is read -----------------------------------------------


def count_reductions(monkeypatch):
    """Replace `groebner._reduce_terms` by a spy; the list it returns grows per call."""
    calls = []
    reduce_terms = groebner._reduce_terms

    def spy(*args, **kwargs):
        calls.append(None)
        return reduce_terms(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce_terms", spy)
    return calls


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("prime", [None, 32003])
@pytest.mark.parametrize(
    "kind,n,genus", [("un", 3, 1), ("un", 4, 1), ("un", 5, 1), ("un", 4, 2), ("bn", 2, 1), ("bn", 3, 1)]
)
def test_lazy_basis_agrees_with_read_basis(kind, n, genus, prime, seed, monkeypatch):
    s = system(kind, n, genus, prime)
    gens = [f for _, f in s.generators] + list(s.unit_relations)
    order = MonomialOrder.seeded(s.ring.nvars, seed)
    gb = buchberger(gens, order, ring=s.ring)
    assert gb.is_complete
    calls = count_reductions(monkeypatch)
    lazy_lts = gb.leading_exponents()
    lazy_dim = krull_dimension(gb)
    assert not calls  # neither read the basis
    basis = gb.basis
    assert len(calls) == len(basis) == gb.stats.basis_size
    assert lazy_lts == [leading_exponent(order, g.terms) for g in basis]
    assert krull_dimension(gb) == lazy_dim
    assert gb.basis is basis and len(calls) == len(basis)  # read once


#: `stats` of the `frontier` bench cases at degree cap 7 in the default order
#: (pairs, zero reductions, max degree, basis size, pairs pending, stopped by).
#: The B_n row was computed when `buchberger` still inter-reduced before
#: returning; U_n is ordered by wgrevlex, where the cap counts weighted degree.
@pytest.mark.parametrize(
    "kind,n,genus,field,cap,pinned",
    [
        ("un", 5, 2, "gf:32003", 7, (31, 17, 7, 20, 33, "degree_cap")),
        ("bn", 4, 1, "gf:32003", 7, (365, 266, 8, 81, 288, "degree_cap")),
        ("bn", 3, 1, "q", 30, None),
    ],
)
def test_decide_never_inter_reduces(kind, n, genus, field, cap, pinned, monkeypatch):
    calls = count_reductions(monkeypatch)
    report = decide_ci(kind, n, genus, field=field, degree_cap=cap)
    stats = report.stats
    # one reduction per generator admitted and one per S-pair, none after the loop
    assert len(calls) == report.generators + report.unit_relations + stats["pairs"]
    if pinned is None:
        assert report.verdict == "CI" and stats["stopped_by"] is None
    else:
        assert report.verdict == "Incomplete"
        keys = ("pairs", "zero_reductions", "max_degree", "basis_size", "pairs_pending", "stopped_by")
        assert tuple(stats[k] for k in keys) == pinned


def test_grevlex_frontier_stats_without_inter_reduction(monkeypatch):
    # U5 g2 at degree cap 7 in plain grevlex, the order `decide_ci` used for
    # U_n before wgrevlex: the stats computed when `buchberger` still
    # inter-reduced before returning
    s = system("un", 5, 2, 32003)
    gens = [f for _, f in s.generators]
    calls = count_reductions(monkeypatch)
    gb = buchberger(gens, MonomialOrder.identity(s.ring.nvars), ring=s.ring, degree_cap=7)
    stats = gb.stats
    assert len(calls) == len(gens) + stats.pairs
    pinned = (stats.pairs, stats.zero_reductions, stats.max_degree, stats.basis_size)
    assert pinned + (stats.pairs_pending, stats.stopped_by) == (95, 61, 7, 40, 68, "degree_cap")


# -- dump and standard monomials ------------------------------------------------------------


def test_dump_format():
    gb = system_basis("un", 3, 1)
    lines = gb.dump().splitlines()
    *polys, stats = lines
    payload = json.loads(stats)
    assert set(payload) == {
        "pairs",
        "zero_reductions",
        "max_degree",
        "seconds",
        "stopped_by",
        "basis_size",
        "pairs_pending",
    }
    assert payload["stopped_by"] is None and payload["pairs_pending"] == 0
    assert payload["basis_size"] == len(polys)
    keyf = grevlex_key(gb.order)
    lead_keys = [keyf(leading_exponent(gb.order, parse_poly(t, gb.ring).terms)) for t in polys]
    assert lead_keys == sorted(lead_keys)


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("kind,n", [("un", 4), ("un", 5), ("bn", 3)])
def test_text_leads_with_the_engine_leading_monomial(kind, n, seed):
    # the text format and the engine must read one order: the first term
    # `format_poly` prints is the leading monomial the basis reports
    s = system(kind, n)
    gens = [f for _, f in s.generators] + list(s.unit_relations)
    order = MonomialOrder.seeded(s.ring.nvars, seed)
    gb = buchberger(gens, order, ring=s.ring)
    assert gb.is_complete
    for g, lead in zip(gb.basis, gb.leading_exponents(), strict=True):
        first = re.split(r" [+-] ", format_poly(g, order))[0].lstrip("-")
        assert list(parse_poly(first, s.ring).terms) == [lead]


def test_standard_monomial_count_matches_quotient():
    gb = system_basis("un", 3, 1)
    # weight-2 monomials: 21 of them in the U3 ring; exactly one leading term
    ring = gb.ring
    total = len(monomials_of_weight(ring, 2))
    assert standard_monomial_dimension(gb, 2) == total - 1


# -- pinned bases ------------------------------------------------------------------------

#: sha256 of the polynomial lines of `dump()` and the counters.  The first
#: three are as computed by the exponent-tuple engine this packed engine
#: replaced; the GF(p) cases after them were computed when every term sum was
#: still reduced mod p as it was formed, and pin the reduce-at-pop loop to it.
P61 = 2**61 - 1
P82 = 3317044064679887385961813  # the largest prime below PRIME_BOUND

PINNED = [
    # (kind, n, genus, prime, order seed, degree cap),
    # (sha256, lines, pairs, zero reductions, max degree, status)
    (
        ("un", 5, 1, None, 7, 30),
        ("3a8102fdfa7031247eea3b6efd1d031943d4e5edfbb21bf3df1c2a72abe17ef7", 28, 106, 84, 7, "complete"),
    ),
    (
        ("bn", 3, 1, None, 3, 30),
        ("6f574c9c10891586e14fcb236c9943de267df390471174549bd9c8b1406a3443", 54, 334, 276, 8, "complete"),
    ),
    (
        ("un", 5, 2, 32003, None, 6),
        ("ed4bd58b7bbfe9567436e325361f3e71004ff98487612eb069afee62a57bb5c7", 28, 41, 19, 6, "incomplete"),
    ),
    (  # the B4 case of the `frontier` bench workload
        ("bn", 4, 1, 32003, None, 7),
        ("77fa685872fddea08026a83b3048740f2e31a448671fa10363ca112f69892717", 81, 365, 266, 8, "incomplete"),
    ),
    (
        ("un", 4, 1, P61, None, 30),
        ("fbf58f4d7672dc433f5d86aa1bbf11799699e27dc04562b6d39366e49d4c7dda", 5, 5, 3, 4, "complete"),
    ),
    (
        ("un", 4, 1, P82, None, 30),
        ("09e287531d37e43d3591a27d0a99f7f969b98b47bf6fc4c3a05cfd4e4cd3d34e", 5, 5, 3, 4, "complete"),
    ),
    (
        ("bn", 3, 1, P61, None, 30),
        ("9343e7a9e09816522ac468827abbd337a0005c5ce8a9bb0bdc99b77196c94f1c", 40, 229, 180, 9, "complete"),
    ),
    (
        ("bn", 3, 1, P82, None, 30),
        ("557a427530e723827dc4b01d2db14d07e49259238f69ff17acfebfe3dcad3b09", 40, 229, 180, 9, "complete"),
    ),
]


def _pin_id(case) -> str:
    kind, n, genus, prime = case[:4]
    suffix = "" if prime in (None, 32003) else f"-gf{prime}"
    return f"{kind}{n}-g{genus}{suffix}"


@pytest.mark.parametrize("case,pinned", PINNED, ids=[_pin_id(c) for c, _ in PINNED])
def test_basis_dump_is_pinned(case, pinned):
    kind, n, genus, prime, seed, cap = case
    sha, nlines, pairs, zeros, maxdeg, status = pinned
    s = system(kind, n, genus, prime)
    gens = [f for _, f in s.generators] + list(s.unit_relations)
    order = MonomialOrder.seeded(s.ring.nvars, seed)
    gb = buchberger(gens, order, ring=s.ring, degree_cap=cap)
    *lines, stats = gb.dump().splitlines()
    assert len(lines) == nlines
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == sha
    stats = json.loads(stats)
    assert (stats["pairs"], stats["zero_reductions"], stats["max_degree"]) == (pairs, zeros, maxdeg)
    assert gb.is_complete == (status == "complete")
    assert stats["stopped_by"] == (None if status == "complete" else "degree_cap")
    assert stats["basis_size"] == nlines
