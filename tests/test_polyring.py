"""Polynomial arithmetic, grading, and the textual format."""

import random
from fractions import Fraction

import pytest

from commuting_ci.ordering import MonomialOrder
from commuting_ci.polyring import (
    BOTTOM_WEIGHT,
    PRIME_BOUND,
    Polynomial,
    PrimeField,
    RingDescriptor,
    RingMismatchError,
    format_poly,
    parse_poly,
)

from oracles import monomials_of_weight, reduce_mod

U3_VARS = [
    ("x_1_1_2", 1),
    ("x_1_1_3", 2),
    ("x_1_2_3", 1),
    ("y_1_1_2", 1),
    ("y_1_1_3", 2),
    ("y_1_2_3", 1),
]


@pytest.fixture
def ring():
    return RingDescriptor(U3_VARS)


def _random_poly(ring, rng, terms=5, max_exp=3):
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randrange(max_exp) for _ in range(ring.nvars))
        out[exp] = out.get(exp, 0) + rng.randint(-9, 9)
    return Polynomial(ring, out)


def _random_homogeneous(ring, rng, weight):
    monos = monomials_of_weight(ring, weight)
    picks = rng.sample(monos, min(len(monos), 4))
    return Polynomial(ring, {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in picks})


# -- construction and invariants -------------------------------------------


def test_ring_rejects_duplicate_names():
    with pytest.raises(ValueError):
        RingDescriptor([("a", 1), ("a", 2)])


def test_ring_rejects_negative_weights():
    with pytest.raises(ValueError):
        RingDescriptor([("a", -1)])


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(32001)


#: The least strong pseudoprimes to the first 12 and 13 prime bases.
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_prime_field_rejects_strong_pseudoprimes():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    for modulus in (PSI_12, PSI_13):
        with pytest.raises(ValueError):
            PrimeField(modulus)


def test_prime_field_bound():
    assert PrimeField(32003).p == 32003
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert PRIME_BOUND == PSI_13
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        PrimeField(2**89 - 1)  # a Mersenne prime above the bound


def test_canonical_form_is_fixed_point(ring):
    rng = random.Random(7)
    for _ in range(25):
        p = _random_poly(ring, rng)
        again = Polynomial(ring, p.terms)
        assert again == p and again.terms == p.terms
    assert not Polynomial(ring, {(0,) * 6: 0}).terms


# -- add ---------------------------------------------------------------------


def test_add_identity_and_inverse(ring):
    p = _random_poly(ring, random.Random(1))
    assert p + ring.zero() == p
    assert (p + (-p)).is_zero


def test_add_builds_u3_relation(ring):
    lhs = ring.gen("x_1_1_2") * ring.gen("y_1_2_3")
    rhs = ring.gen("y_1_1_2") * ring.gen("x_1_2_3")
    rel = lhs + (-rhs)
    assert rel == parse_poly("x_1_1_2*y_1_2_3 - x_1_2_3*y_1_1_2", ring)


def test_add_ring_mismatch(ring):
    other = RingDescriptor([("z", 1)])
    with pytest.raises(RingMismatchError):
        ring.gen(0) + other.gen(0)


# -- mul ---------------------------------------------------------------------


def test_mul_identity(ring):
    p = _random_poly(ring, random.Random(2))
    assert p * ring.one() == p


def test_mul_weight_of_product_monomial(ring):
    prod = ring.gen("x_1_1_2") * ring.gen("y_1_2_3")
    assert prod.weight_of() == 2


def test_mul_weight_additivity_random(ring):
    # oracle: walk the product terms directly and check every weight
    rng = random.Random(3)
    for _ in range(20):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        p = _random_homogeneous(ring, rng, a)
        q = _random_homogeneous(ring, rng, b)
        prod = p * q
        if p.is_zero or q.is_zero:
            continue
        for exp in prod.terms:
            assert ring.exp_weight(exp) == a + b
        assert prod.weight_of() in (a + b, BOTTOM_WEIGHT)


def test_arbitrary_precision_coefficients(ring):
    big = 10**30
    p = ring.gen("x_1_1_2") * ring.const(big)
    q = p * p
    assert q.terms[(2, 0, 0, 0, 0, 0)] == 10**60
    half = Polynomial(ring, {(1, 0, 0, 0, 0, 0): Fraction(1, big)})
    assert (half * ring.const(big)).terms[(1, 0, 0, 0, 0, 0)] == 1


def test_mul_by_a_coefficient_is_a_type_error(ring):
    # `*` takes two polynomials; a coefficient goes through `ring.const`
    x = ring.gen("x_1_1_2")
    for c in (2, Fraction(1, 3), 0):
        with pytest.raises(TypeError):
            x * c


def test_ring_axioms_random(ring):
    rng = random.Random(4)
    for _ in range(15):
        p, q, r = (_random_poly(ring, rng, terms=4, max_exp=2) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


# -- prime fields -------------------------------------------------------------


def test_reduction_commutes_with_arithmetic(ring):
    rng = random.Random(5)
    for _ in range(15):
        p = _random_poly(ring, rng)
        q = _random_poly(ring, rng)
        assert reduce_mod(p, 32003) * reduce_mod(q, 32003) == reduce_mod(p * q, 32003)
        assert reduce_mod(p, 32003) + reduce_mod(q, 32003) == reduce_mod(p + q, 32003)


def test_reduction_handles_fractions(ring):
    p = Polynomial(ring, {(1, 0, 0, 0, 0, 0): Fraction(1, 2)})
    q = reduce_mod(p, 5)
    assert q.terms == {(1, 0, 0, 0, 0, 0): 3}  # 1/2 = 3 mod 5


def test_reduction_rejects_bad_denominator(ring):
    p = Polynomial(ring, {(1, 0, 0, 0, 0, 0): Fraction(1, 5)})
    with pytest.raises(ZeroDivisionError):
        reduce_mod(p, 5)


# -- weights -------------------------------------------------------------------


def test_weight_of_zero_is_bottom(ring):
    assert ring.zero().weight_of() == BOTTOM_WEIGHT


def test_weight_of_relation(ring):
    rel = parse_poly("x_1_1_2*y_1_2_3 - x_1_2_3*y_1_1_2", ring)
    assert rel.weight_of() == 2


def test_weight_of_mixed_is_none(ring):
    p = ring.gen("x_1_1_2") + ring.gen("x_1_1_3")
    assert p.weight_of() is None


def test_weight_additivity_with_zero(ring):
    p = _random_poly(ring, random.Random(6))
    assert (p * ring.zero()).weight_of() == BOTTOM_WEIGHT


# -- unit pairs ------------------------------------------------------------------


def test_reduce_units_cancels_pairs():
    ring = RingDescriptor([("x", 0), ("d", 0), ("t", 1)], unit_pairs=((1, 0),))
    x, d, t = ring.gen("x"), ring.gen("d"), ring.gen("t")
    assert (x * d * t).reduce_units() == t
    assert (x * x * d * t).reduce_units() == x * t
    assert (x * d * x * d).reduce_units() == ring.one()
    assert (x * t).reduce_units() == x * t


# -- textual format ----------------------------------------------------------------


def test_format_zero(ring):
    assert format_poly(ring.zero()) == "0"
    assert parse_poly("0", ring).is_zero


def test_format_round_trip_random(ring):
    rng = random.Random(10)
    for _ in range(40):
        p = _random_poly(ring, rng)
        assert parse_poly(format_poly(p), ring) == p


def test_format_round_trip_fractions(ring):
    p = Polynomial(
        ring,
        {(2, 0, 0, 0, 0, 0): Fraction(5, 3), (0, 0, 0, 0, 0, 0): Fraction(-1, 2)},
    )
    text = format_poly(p)
    assert text == "5/3*x_1_1_2^2 - 1/2"
    assert parse_poly(text, ring) == p


def test_format_round_trip_prime_field():
    ring = RingDescriptor(U3_VARS, PrimeField(7))
    p = Polynomial(ring, {(1, 0, 0, 0, 0, 0): 6, (0, 0, 0, 0, 0, 0): 3})
    text = format_poly(p)
    assert parse_poly(text, ring) == p


def test_format_is_canonical_under_reparse(ring):
    # printing is a fixed point on canonical text
    rel = parse_poly("x_1_1_2*y_1_2_3 - x_1_2_3*y_1_1_2", ring)
    text = format_poly(rel)
    assert format_poly(parse_poly(text, ring)) == text


def test_format_respects_order(ring):
    rel = parse_poly("x_1_1_2*y_1_2_3 - x_1_2_3*y_1_1_2", ring)
    flipped = MonomialOrder.seeded(ring.nvars, 3)
    text = format_poly(rel, flipped)
    assert parse_poly(text, ring) == rel


@pytest.mark.parametrize("permutation", [(0, 1), (1, 0)])
def test_format_orders_exponents_beyond_sixteen_bits(permutation):
    # the packed key is sized from the terms: y^70000 must not wrap below x
    ring = RingDescriptor([("x", 1), ("y", 1)])
    order = MonomialOrder(permutation)
    assert format_poly(parse_poly("x + y^70000", ring), order) == "y^70000 + x"
    # a degree tie: the smaller exponent of the last variable in the order leads
    tie = parse_poly("x*y^70000 + x^70000*y", ring)
    first = "x^70000*y" if permutation == (0, 1) else "x*y^70000"
    assert format_poly(tie, order).split(" + ")[0] == first


def test_parse_rejects_garbage(ring):
    for bad in ("x_9_9_9", "1 +", "x_1_1_2 ** 2", "2x_1_1_2", ""):
        with pytest.raises((ValueError, KeyError)):
            parse_poly(bad, ring)


def test_monomials_of_weight_counts(ring):
    # six variables of weights (1,2,1,1,2,1): count solutions directly
    for w in range(6):
        monos = monomials_of_weight(ring, w)
        assert len(set(monos)) == len(monos)
        assert all(ring.exp_weight(m) == w for m in monos)
    # w=2 by hand: degree-2 in the four weight-1 vars (10 multisets) plus the
    # two weight-2 vars themselves
    assert len(monomials_of_weight(ring, 2)) == 12
