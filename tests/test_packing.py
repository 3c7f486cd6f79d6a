"""Packed monomials of `ordering.Packing` against the exponent-tuple reference."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import commuting_ci

from commuting_ci import groebner
from commuting_ci.groebner import buchberger
from commuting_ci.ordering import MonomialOrder, Packing
from commuting_ci.polyring import Polynomial, RingDescriptor, format_poly, parse_poly

from oracles import divides, grevlex_key, lcm, normal_form, spolynomial


def random_exponent(rng, n, total):
    """An exponent vector of total degree at most `total`."""
    exp = [0] * n
    for _ in range(rng.randint(0, total)):
        exp[rng.randrange(n)] += 1
    return tuple(exp)


@pytest.mark.parametrize("seed", range(6))
def test_packed_operations_agree_with_tuples(seed):
    rng = random.Random(seed)
    for _ in range(20):
        n = rng.randint(1, 9)
        order = MonomialOrder.seeded(n, rng.randrange(1000))
        bound = rng.choice([1, 2, 3, 7, 8, 30])
        packing = Packing(order, bound)
        key = grevlex_key(order)
        one, guards = packing.one, packing.guards
        assert packing.pack((0,) * n) == one
        for _ in range(40):
            a = random_exponent(rng, n, bound)
            b = random_exponent(rng, n, bound)
            pa, pb = packing.pack(a), packing.pack(b)
            assert packing.unpack(pa) == a
            assert (pa < pb) == (key(a) < key(b)) and (pa == pb) == (a == b)
            # a | b  iff  pack(b) + K0 - pack(a) has no guard bit set; then it is b / a
            t = pb + one - pa
            assert (not t & guards) == divides(a, b)
            if divides(a, b):
                assert packing.unpack(t) == tuple(y - x for x, y in zip(a, b))
            assert packing.lcms(pa, [pb]) == [packing.pack(lcm(a, b))]
            ab = tuple(x + y for x, y in zip(a, b))
            if sum(ab) <= packing.fmax:
                assert pa + pb - one == packing.pack(ab)
        # one pass over many monomials gives each lcm
        a = random_exponent(rng, n, bound)
        bs = [random_exponent(rng, n, bound) for _ in range(10)]
        assert packing.lcms(packing.pack(a), map(packing.pack, bs)) == [packing.pack(lcm(a, b)) for b in bs]


def random_weighted_exponent(rng, weights, total):
    """An exponent vector of weighted degree at most `total`."""
    exp = [0] * len(weights)
    budget = rng.randint(0, total)
    while True:
        fits = [v for v, w in enumerate(weights) if w <= budget]
        if not fits:
            return tuple(exp)
        v = rng.choice(fits)
        exp[v] += 1
        budget -= weights[v]


@pytest.mark.parametrize("seed", range(6))
def test_weighted_packed_operations_agree_with_tuples(seed):
    rng = random.Random(100 + seed)
    for _ in range(20):
        n = rng.randint(1, 9)
        weights = tuple(rng.randint(1, 4) for _ in range(n))
        order = MonomialOrder.seeded(n, rng.randrange(1000), weights)
        bound = rng.choice([1, 2, 3, 7, 8, 30])
        packing = Packing(order, bound)
        key = grevlex_key(order)
        one, guards = packing.one, packing.guards
        assert packing.pack((0,) * n) == one
        for _ in range(40):
            a = random_weighted_exponent(rng, weights, bound)
            b = random_weighted_exponent(rng, weights, bound)
            pa, pb = packing.pack(a), packing.pack(b)
            assert packing.unpack(pa) == a
            assert pa >> packing.shift == order.degree(a)
            assert (pa < pb) == (key(a) < key(b)) and (pa == pb) == (a == b)
            t = pb + one - pa
            assert (not t & guards) == divides(a, b)
            if divides(a, b):
                assert packing.unpack(t) == tuple(y - x for x, y in zip(a, b))
            # the lcm's weighted degree is read back from its complement fields
            assert packing.lcms(pa, [pb]) == [packing.pack(lcm(a, b))]
            ab = tuple(x + y for x, y in zip(a, b))
            if order.degree(ab) <= packing.fmax:
                assert pa + pb - one == packing.pack(ab)
        a = random_weighted_exponent(rng, weights, bound)
        bs = [random_weighted_exponent(rng, weights, bound) for _ in range(10)]
        assert packing.lcms(packing.pack(a), map(packing.pack, bs)) == [packing.pack(lcm(a, b)) for b in bs]


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 16])
def test_weighted_field_width_boundary(bits):
    fmax = (1 << bits) - 1
    order = MonomialOrder((2, 0, 1), weights=(1, 3, 2))
    packing = Packing.fitting(order, [(fmax, 0, 0)])
    assert packing.fmax == fmax and packing.bits == bits
    key = grevlex_key(order)
    # weight 1: exponent fmax has weighted degree fmax, the bound itself
    top = (fmax, 0, 0)
    assert packing.unpack(packing.pack(top)) == top
    others = [(0, fmax // 3, 0), (0, 0, fmax // 2), (fmax - 2, 0, 1), (0, 0, 0), (1, 0, 0)]
    for other in filter(lambda e: min(e) >= 0 and order.degree(e) <= fmax, others):
        assert packing.unpack(packing.pack(other)) == other
        assert (packing.pack(top) < packing.pack(other)) == (key(top) < key(other))
        assert packing.lcms(packing.pack(top), [packing.pack(other)]) == [packing.pack(lcm(top, other))]
    # unpack walks only the nonzero fields: every field at fmax, only field 0
    # (variable 2) and only the top complement field (variable 1)
    for e in (1, fmax):
        for exp in ((fmax, fmax, fmax), (0, 0, e), (0, e, 0)):
            assert packing.unpack(packing.pack(exp)) == exp
    with pytest.raises(OverflowError):
        packing.pack((fmax + 1, 0, 0))
    with pytest.raises(OverflowError):
        packing.pack((0, fmax + 1, 0))


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 16])
def test_field_width_boundary(bits):
    fmax = (1 << bits) - 1
    order = MonomialOrder((1, 0, 2))
    packing = Packing(order, fmax)
    assert packing.fmax == fmax and packing.bits == bits
    key = grevlex_key(order)
    top = (fmax, 0, 0)
    assert packing.unpack(packing.pack(top)) == top
    others = [(0, fmax, 0), (0, 0, fmax), (fmax - 1, 1, 0), (0, 0, 0), (1, 0, 0)]
    for other in others:
        assert (packing.pack(top) < packing.pack(other)) == (key(top) < key(other))
    with pytest.raises(OverflowError):
        packing.pack((fmax + 1, 0, 0))
    with pytest.raises(OverflowError):
        packing.pack((0, 0, fmax + 1))


@pytest.mark.parametrize("e", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 2**16 - 1, 2**16, 70000])
def test_engine_orders_high_powers(e):
    # y^e + x: y^e leads for every e >= 2, whatever width the engine picks
    ring = RingDescriptor([("x", 1), ("y", 1)])
    y_e, y_e1 = Polynomial(ring, {(0, e): 1}), Polynomial(ring, {(0, e - 1): 1})
    f = parse_poly(f"y^{e} + x", ring)
    gb = buchberger([f], degree_cap=2)
    assert gb.is_complete
    lead = (1, 0) if e == 1 else (0, e)
    assert gb.leading_exponents() == [lead]
    if e >= 2:
        # the engine's own reduction, on a packing sized by the input
        packing = Packing.fitting(gb.order, [(0, e), (1, 0)])
        elems = [groebner._Elem(packing.pack_terms(f.terms), packing.one, None)]

        def reduce(p):
            rem = groebner._reduce_terms(packing.pack_terms(p.terms), elems, packing.guards, None)
            return packing.unpack_terms(rem)

        assert reduce(y_e) == {(1, 0): -1}
        assert reduce(y_e1) == y_e1.terms


@pytest.mark.parametrize("n", [2, 3])
def test_basis_degree_far_above_the_input_degree(n):
    # Mora's ideal: generators of degree n + 1, yet z^(n^2+1) - y^(n^2)*w is in
    # the basis, so the fields must be sized by the degree cap, not the input
    ring = RingDescriptor([(v, 1) for v in "xyzw"])
    texts = (f"x^{n + 1} - y*z^{n - 1}*w", f"x*y^{n - 1} - z^{n}", f"x^{n}*z - y^{n}*w")
    gb = buchberger([parse_poly(t, ring) for t in texts], ring=ring)
    assert gb.is_complete and gb.stats.max_degree == n * n + 1
    assert format_poly(gb.basis[-1]) == f"z^{n * n + 1} - y^{n * n}*w"
    for i, f in enumerate(gb.basis):
        for g in gb.basis[i + 1 :]:
            assert normal_form(spolynomial(f, g), gb.basis).is_zero


def test_packing_of_many_variables_fits_a_small_address_space():
    # U128 has 16,256 variables: one precomputed step per variable, each an
    # int of 16,256 fields, took 287 MB; per-variable offsets take a few MB
    import resource

    def limit_memory():  # runs in the child only
        cap = 100 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    code = (
        "from commuting_ci.ordering import MonomialOrder, Packing\n"
        "p = Packing(MonomialOrder.identity(16256), 127)\n"
        "x = p.pack((0,) * 16255 + (127,))\n"
        "print(p.unpack(x)[-1], p.lcms(x, [p.one])[0] == x)\n"
    )
    src = Path(commuting_ci.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit_memory,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["127", "True"]
