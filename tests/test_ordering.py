"""The monomial order as packed keys: grevlex identities, multiplicativity, permutations."""

import random

import pytest

from commuting_ci.ordering import MonomialOrder, Packing


def test_rejects_bad_permutation():
    with pytest.raises(ValueError):
        MonomialOrder((0, 0, 1))


def test_rejects_bad_weights():
    with pytest.raises(ValueError):
        MonomialOrder((0, 1, 2), weights=(1, 0, 2))  # weight 0: no graded order
    with pytest.raises(ValueError):
        MonomialOrder((0, 1, 2), weights=(1, 2))


def test_weights_keep_the_seeded_permutation():
    assert MonomialOrder.identity(3).weights is None
    weighted = MonomialOrder.seeded(3, 5, [1, 2, 3])
    assert weighted.weights == (1, 2, 3)
    assert weighted.permutation == MonomialOrder.seeded(3, 5).permutation
    assert weighted.degree((2, 1, 1)) == 7 and MonomialOrder.identity(3).degree((2, 1, 1)) == 4


def test_weighted_degree_dominates():
    rng = random.Random(4)
    order = MonomialOrder.seeded(4, 9, (1, 2, 3, 1))
    key = Packing(order, 40).pack
    for _ in range(200):
        a = tuple(rng.randint(0, 4) for _ in range(4))
        b = tuple(rng.randint(0, 4) for _ in range(4))
        if order.degree(a) != order.degree(b):
            assert (key(a) > key(b)) == (order.degree(a) > order.degree(b))


def test_known_grevlex_comparisons():
    # three variables x > y > z
    key = Packing(MonomialOrder.identity(3), 4).pack
    assert key((1, 1, 0)) > key((0, 0, 2))  # xy > z^2 (degree tie, rightmost)
    assert key((0, 2, 0)) > key((1, 0, 1))  # y^2 > xz, the classic grevlex call
    assert key((2, 1, 1)) > key((1, 2, 1))  # x^2yz > xy^2z
    assert key((0, 0, 3)) > key((1, 1, 0))  # degree dominates


def test_total_degree_dominates():
    rng = random.Random(0)
    key = Packing(MonomialOrder.identity(4), 20).pack
    for _ in range(100):
        a = tuple(rng.randint(0, 5) for _ in range(4))
        b = tuple(rng.randint(0, 5) for _ in range(4))
        if sum(a) > sum(b):
            assert key(a) > key(b)


def test_multiplicative():
    rng = random.Random(1)
    key = Packing(MonomialOrder.seeded(4, 5), 32).pack
    for _ in range(200):
        a, b, c = (tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(3))
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert (key(a) > key(b)) == (key(ac) > key(bc))
        assert (key(a) == key(b)) == (a == b)  # keys are injective


def test_one_is_minimal():
    key = Packing(MonomialOrder.identity(3), 12).pack
    one = (0, 0, 0)
    rng = random.Random(2)
    for _ in range(50):
        m = tuple(rng.randint(0, 4) for _ in range(3))
        if m != one:
            assert key(m) > key(one)


def test_seeded_is_reproducible_and_identity_default():
    assert MonomialOrder.seeded(6, None) == MonomialOrder.identity(6)
    assert MonomialOrder.seeded(6, 42) == MonomialOrder.seeded(6, 42)
    assert MonomialOrder.seeded(6, 42) != MonomialOrder.seeded(6, 43)


def test_permutation_changes_tie_breaking():
    ident = Packing(MonomialOrder.identity(2), 1).pack
    flipped = Packing(MonomialOrder((1, 0)), 1).pack
    a, b = (1, 0), (0, 1)
    assert (ident(a) > ident(b)) != (flipped(a) > flipped(b))


def test_exponents_beyond_sixteen_bits_keep_their_order():
    # a fixed 16-bit field used to wrap y^70000 below x
    key = Packing(MonomialOrder.identity(2), 70001).pack
    assert key((0, 70000)) > key((1, 0))
    assert key((0, 70000)) > key((0, 65535)) > key((0, 2))
    assert max({(0, 70000): 1, (1, 0): 1}, key=key) == (0, 70000)
    # degree tie: the smaller exponent of the last variable wins
    assert key((70000, 1)) > key((1, 70000))


def test_keys_match_reverse_lex_reference_for_large_exponents():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 6)
        order = MonomialOrder.seeded(n, rng.randrange(100))
        sizes = [0, 1, 2**16 - 1, 2**16, 10**9]
        a, b = (tuple(rng.choice(sizes) for _ in range(n)) for _ in range(2))
        key = Packing.fitting(order, (a, b)).pack
        if sum(a) != sum(b):
            expected = sum(a) > sum(b)
        else:
            # last differing position in permuted order: smaller exponent is larger
            diff = [k for k in range(n) if a[order.permutation[k]] != b[order.permutation[k]]]
            if not diff:
                assert key(a) == key(b)
                continue
            v = order.permutation[diff[-1]]
            expected = a[v] < b[v]
        assert (key(a) > key(b)) == expected
