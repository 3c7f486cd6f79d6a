"""Commutator-word construction and generator extraction."""

import hashlib
import random
import sys
import types
from fractions import Fraction

import pytest

from commuting_ci import groupmat
from commuting_ci.cidecide import set_to_zero
from commuting_ci.groupmat import (
    BOREL,
    MAX_WORD_NVARS,
    UNIPOTENT,
    VanishingPatternError,
    WordStopped,
    commutator_ring,
    commutator_word,
    dump_generators,
    normalize_kind,
    ring_size,
)
from commuting_ci.ordering import MonomialOrder, Packing
from commuting_ci.polyring import QQ, Polynomial, PrimeField, RingDescriptor, format_poly, parse_poly

from conftest import system
from oracles import evaluate, reduce_units, reference_word


def test_normalize_kind_aliases():
    assert normalize_kind("un") == UNIPOTENT
    assert normalize_kind("BN") == BOREL
    with pytest.raises(ValueError):
        normalize_kind("gl")


# -- the coordinate ring -------------------------------------------------------


def test_commutator_ring_rejects_small_n():
    with pytest.raises(ValueError):
        commutator_ring("un", 1, 1)


def test_ring_size_counts_the_ring():
    for kind, n, genus in [("un", 2, 1), ("un", 5, 3), ("bn", 2, 1), ("bn", 4, 2)]:
        ring = commutator_ring(kind, n, genus)
        assert ring_size(kind, n, genus) == (ring.nvars, len(ring.unit_pairs))


def test_commutator_ring_refuses_more_variables_than_the_word_build_holds():
    assert ring_size("un", 128, 1)[0] <= MAX_WORD_NVARS < ring_size("un", 129, 1)[0]
    assert commutator_ring("un", 128, 1).nvars == 128 * 127
    for kind, n, genus in (("un", 129, 1), ("un", 150, 1), ("bn", 2, 10**8)):
        with pytest.raises(WordStopped, match="variables"):
            commutator_ring(kind, n, genus)
    with pytest.raises(WordStopped):
        commutator_word("un", 150, 1)


def test_variable_blocks_are_deterministic():
    ring = commutator_ring("un", 3, 2)
    assert ring.variables == (
        "x_1_1_2", "x_1_1_3", "x_1_2_3",
        "y_1_1_2", "y_1_1_3", "y_1_2_3",
        "x_2_1_2", "x_2_1_3", "x_2_2_3",
        "y_2_1_2", "y_2_1_3", "y_2_2_3",
    )
    ringb = commutator_ring("bn", 2, 1)
    # inverse variables come right after their copy's entry block
    assert ringb.variables == (
        "x_1_1_1", "x_1_1_2", "x_1_2_2", "d_1_1", "d_1_2",
        "y_1_1_1", "y_1_1_2", "y_1_2_2", "d_2_1", "d_2_2",
    )
    pairs = {(ringb.variables[a], ringb.variables[b]) for a, b in ringb.unit_pairs}
    assert ("d_1_1", "x_1_1_1") in pairs and ("d_2_2", "y_1_2_2") in pairs


def test_weights_follow_diagonal_distance():
    ring = commutator_ring("un", 4, 2)
    assert ring.weights[ring.index("x_1_1_2")] == 1
    assert ring.weights[ring.index("x_2_1_4")] == 3
    assert ring.weights[ring.index("y_2_2_4")] == 2
    ringb = commutator_ring("bn", 3, 1)
    assert ringb.weights[ringb.index("x_1_2_2")] == 0
    assert ringb.weights[ringb.index("d_2_3")] == 0


# -- commutator words -----------------------------------------------------------


def test_u3_word_single_generator():
    sys3 = system("un", 3, 1)
    assert sys3.zero_positions == ((1, 2), (2, 3))
    assert len(sys3.generators) == 1
    ((pos, f),) = sys3.generators
    assert pos == (1, 3)
    assert f == parse_poly("x_1_1_2*y_1_2_3 - x_1_2_3*y_1_1_2", sys3.ring)


@pytest.mark.parametrize("genus", [1, 2, 3, 5])
def test_u2_word_is_abelian(genus):
    sys2 = system("un", 2, genus)
    assert sys2.generators == ()
    assert sys2.zero_positions == ((1, 2),)


def test_b2_word_matches_translated_fixture():
    sysb = system("bn", 2, 1)
    ring = sysb.ring
    literal = parse_poly(
        "-x_1_1_1*x_1_1_2*y_1_1_1^2*d_1_1*d_1_2*d_2_1*d_2_2"
        " + x_1_1_1^2*y_1_1_1*y_1_1_2*d_1_1*d_1_2*d_2_1*d_2_2"
        " + x_1_1_1*x_1_1_2*d_1_1*d_1_2"
        " - y_1_1_1*y_1_1_2*d_2_1*d_2_2",
        ring,
    )
    assert sysb.generators[0][1] == reduce_units(literal)
    assert len(sysb.unit_relations) == 4
    rels = {format_poly(r) for r in sysb.unit_relations}
    assert "x_1_1_1*d_1_1 - 1" in rels


def test_u5_generator_positions_and_weights():
    sys5 = system("un", 5, 1)
    weights = sorted(j - i for (i, j), _ in sys5.generators)
    assert weights == [2, 2, 2, 3, 3, 4]
    assert len(sys5.generators) == 6
    for (i, j), f in sys5.generators:
        assert f.weight_of() == j - i


@pytest.mark.parametrize("n,genus", [(n, g) for n in (2, 3, 4, 5) for g in (1, 2)])
def test_unipotent_vanishing_pattern(n, genus):
    s = system("un", n, genus)
    assert s.zero_positions == tuple((i, i + 1) for i in range(1, n))
    assert len(s.generators) == (n - 1) * (n - 2) // 2
    for (i, j), f in s.generators:
        assert j > i + 1 and f.weight_of() == j - i


@pytest.mark.parametrize("n,genus", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_borel_vanishing_pattern(n, genus):
    s = system("bn", n, genus)
    assert s.zero_positions == tuple((i, i) for i in range(1, n + 1))
    assert len(s.generators) == n * (n - 1) // 2
    assert len(s.unit_relations) == 2 * genus * n
    for (i, j), f in s.generators:
        assert j > i and f.weight_of() == j - i


# -- the packed build against the tuple reference -----------------------------------

_REFERENCE_CASES = (
    [("un", n, 1) for n in range(2, 8)]
    + [("un", n, 2) for n in (3, 4, 5)]
    + [("un", 4, 3)]
    + [("bn", 2, genus) for genus in (1, 2, 3)]
    + [("bn", 3, 1), ("bn", 3, 2), ("bn", 4, 1)]
)


@pytest.mark.parametrize("prime", [None, 2, 32003, 2**61 - 1])
@pytest.mark.parametrize("kind,n,genus", _REFERENCE_CASES)
def test_packed_word_matches_the_tuple_reference(kind, n, genus, prime):
    field = PrimeField(prime) if prime else QQ
    s = commutator_word(kind, n, genus, field)
    expected = reference_word(kind, n, genus, field)
    for i in range(n):
        for j in range(n):
            assert s.word_matrix[i][j] == expected[i][j], (i + 1, j + 1)
    relations = [f"{s.ring.variables[d]}*{s.ring.variables[x]} - 1" for d, x in s.ring.unit_pairs]
    assert s.unit_relations == tuple(parse_poly(r, s.ring) for r in relations)


def test_polynomials_carry_no_tuple_arithmetic():
    # every layer computes on packed monomials; the arithmetic on exponent
    # tuples lives in the test oracles only
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "reduce_units"):
        assert not hasattr(Polynomial, name), name
    for name in ("gen", "const"):
        assert not hasattr(RingDescriptor, name), name


def test_a_product_past_the_packed_bound_is_refused(monkeypatch):
    # with one-bit fields a product of weighted degree 3 could carry
    monkeypatch.setattr(groupmat, "Packing", lambda order, bound: Packing(order, 1))
    with pytest.raises(VanishingPatternError, match="exceeds the packed bound"):
        commutator_word("un", 4, 1)


def test_deadline_covers_the_checks_after_the_last_product(monkeypatch):
    # the clock passes the deadline right after the last product: converting
    # the entries and checking their pattern must still stop on it
    class Clock:
        def __init__(self, passes_after=None):
            self.callers = []
            self.passes_after = passes_after

        def monotonic(self):
            # frame 1 is `_check_deadline`, frame 2 the step that asked it
            self.callers.append(sys._getframe(2).f_code.co_name)
            late = self.passes_after is not None and len(self.callers) > self.passes_after
            return 2.0 if late else 0.0

    for kind, n, genus in (("un", 6, 1), ("un", 4, 2), ("bn", 3, 1)):
        clock = Clock()
        monkeypatch.setattr(groupmat, "time", types.SimpleNamespace(monotonic=clock.monotonic))
        commutator_word(kind, n, genus, deadline=1.0)
        # the build's own checks (rows, entries converted) name `_build_word`
        last_product = max(k for k, name in enumerate(clock.callers) if name != "_build_word")
        clock = Clock(passes_after=last_product + 1)
        monkeypatch.setattr(groupmat, "time", types.SimpleNamespace(monotonic=clock.monotonic))
        with pytest.raises(WordStopped) as stop:
            commutator_word(kind, n, genus, deadline=1.0)
        assert stop.value.stopped_by == "timeout"


# -- evaluation consistency -------------------------------------------------------


def _random_point(sysm, rng):
    values = {}
    for s in range(1, 2 * sysm.genus + 1):
        t = (s + 1) // 2
        prefix = "x" if s % 2 else "y"
        for i in range(1, sysm.n + 1):
            for j in range(i, sysm.n + 1):
                if i == j:
                    if sysm.kind == BOREL:
                        v = rng.choice([1, -1, 2, -2, 3])
                        values[f"{prefix}_{t}_{i}_{i}"] = Fraction(v)
                        values[f"d_{s}_{i}"] = Fraction(1, v)
                else:
                    values[f"{prefix}_{t}_{i}_{j}"] = Fraction(rng.randint(-3, 3))
    return values


def _matrix_at_point(sysm, s, values):
    t = (s + 1) // 2
    prefix = "x" if s % 2 else "y"
    n = sysm.n
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if j < i:
                continue
            if i == j:
                M[i][i] = Fraction(1) if sysm.kind == UNIPOTENT else values[f"{prefix}_{t}_{i+1}_{i+1}"]
            else:
                M[i][j] = values[f"{prefix}_{t}_{i+1}_{j+1}"]
    return M


def _matmul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _matinv(A):
    n = len(A)
    M = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        piv = next(r for r in range(c, n) if M[r][c])
        M[c], M[piv] = M[piv], M[c]
        pv = M[c][c]
        M[c] = [v / pv for v in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return [row[n:] for row in M]


@pytest.mark.parametrize(
    "kind,n,genus",
    [("un", 3, 1), ("un", 4, 1), ("un", 6, 1), ("un", 3, 2), ("bn", 2, 1), ("bn", 3, 1), ("bn", 2, 2), ("bn", 3, 2)],
)
def test_evaluation_consistency(kind, n, genus):
    sysm = system(kind, n, genus)
    rng = random.Random(f"{kind}{n}{genus}")
    for _ in range(10):
        values = _random_point(sysm, rng)
        word = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for t in range(1, genus + 1):
            X = _matrix_at_point(sysm, 2 * t - 1, values)
            Y = _matrix_at_point(sysm, 2 * t, values)
            comm = _matmul(_matmul(X, Y), _matmul(_matinv(X), _matinv(Y)))
            word = _matmul(word, comm)
        for i in range(n):
            for j in range(n):
                symbolic = evaluate(sysm.word_matrix[i][j], values)
                expected = word[i][j] - (1 if (sysm.kind == BOREL and i == j) else 0)
                assert symbolic == expected, (i, j)


# -- dump --------------------------------------------------------------------------


def test_dump_generators_format():
    sys3 = system("un", 3, 1)
    text = dump_generators(sys3)
    assert text.startswith("f[1][3]: ")
    body = text.split(": ", 1)[1]
    assert parse_poly(body, sys3.ring) == sys3.generators[0][1]


def test_genus_two_specializes_to_genus_one():
    s1 = system("un", 4, 1)
    s2 = system("un", 4, 2)
    kill = [name for name in s2.ring.variables if name[2] == "2"]
    for (i, j), f2 in s2.generators:
        specialized = set_to_zero(f2, kill)
        f1 = s1.generator_at(i, j)
        carried = parse_poly(format_poly(f1), s2.ring)
        assert specialized == carried


#: sha256 of `dump_generators` (default order), as printed by the word build
#: that inverted each factor by a power series before the triangular solve.
_PINNED_DUMPS = {
    ("un", 6, 1, None): "a77a7d8da09ce49aa2a55964803e3717f5171dbe9d4f241cfdd99181bdc5a1d1",
    ("un", 6, 1, 32003): "5b7c1e3398cd1ed029c96a6b06027618ddc8a040cad34a7625254f7a209549df",
    ("un", 5, 2, None): "41d0b2dd044ff9ecba2d743ba5821c301cf20b87044c0b5f01735aac7b7f4a9d",
    ("un", 5, 2, 32003): "7db0d0722aac74c691159135e555746b84b04c7ccf723b7260f43018b98a5871",
    ("un", 4, 3, None): "0b0e073cc416fceb2d7f614823ebb4b2952bfdf13aaef5a4b27b76b4722ae460",
    ("un", 4, 3, 32003): "803babc7445de3307887f4735d2e0c898dde201f4ef78b320b8f7c36a7e45e19",
    ("bn", 3, 2, None): "0703d6495fa3dc6579f25e947a7c7c0eb80ecd077a70c3cbb02d7baac5179c04",
    ("bn", 3, 2, 32003): "486d34e17154832846020c36fd01862fab3c8577e9ea6d8c7210b323fa7f8f3c",
    ("bn", 4, 1, None): "585c38d10678e8f3c99d2f729ca8be35d83262bb967e4793f970c0c3a303a5a4",
    ("bn", 4, 1, 32003): "2a1ff2df942c70e33540569078fe6c958c23ed7e83f11369760cb0552a7d27d5",
}


@pytest.mark.parametrize("kind,n,genus,prime", sorted(_PINNED_DUMPS, key=str))
def test_generators_are_pinned(kind, n, genus, prime):
    text = dump_generators(system(kind, n, genus, prime))
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_DUMPS[kind, n, genus, prime]


#: sha256 of `dump_generators` under order seed 7, as printed when
#: `format_poly` still sorted terms by exponent-tuple keys.
_PINNED_SEEDED_DUMPS = {
    ("un", 6, 1, None): "bfe3a660d4cbac743276b4bca64cf24be1a2d90936041d12e427c3dd7cc3773f",
    ("un", 6, 1, 32003): "d007e87ae5e5dc543a3b630ac2de9b971998d1c73c656f9290118ec90bc81b94",
    ("bn", 3, 2, None): "b15b511c62ded573efdda5a27729369e777c694d983c4a9e8dbbb3d5d45ee572",
    ("bn", 3, 2, 32003): "d13aeeb1a5c4e6ea53c298dfa6332dbb8bdb8fcdcb717632509470d67086c3fc",
}


@pytest.mark.parametrize("kind,n,genus,prime", sorted(_PINNED_SEEDED_DUMPS, key=str))
def test_seeded_generators_are_pinned(kind, n, genus, prime):
    s = system(kind, n, genus, prime)
    text = dump_generators(s, MonomialOrder.seeded(s.ring.nvars, 7))
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_SEEDED_DUMPS[kind, n, genus, prime]
