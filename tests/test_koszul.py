"""Koszul slices: differentials square to zero, homology matches theory."""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from commuting_ci import koszul, linalg
from commuting_ci.koszul import (
    KoszulComplex,
    PositiveWeightRequired,
    _slice_dim,
    build_complex,
)
from commuting_ci.polyring import Polynomial, PrimeField, QQ, RingDescriptor, parse_poly

from conftest import system, system_basis
from oracles import (
    block_basis,
    block_columns,
    block_rows,
    extend_with_zero_generators,
    homology_slice,
    key_torus,
    kunneth_zero_check,
    monomials_of_weight,
    mul,
    reference_slice,
    scale,
    slice_basis,
    slice_blocks,
    standard_monomial_dimension,
)


@pytest.fixture
def one_var():
    return RingDescriptor([("x", 1)])


def kos_x(one_var):
    return KoszulComplex(one_var, (parse_poly("x", one_var),), (1,))


# -- construction ----------------------------------------------------------


def test_complex_rejects_weight_zero_ring():
    ring = RingDescriptor([("a", 0), ("b", 1)])
    with pytest.raises(PositiveWeightRequired):
        KoszulComplex(ring, (parse_poly("b", ring),), (1,))


def test_build_complex_rejects_borel():
    with pytest.raises(PositiveWeightRequired):
        build_complex(system("bn", 2, 1))


def test_complex_rejects_inhomogeneous_generator(one_var):
    p = parse_poly("x + 1", one_var)
    with pytest.raises(ValueError):
        KoszulComplex(one_var, (p,), (1,))


def test_complex_rejects_a_generator_that_is_not_torus_homogeneous():
    # x_{1,3} + x_{2,4} in U4 has weight 2, but torus weights e1 - e3 and e2 - e4
    K = build_complex(system("un", 4, 1))
    f = parse_poly("x_1_1_3 + x_1_2_4", K.ring)
    KoszulComplex(K.ring, (f,), (2,))  # weight-homogeneous, so fine on the one-field torus
    for torus in ((1, 1, 0), (0, 1, 1)):
        with pytest.raises(ValueError, match="torus-homogeneous"):
            KoszulComplex(K.ring, (f,), (2,), 0, K.variable_torus, (torus,))
    with pytest.raises(ValueError, match="sum 2"):
        KoszulComplex(K.ring, (parse_poly("x_1_1_3", K.ring),), (2,), 0, K.variable_torus, ((1, 0, 0),))
    with pytest.raises(ValueError, match="or neither"):
        KoszulComplex(K.ring, (), (), 0, K.variable_torus, None)


def test_build_complex_grades_by_the_diagonal_torus():
    K = build_complex(system("un", 4, 1))
    torus = dict(zip(K.ring.variables, K.variable_torus))
    # e_i - e_j in simple-root coordinates, for both copies
    assert torus["x_1_1_2"] == torus["y_1_1_2"] == (1, 0, 0)
    assert torus["x_1_2_4"] == (0, 1, 1) and torus["y_1_1_4"] == (1, 1, 1)
    assert sorted(K.generator_torus) == [(0, 1, 1), (1, 1, 0), (1, 1, 1)]


def test_build_complex_exterior_counts():
    assert build_complex(system("un", 2, 1)).exterior_zero_count == 1
    K3 = build_complex(system("un", 3, 1))
    assert K3.exterior_zero_count == 2
    assert K3.weights == (2,)
    K4 = build_complex(system("un", 4, 1))
    assert K4.exterior_zero_count == 3
    assert sorted(K4.weights) == [2, 2, 3]


# -- single-generator sanity of the slices ------------------------------------


def test_regular_element_has_no_h1(one_var):
    K = kos_x(one_var)
    for w in range(7):
        rep = homology_slice(K, 1, w)
        assert rep.status == "ok" and rep.h_dim == 0


def test_zero_generator_contributes_h1(one_var):
    K = KoszulComplex(one_var, (one_var.zero(),), (1,))
    assert homology_slice(K, 1, 0).h_dim == 0
    for w in range(1, 6):
        rep = homology_slice(K, 1, w)
        assert rep.h_dim == 1  # basis x^(w-1) t, zero differential


def test_h0_of_regular_element(one_var):
    K = kos_x(one_var)
    assert homology_slice(K, 0, 0).h_dim == 1
    for w in range(1, 5):
        assert homology_slice(K, 0, w).h_dim == 0  # k[x]/(x) concentrated at 0


# -- differentials compose to zero -----------------------------------------------


@pytest.mark.parametrize("w", [2, 3, 4, 5])
def test_differential_squares_to_zero(w):
    K = build_complex(system("un", 4, 1))
    blocks2, blocks1 = slice_blocks(K, 2, w), slice_blocks(K, 1, w)
    b0 = set(slice_basis(K, 0, w))
    seen = set()
    for t, parts2 in blocks2.items():
        b2, b1 = block_basis(parts2), block_basis(blocks1.get(t, []))
        (d2, ncols1), (d1, ncols0) = block_rows(parts2), block_rows(blocks1.get(t, []))
        cols1, cols0 = block_columns(parts2), block_columns(blocks1.get(t, []))
        assert len(d2) == len(b2) and len(d1) == len(b1)
        assert (ncols1, ncols0) == (len(cols1), len(cols0))
        # the lazily numbered columns are keys of the same block one degree down
        assert set(cols1) <= set(b1)
        assert set(cols0) <= b0
        # one torus weight per block, and a different one for every block
        (torus,) = {key_torus(K, key, w) for key in b2 + b1 + list(cols0)}
        assert torus not in seen
        seen.add(torus)
        d1_of = dict(zip(b1, d1))
        for row in d2:
            composed = {}
            for col1, v in row.items():
                for col0, u in d1_of[cols1[col1]].items():
                    composed[col0] = composed.get(col0, 0) + v * u
            assert all(val == 0 for val in composed.values())
    assert sum(len(block_basis(parts)) for parts in blocks2.values()) == _slice_dim(K, 2, w)


# -- counting and packing ----------------------------------------------------------


def enumerated_dim(K, i, w):
    """dim C_i(w) from full monomial lists, the reference for the DP count."""
    return sum(
        len(monomials_of_weight(K.ring, w - sum(K.weights[s] for s in S)))
        for S in combinations(range(len(K.generators)), i)
    )


@pytest.mark.parametrize("n, genus", [(3, 1), (4, 1), (5, 1), (4, 2)])
def test_dp_dims_match_enumeration(n, genus):
    K = build_complex(system("un", n, genus))
    for i in range(4):
        for w in range(8):
            dim = _slice_dim(K, i, w)
            assert dim == len(slice_basis(K, i, w)) == enumerated_dim(K, i, w), (i, w)


@pytest.mark.parametrize("prime", [None, 32003])
@pytest.mark.parametrize("w", [7, 8, 15, 16])
def test_packed_keys_at_field_width_boundaries(prime, w):
    # weights 7 -> 8 and 15 -> 16 widen each exponent field by one bit; an
    # exponent equal to w must still fit its field without a carry
    K = build_complex(system("un", 3, 1, prime))
    rep = homology_slice(K, 1, w)
    assert rep.status == "ok" and rep.h_dim == 0
    for j, dim in zip((0, 1, 2), rep.chain_dims):
        keys = slice_basis(K, j, w)
        assert dim == len(set(keys)) == enumerated_dim(K, j, w), (j, w)
    blocks = slice_blocks(K, 1, w).values()
    cols = [key for parts in blocks for key in block_columns(parts)]
    assert len(cols) == sum(block_rows(parts)[1] for parts in blocks)
    assert len(cols) == len(set(cols))  # no two blocks share a column
    assert set(cols) <= set(slice_basis(K, 0, w))


# -- main fixtures ------------------------------------------------------------------


def test_u3_h1_vanishes_up_to_weight_six():
    K = build_complex(system("un", 3, 1))
    for w in range(7):
        rep = homology_slice(K, 1, w)
        assert rep.status == "ok" and rep.h_dim == 0


def test_u5_h1_vanishes_matching_its_verdict():
    # codimension equals the generator count for U5, so degree-1 homology
    # must vanish on every slice we can reach
    K = build_complex(system("un", 5, 1, 32003))
    for w in range(9):
        assert homology_slice(K, 1, w).h_dim == 0


def test_u6_h1_first_nonzero_weight_is_seven():
    K = build_complex(system("un", 6, 1, 32003))
    for w in range(7):
        assert homology_slice(K, 1, w).h_dim == 0
    assert homology_slice(K, 1, 7).h_dim == 1


@pytest.mark.parametrize("prime", [None, 32003])
def test_u6_h1_weight_seven_slice_is_pinned(prime):
    # ranks of this slice are the same over Q and GF(32003); any exact
    # eliminator, whatever its pivot order, must reproduce them
    rep = homology_slice(build_complex(system("un", 6, 1, prime)), 1, 7).to_json()
    assert rep["ranks"] == [19953, 2654]
    assert rep["shapes"] == [[22608, 32962], [2712, 10614]]
    assert rep["h_dim"] == 1


@pytest.mark.parametrize("prime", [None, 32003])
def test_block_ranks_sum_to_the_whole_slice_rank(prime):
    # the same complex without a torus is one block per slice: the ranks
    # taken block by block must add up to the rank of the whole slice
    K = build_complex(system("un", 6, 1, prime))
    whole = KoszulComplex(K.ring, K.generators, K.weights, K.exterior_zero_count)
    by_block, at_once = homology_slice(K, 1, 7), homology_slice(whole, 1, 7)
    assert (by_block.ranks, by_block.shapes, by_block.h_dim) == (at_once.ranks, at_once.shapes, 1)
    assert (by_block.blocks, by_block.largest_block) == (274, (576, 696))
    assert (at_once.blocks, at_once.largest_block) == (1, at_once.shapes[0])


def test_fraction_generators_give_the_slices_of_the_integer_ones():
    # scaling a generator by a unit changes no rank; the Fraction
    # coefficients send every generator through the clearing of denominators
    K = build_complex(system("un", 4, 1))
    scaled = tuple(
        scale(f, Fraction(1, 3) if k % 2 else Fraction(2, 5))
        for k, f in enumerate(K.generators)
    )
    assert all(type(c) is Fraction for f in scaled for c in f.terms.values())
    S = KoszulComplex(
        K.ring, scaled, K.weights, K.exterior_zero_count, K.variable_torus, K.generator_torus
    )
    for w in range(7):
        want, got = homology_slice(K, 1, w), homology_slice(S, 1, w)
        assert (got.h_dim, got.ranks) == (want.h_dim, want.ranks), w
    assert want.ranks == (509, 37)


def test_u6_h1_weight_seven_nonzero_under_second_prime():
    # a single unlucky prime could inflate the homology; a second prime
    # agreeing pins the slice dimension with high confidence
    K = build_complex(system("un", 6, 1, 31991))
    assert homology_slice(K, 1, 7).h_dim == 1


def test_u4_h1_vanishes_over_a_61_bit_prime():
    K = build_complex(system("un", 4, 1, 2**61 - 1))
    for w in range(4, 7):
        assert homology_slice(K, 1, w).h_dim == 0, w


def test_h0_matches_standard_monomials():
    for kind, n in [("un", 3), ("un", 4)]:
        K = build_complex(system(kind, n, 1))
        gb = system_basis(kind, n, 1)
        for w in range(6):
            rep = homology_slice(K, 0, w)
            assert rep.h_dim == standard_monomial_dimension(gb, w), (kind, n, w)


def test_euler_characteristic_per_slice():
    K = build_complex(system("un", 4, 1))
    r = len(K.generators)
    for w in range(6):
        chain_alt = 0
        hom_alt = 0
        for i in range(r + 2):
            rep = homology_slice(K, i, w)
            assert rep.status == "ok"
            sign = -1 if i & 1 else 1
            chain_alt += sign * rep.chain_dims[1]
            hom_alt += sign * rep.h_dim
        assert chain_alt == hom_alt, w


# -- one pass, with rows skipped by the F5 criterion -------------------------------------

FIELDS = [None, 32003]
COMPARED = ("i", "w", "chain_dims", "status", "ranks", "shapes", "blocks", "largest_block", "h_dim")


def report(rep):
    """A slice report without its timings."""
    got = rep.to_json()
    return {k: got[k] for k in COMPARED}


def field_of(prime):
    return PrimeField(prime) if prime else QQ


def trap(prime):
    """(x, x, y) with every weight 1: the kept rows t_1 y and t_2 y of d_1
    at weight 2 are dependent through the syzygy t_1 - t_2, which is not
    principal, so rank d_2 exceeds the number of skipped rows."""
    ring = RingDescriptor([("x", 1), ("y", 1)], field_of(prime))
    x, y = parse_poly("x", ring), parse_poly("y", ring)
    return KoszulComplex(ring, (x, x, y), (1, 1, 1))


@pytest.mark.parametrize("prime", FIELDS)
def test_non_principal_syzygies_send_d2_to_the_fallback(prime, monkeypatch):
    K = trap(prime)
    degrees = []  # the homological degree of each row ranked since the last report
    echelon = linalg.echelon
    width = 3  # max_weight 4 packs each exponent in 3 bits, and S above the 2 fields

    def spy(rows, p, pivots=None):
        rows = list(rows)
        degrees.extend(1 + bin(max(r) >> (2 * width)).count("1") for r in rows if r)
        return echelon(rows, p, pivots)

    monkeypatch.setattr(linalg, "echelon", spy)
    by_w = []
    for rep in koszul.slices(K, 1, 4):
        by_w.append((rep.h_dim, rep.ranks, 2 in degrees))
        degrees.clear()
    # the values of the unpruned slices; rows of d_2 are ranked from weight 2 on
    assert by_w == [
        (0, (0, 0), False),
        (1, (2, 0), False),
        (0, (3, 3), True),
        (0, (4, 5), True),
        (0, (5, 7), True),
    ]
    monkeypatch.undo()
    assert [report(homology_slice(K, 1, w)) for w in range(5)] == [
        report(reference_slice(K, 1, w)) for w in range(5)
    ]


def random_sequence(rng, prime):
    """A small homogeneous sequence that is seldom regular: random forms, and
    multiples and copies of earlier ones."""
    ring = RingDescriptor([("a", 1), ("b", 1), ("c", 2)], field_of(prime))
    gens, weights = [], []
    for _ in range(rng.randint(2, 4)):
        w = rng.randint(1, 3)
        if gens and rng.random() < 0.4:
            k = rng.randrange(len(gens))
            extra = w - weights[k] if w > weights[k] else 0
            factor = ring.one() if not extra else Polynomial(
                ring, {e: rng.randint(-3, 3) or 1 for e in monomials_of_weight(ring, extra)}
            )
            gens.append(mul(gens[k], factor))
            weights.append(weights[k] + extra)
            continue
        terms = {e: rng.randint(-3, 3) for e in monomials_of_weight(ring, w) if rng.random() < 0.6}
        gens.append(Polynomial(ring, terms))
        weights.append(w)
    return KoszulComplex(ring, tuple(gens), tuple(weights))


@pytest.mark.parametrize("prime", FIELDS)
@pytest.mark.parametrize("seed", range(12))
def test_random_sequences_match_the_reference_slice(prime, seed):
    K = random_sequence(random.Random(seed), prime)
    for i in range(3):
        got = [report(rep) for rep in koszul.slices(K, i, 6)]
        assert got == [report(reference_slice(K, i, w)) for w in range(7)], (i, K.weights)


@pytest.mark.parametrize("prime", FIELDS)
@pytest.mark.parametrize("n, genus, max_weight", [(3, 1, 7), (4, 1, 7), (5, 1, 8), (6, 1, 7), (4, 2, 6)])
def test_slices_match_the_reference_slice(n, genus, max_weight, prime):
    K = build_complex(system("un", n, genus, prime))
    for i in range(3):
        got = [report(rep) for rep in koszul.slices(K, i, max_weight)]
        assert got == [report(reference_slice(K, i, w)) for w in range(max_weight + 1)], i


@pytest.mark.parametrize("i", [0, 1, 2])
def test_homology_slice_is_the_last_report_of_its_pass(i):
    for K in (build_complex(system("un", 4, 1)), trap(None)):
        reps = [report(rep) for rep in koszul.slices(K, i, 6)]
        assert [report(homology_slice(K, i, w)) for w in range(7)] == reps


def test_a_deadline_between_blocks_ends_the_pass_incomplete(monkeypatch):
    K = build_complex(system("un", 5, 1, 32003))
    blocks = []
    block = koszul._SlicePass._block

    def counted(self, *args):
        blocks.append(self)
        return block(self, *args)

    monkeypatch.setattr(koszul._SlicePass, "_block", counted)
    # weights 0-4 rank 38 blocks and weight 5 another 50; the clock passes
    # the deadline during the 60th block
    monkeypatch.setattr(koszul.time, "monotonic", lambda: 10.0 if len(blocks) >= 60 else 0.0)
    reps = list(koszul.slices(K, 1, 8, deadline=5.0))
    assert len(blocks) == 60  # and no block after it
    statuses = [rep.status for rep in reps]
    assert statuses == ["ok"] * 5 + ["incomplete"] * 4
    monkeypatch.undo()
    assert [report(rep) for rep in reps[:5]] == [report(reference_slice(K, 1, w)) for w in range(5)]
    for rep in reps[5:]:
        assert (rep.h_dim, rep.ranks, rep.shapes, rep.seconds) == (None, None, None, None)
        assert rep.chain_dims == reference_slice(K, 1, rep.w).chain_dims


def key_weight(K, run, key):
    fields = [(key >> (v * run.width)) & ((1 << run.width) - 1) for v in range(K.ring.nvars)]
    return sum(e * wv for e, wv in zip(fields, K.ring.weights))


def test_leading_monomial_tables_keep_only_the_weights_looked_up():
    K = build_complex(system("un", 6, 1, 32003))
    run = koszul._SlicePass(K, 1, 8)
    for w in range(9):
        run.slice(w, koszul.DEFAULT_SLICE_CAP, None)
    weights = {key_weight(K, run, m) for m in run.lead}
    # d_1 makes pivots at every weight from 2 on, but a row of weight <= 8
    # looks up a monomial of weight <= 8 - 2, the least generator weight
    assert min(K.weights) == 2 and weights == set(range(2, 7))
    # and a pivot that generator s makes is looked up only by rows t_S * m
    # with min S after s
    for m, s in run.lead.items():
        assert key_weight(K, run, m) + min(run.weights[s + 1 :]) <= 8
    # in degree 2 no d_1 is built, so nothing is tabled
    run = koszul._SlicePass(K, 2, 8)
    for w in range(9):
        run.slice(w, koszul.DEFAULT_SLICE_CAP, None)
    assert run.lead == {}


# -- Kunneth ---------------------------------------------------------------------------


def test_kunneth_zero_zeros_is_identity(one_var):
    assert kunneth_zero_check(kos_x(one_var), 0, 5)


def test_kunneth_single_zero_formula(one_var):
    K = kos_x(one_var)
    ext = extend_with_zero_generators(K, 1)
    for w in range(1, 5):
        # extended H1 at weight w picks up H0(K) at weight w-1, which is
        # k[x]/(x): dimension 1 at weight 0 and 0 above
        expected = 1 if w == 1 else 0
        assert homology_slice(ext, 1, w).h_dim == expected
    assert kunneth_zero_check(K, 1, 4)


def test_kunneth_u3_with_one_and_two_zeros():
    K = build_complex(system("un", 3, 1))
    assert kunneth_zero_check(K, 1, 5)
    assert kunneth_zero_check(K, 2, 5)


# -- invariants --------------------------------------------------------------------------


def test_overstated_rank_raises_instead_of_negative_homology(monkeypatch):
    K = build_complex(system("un", 4, 1))
    run = koszul.slices(K, 1, 5)
    assert [next(run).h_dim for _ in range(5)] == [0] * 5

    def overstated(rows, p, pivots):  # two pivots for every row
        for row in rows:
            pivots[-len(pivots) - 1] = (1, row)
            pivots[-len(pivots) - 1] = (1, row)
        return pivots

    monkeypatch.setattr(linalg, "echelon", overstated)
    with pytest.raises(RuntimeError, match=r"\(i, w\) = \(1, 5\)"):
        next(run)


# -- caps --------------------------------------------------------------------------------


def test_slice_cap_yields_incomplete():
    K = build_complex(system("un", 4, 1))
    rep = homology_slice(K, 1, 6, size_cap=10)
    assert rep.status == "incomplete" and rep.h_dim is None
    assert rep.to_json()["ranks"] is None and rep.to_json()["shapes"] is None


def test_passed_deadline_cuts_the_slice_off_before_its_first_block():
    K = build_complex(system("un", 4, 1))
    rep = homology_slice(K, 1, 5, deadline=time.monotonic() - 1).to_json()
    assert (rep["status"], rep["h_dim"], rep["chain_dims"]) == ("incomplete", None, [586, 189, 8])
    assert rep["ranks"] is None and rep["blocks"] is None and rep["seconds"] is None
    assert homology_slice(K, 1, 5, deadline=time.monotonic() + 60).h_dim == 0


# -- report schema -----------------------------------------------------------------------


def test_slice_report_names_ranks_and_shapes():
    K = build_complex(system("un", 4, 1))
    got = homology_slice(K, 1, 5).to_json()
    assert set(got) == {
        "i", "w", "chain_dims", "h_dim", "status", "ranks", "shapes", "blocks", "largest_block",
        "seconds",
    }
    assert set(got["seconds"]) == {"assembly", "rank"}
    assert all(s >= 0 for s in got["seconds"].values())
    assert (got["i"], got["w"], got["status"]) == (1, 5, "ok")
    assert got["chain_dims"] == [586, 189, 8]
    rank_down, rank_up = got["ranks"]
    assert got["h_dim"] == 189 - rank_down - rank_up == 0
    (rows_down, cols_down), (rows_up, cols_up) = got["shapes"]
    # rows are the full C_1 and C_2; columns only those some row hits
    assert (rows_down, rows_up) == (189, 8)
    assert 0 < cols_down <= 586 and 0 < cols_up <= 189
    # C_1(5) splits into 14 torus blocks; the one with the most rows is 34 x 52
    assert got["blocks"] == 14 and got["largest_block"] == [34, 52]
    # H_0 has no d_0 to build, but C_0 still has its blocks
    h0 = homology_slice(K, 0, 2).to_json()
    assert h0["shapes"][0] == [0, 0] and h0["largest_block"] == [0, 0]
    assert h0["blocks"] == len({key_torus(K, key, 2) for key in slice_basis(K, 0, 2)}) > 1


def test_slice_report_json_round_trip():
    K = build_complex(system("un", 4, 1))
    done, capped = homology_slice(K, 1, 5), homology_slice(K, 1, 6, size_cap=10)
    for rep in (done, capped):
        assert json.loads(json.dumps(rep.to_json())) == rep.to_json()
    assert set(done.to_json()["seconds"]) == {"assembly", "rank"}
    assert capped.to_json()["seconds"] is None


def test_negative_arguments_rejected():
    K = build_complex(system("un", 3, 1))
    with pytest.raises(ValueError):
        homology_slice(K, -1, 2)
    with pytest.raises(ValueError):
        homology_slice(K, 1, -2)
