"""Koszul slices: differentials square to zero, homology matches theory."""

import json
from itertools import combinations

import pytest

from commuting_ci import koszul
from commuting_ci.koszul import (
    KoszulComplex,
    PositiveWeightRequired,
    _differential_rows,
    _slice_dim,
    build_complex,
    homology_slice,
)
from commuting_ci.polyring import RingDescriptor

from conftest import system, system_basis
from oracles import (
    extend_with_zero_generators,
    kunneth_zero_check,
    monomials_of_weight,
    slice_basis,
    standard_monomial_dimension,
)


@pytest.fixture
def one_var():
    return RingDescriptor([("x", 1)])


def kos_x(one_var):
    return KoszulComplex(one_var, (one_var.gen("x"),), (1,))


# -- construction ----------------------------------------------------------


def test_complex_rejects_weight_zero_ring():
    ring = RingDescriptor([("a", 0), ("b", 1)])
    with pytest.raises(PositiveWeightRequired):
        KoszulComplex(ring, (ring.gen("b"),), (1,))


def test_build_complex_rejects_borel():
    with pytest.raises(PositiveWeightRequired):
        build_complex(system("bn", 2, 1))


def test_complex_rejects_inhomogeneous_generator(one_var):
    p = one_var.gen("x") + one_var.one()
    with pytest.raises(ValueError):
        KoszulComplex(one_var, (p,), (1,))


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
    b2 = slice_basis(K, 2, w)
    b1 = slice_basis(K, 1, w)
    if not b2 or not b1:
        return
    d2, cols1 = _differential_rows(K, 2, w)
    d1, cols0 = _differential_rows(K, 1, w)
    assert len(d2) == len(b2) and len(d1) == len(b1)
    # the lazily numbered columns are keys of the full slices below
    assert set(cols1) <= set(b1)
    assert set(cols0) <= set(slice_basis(K, 0, w))
    d1_of = dict(zip(b1, d1))
    key_of = {col: key for key, col in cols1.items()}
    for row in d2:
        composed = {}
        for col1, v in row.items():
            for col0, u in d1_of[key_of[col1]].items():
                composed[col0] = composed.get(col0, 0) + v * u
        assert all(val == 0 for val in composed.values())


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
    _, cols = _differential_rows(K, 1, w)
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
    monkeypatch.setattr(koszul, "_rank", lambda rows, ncols, prime: ncols)
    with pytest.raises(RuntimeError, match=r"\(i, w\) = \(1, 5\)"):
        homology_slice(K, 1, 5)


# -- caps --------------------------------------------------------------------------------


def test_slice_cap_yields_incomplete():
    K = build_complex(system("un", 4, 1))
    rep = homology_slice(K, 1, 6, size_cap=10)
    assert rep.status == "incomplete" and rep.h_dim is None
    assert rep.to_json()["ranks"] is None and rep.to_json()["shapes"] is None


# -- report schema -----------------------------------------------------------------------


def test_slice_report_names_ranks_and_shapes():
    K = build_complex(system("un", 4, 1))
    got = homology_slice(K, 1, 5).to_json()
    assert set(got) == {"i", "w", "chain_dims", "h_dim", "status", "ranks", "shapes", "seconds"}
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
    # H_0 has no d_0 to build
    assert homology_slice(K, 0, 2).to_json()["shapes"][0] == [0, 0]


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
