"""Acceptance suite.

One test per criterion; each prints a PASS line when its assertions hold.
Run with `pytest -s tests/test_acceptance.py -v` to see the lines as they
complete.  Every tolerance here is exact equality; nothing is calibrated.
"""

import random
from fractions import Fraction

from commuting_ci.cidecide import classify_table, decide_ci, u6_witness
from commuting_ci.groebner import buchberger, krull_dimension, normal_form
from commuting_ci.koszul import build_complex
from commuting_ci.polyring import Polynomial, RingDescriptor, format_poly, parse_poly

from conftest import system, system_basis
from oracles import dimension_by_enumeration, evaluate, homology_slice, kunneth_zero_check
from oracles import reduce_units, spolynomial

from test_groupmat import _matinv, _matmul, _matrix_at_point, _random_point


def _report(k: int, message: str) -> None:
    print(f"ACCEPTANCE {k} PASS: {message}")


def _run_table(tmp_path, *argv):
    import json

    from commuting_ci.cli import main

    out = tmp_path / "table.json"
    code = main([*argv, "--output", str(out)])
    assert code == 0
    return json.loads(out.read_text(encoding="utf-8"))["rows"]


def test_criterion_1_unipotent_classification(tmp_path):
    rows = _run_table(
        tmp_path, "table", "--family", "un", "--max-n", "5", "--genus", "1", "--jobs", "2"
    )
    for row in rows:
        n = row["n"]
        N = 2 * (n * (n - 1) // 2)
        r = (n - 1) * (n - 2) // 2
        assert row["verdict"] == "CI", f"n={n}"
        assert row["nvars"] == N
        assert row["generators"] == r
        assert row["dim"] == N - r
        assert row["codim"] == r
    _report(1, "table un max-n 5: CI for n=2..5 with exact (N, r, dim) " + str(
        [(row["nvars"], row["generators"], row["dim"]) for row in rows]
    ))


def test_criterion_2_borel_classification(tmp_path):
    rows = _run_table(
        tmp_path, "table", "--family", "bn", "--max-n", "3", "--genus", "1", "--jobs", "2"
    )
    expect = {2: (10, 5), 3: (18, 9)}
    for row in rows:
        N, ru = expect[row["n"]]
        assert row["verdict"] == "CI"
        assert row["nvars"] == N
        assert row["generators"] + row["unit_relations"] == ru
        assert row["codim"] == ru
        assert row["dim"] == N - ru
    _report(2, f"B2 and B3 are CI with codim = r + u exactly: {expect}")


def test_criterion_3_u6_obstruction():
    w = u6_witness("q")
    assert w.pattern_ok, "substitution pattern mismatch"
    assert len(w.memberships) == 7
    assert all(w.memberships.values()), "a membership does not hold"
    assert w.conclusion == "NotCI"
    assert w.codim_bound == 6
    _report(3, "6x6 pattern matched at 7 positions, so all 7 lie in the 6-generated ideal; NotCI")


def test_criterion_4_explicit_relation_fixtures():
    sys3 = system("un", 3, 1)
    generated = format_poly(sys3.generators[0][1])
    fixture = format_poly(parse_poly("x_1_1_2*y_1_2_3 - y_1_1_2*x_1_2_3", sys3.ring))
    assert generated == fixture, f"{generated} != {fixture}"

    sysb = system("bn", 2, 1)
    literal = parse_poly(
        "-x_1_1_1*x_1_1_2*y_1_1_1^2*d_1_1*d_1_2*d_2_1*d_2_2"
        " + x_1_1_1^2*y_1_1_1*y_1_1_2*d_1_1*d_1_2*d_2_1*d_2_2"
        " + x_1_1_1*x_1_1_2*d_1_1*d_1_2"
        " - y_1_1_1*y_1_1_2*d_2_1*d_2_2",
        sysb.ring,
    )
    generated_b = format_poly(sysb.generators[0][1])
    translated = format_poly(reduce_units(literal))
    assert generated_b == translated, f"{generated_b} != {translated}"
    _report(4, f"relation fixtures bit-exact: '{generated}' and '{generated_b}'")


def test_criterion_5_vanishing_pattern():
    checked = 0
    for n in range(2, 7):
        for genus in (1, 2, 3):
            s = system("un", n, genus)
            assert s.zero_positions == tuple((i, i + 1) for i in range(1, n))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    e = s.word_matrix[i - 1][j - 1]
                    if j == i + 1:
                        assert e.is_zero, (n, genus, i, j)
                    elif j > i + 1:
                        assert e.weight_of() == j - i, (n, genus, i, j)
            checked += 1
    for n in range(2, 5):
        for genus in (1, 2):
            s = system("bn", n, genus)
            for i in range(1, n + 1):
                assert s.word_matrix[i - 1][i - 1].is_zero, (n, genus, i)
            for (i, j), f in s.generators:
                assert f.weight_of() == j - i
            checked += 1
    _report(5, f"vanishing pattern and homogeneity verified on {checked} systems")


def test_criterion_6_koszul_consistency():
    # positive side over the rationals, matching the CI verdicts
    first_nonzero = None
    for n in (3, 4):
        K = build_complex(system("un", n, 1))
        for w in range(9):
            rep = homology_slice(K, 1, w)
            assert rep.status == "ok"
            assert rep.h_dim == 0, f"U{n} H1 at weight {w}"
    # negative side over GF(32003); vanishing mod p would certify vanishing
    # over the rationals, so a nonzero slice here is the expected obstruction
    K6 = build_complex(system("un", 6, 1, 32003))
    for w in range(9):
        rep = homology_slice(K6, 1, w)
        assert rep.status == "ok"
        if rep.h_dim:
            first_nonzero = (w, rep.h_dim)
            break
    assert first_nonzero is not None, "no nonzero H1 slice up to weight 8"
    _report(
        6,
        "U3/U4 H1 slices vanish up to weight 8 over q; U6 H1 first nonzero at "
        f"weight {first_nonzero[0]} with dimension {first_nonzero[1]} over gf:32003",
    )


def test_criterion_7_kunneth():
    K = build_complex(system("un", 3, 1))
    assert kunneth_zero_check(K, 1, 5)
    assert kunneth_zero_check(K, 2, 5)
    _report(7, "Kunneth dimension equalities hold for U3 with 1 and 2 appended zeros up to weight 5")


def test_criterion_8a_dimension_oracle():
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
        assert krull_dimension(gb) == dimension_by_enumeration(gb), trial
    _report(8, "(a) dimension matches subset enumeration on 20 random monomial ideals")


def test_criterion_8b_spair_postcondition():
    shipped = [
        ("un", 3, 1, None),
        ("un", 4, 1, None),
        ("un", 5, 1, 32003),
        ("bn", 2, 1, None),
        ("bn", 3, 1, 32003),
    ]
    pairs = 0
    for kind, n, genus, prime in shipped:
        gb = system_basis(kind, n, genus, prime)
        assert gb.is_complete
        for i in range(len(gb.basis)):
            for j in range(i + 1, len(gb.basis)):
                s = spolynomial(gb.basis[i], gb.basis[j], gb.order)
                assert normal_form(s, gb.basis, gb.order).is_zero, (kind, n, i, j)
                pairs += 1
    _report(8, f"(b) all {pairs} S-pairs of the shipped bases reduce to 0")


def test_criterion_8c_evaluation_consistency():
    fixtures = [("un", 3, 1), ("un", 4, 1), ("un", 3, 2), ("bn", 2, 1), ("bn", 3, 1)]
    for kind, n, genus in fixtures:
        sysm = system(kind, n, genus)
        rng = random.Random(f"acc8c-{kind}{n}{genus}")
        for _ in range(50):
            values = _random_point(sysm, rng)
            word = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            for t in range(1, genus + 1):
                X = _matrix_at_point(sysm, 2 * t - 1, values)
                Y = _matrix_at_point(sysm, 2 * t, values)
                word = _matmul(word, _matmul(_matmul(X, Y), _matmul(_matinv(X), _matinv(Y))))
            for i in range(n):
                for j in range(n):
                    expected = word[i][j] - (1 if (kind == "bn" and i == j) else 0)
                    assert evaluate(sysm.word_matrix[i][j], values) == expected
    _report(8, f"(c) word matrix matches numeric commutators at 50 random points per fixture ({len(fixtures)} fixtures)")


def test_criterion_9_higher_genus():
    r = decide_ci("un", 3, 2)
    assert r.verdict in ("CI", "NotCI"), "must complete with a definite verdict"
    assert r.codim is not None and r.codim <= 1
    assert r.dim is not None
    assert r.note is not None and "tool-derived" in r.note
    _report(
        9,
        f"U3 genus 2: verdict {r.verdict}, dim {r.dim}, codim {r.codim} (tool-derived label present)",
    )


def test_criterion_10_u5_genus_two():
    # the U_n generators are homogeneous for deg x_t_i_j = j - i, and
    # decide_ci computes their basis in that weighted order
    r = decide_ci("un", 5, 2)
    assert r.order["kind"] == "wgrevlex" and r.field == "gf:32003"
    assert (r.nvars, r.generators) == (40, 6)
    assert (r.verdict, r.dim, r.codim) == ("CI", 34, 6)
    assert r.note is not None and "tool-derived" in r.note
    _report(10, f"U5 genus 2: CI, dim {r.dim}, codim {r.codim} over {r.field} in wgrevlex")
