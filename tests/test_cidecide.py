"""Verdict pipeline: decide_ci, the 6x6 witness, and the classification table."""

import dataclasses
import json
import multiprocessing.process
import os

import pytest

from commuting_ci import cidecide, cli
from commuting_ci.cidecide import (
    classify_table,
    decide_ci,
    resolve_field,
    set_to_zero,
    u6_witness,
    window_witness,
)
from commuting_ci.groebner import buchberger, krull_dimension
from commuting_ci.koszul import build_complex
from commuting_ci.ordering import MonomialOrder
from commuting_ci.polyring import QQ, PrimeField, parse_poly

from conftest import system
from oracles import add, homology_slice, normal_form


def test_resolve_field_policy():
    assert resolve_field("un", 4, None) == QQ
    assert resolve_field("un", 5, None) == PrimeField(32003)
    assert resolve_field("bn", 2, None) == QQ
    assert resolve_field("bn", 3, None) == PrimeField(32003)
    assert resolve_field("un", 6, "q") == QQ
    assert resolve_field("un", 3, "gf:7") == PrimeField(7)


# -- decide_ci ---------------------------------------------------------------


def test_decide_u2_trivial():
    r = decide_ci("un", 2, 1)
    assert r.verdict == "CI"
    assert r.generators == 0 and r.codim == 0
    assert r.nvars == 2 and r.dim == 2
    assert r.exterior_factors == 1


def test_decide_u3():
    r = decide_ci("un", 3, 1)
    assert (r.nvars, r.generators, r.dim, r.codim) == (6, 1, 5, 1)
    assert r.verdict == "CI"
    assert r.field == "q"
    assert r.structure is not None and "2 degree-1 generators" in r.structure


def test_decide_u5_modular():
    r = decide_ci("un", 5, 1)
    assert (r.nvars, r.generators, r.dim, r.codim) == (20, 6, 14, 6)
    assert r.verdict == "CI" and r.field == "gf:32003"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("field", ["q", "gf:32003"])
@pytest.mark.parametrize("n,genus", [(2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2)])
def test_weighted_and_plain_orders_agree(n, genus, field, seed):
    # decide_ci orders U_n by wgrevlex; a grevlex basis in the same
    # permutation must give the same dimension
    r = decide_ci("un", n, genus, field=field, order_seed=seed)
    s = system("un", n, genus, None if field == "q" else 32003)
    order = MonomialOrder.seeded(s.ring.nvars, seed)
    assert r.order == {"kind": "wgrevlex", "seed": seed, "permutation": list(order.permutation)}
    dim = krull_dimension(buchberger([f for _, f in s.generators], order, ring=s.ring))
    assert (dim, s.ring.nvars - dim) == (r.dim, r.codim)


def test_decide_b2():
    r = decide_ci("bn", 2, 1)
    assert r.nvars == 10
    assert r.generators + r.unit_relations == 5
    assert r.dim == 5 and r.codim == 5
    assert r.verdict == "CI"
    assert r.exterior_factors == 2
    assert r.structure is None  # structure statement is recorded for unipotent only


def test_decide_higher_genus_u3():
    r = decide_ci("un", 3, 2)
    assert r.verdict in ("CI", "NotCI")
    assert r.codim is not None and r.codim <= r.generators
    assert r.note is not None and "tool-derived" in r.note
    assert r.nvars == 12


def test_decide_incomplete_on_timeout():
    r = decide_ci("un", 5, 1, timeout=0.0)
    assert r.verdict == "Incomplete"
    assert r.dim is None and r.codim is None
    # the clock already stops the word build
    assert r.note == "stopped by the timeout while building the commutator word"
    assert r.generators is None and r.stats is None and r.nvars == 20
    # the order is drawn after the word build
    assert r.order["permutation"] is None


def test_incomplete_report_names_its_limit_and_progress():
    r = decide_ci("un", 5, 2, field="gf:32003", degree_cap=5)
    assert r.verdict == "Incomplete" and r.dim is None
    assert r.stats["stopped_by"] == "degree_cap"
    assert r.stats["pairs"] > 0 and r.stats["max_degree"] == 5
    assert r.stats["basis_size"] > 0 and r.stats["pairs_pending"] > 0
    # the word takes milliseconds and the basis far longer than a second, so
    # the clock stops the basis
    r = decide_ci("un", 6, 2, field="gf:32003", timeout=1.0)
    assert r.verdict == "Incomplete"
    assert r.stats["stopped_by"] == "timeout"
    assert r.stats["basis_size"] > 0


def test_codim_never_exceeds_generator_count():
    for kind, n, genus in [("un", 3, 1), ("un", 4, 1), ("un", 3, 2), ("bn", 2, 1)]:
        r = decide_ci(kind, n, genus)
        assert r.codim <= r.generators + r.unit_relations
        assert (r.verdict == "CI") == (r.codim == r.generators + r.unit_relations)


def test_verdicts_agree_with_koszul_vanishing():
    # the two criteria must agree on completed runs
    for n in (3, 4):
        r = decide_ci("un", n, 1)
        K = build_complex(system("un", n, 1))
        h1 = [homology_slice(K, 1, w).h_dim for w in range(9)]
        assert r.verdict == "CI"
        assert all(h == 0 for h in h1)


# -- the 6x6 witness ------------------------------------------------------------


_SURVIVOR_14 = "x_1_1_2*y_1_2_4 + x_1_1_3*y_1_3_4 - x_1_3_4*y_1_1_3 - x_1_2_4*y_1_1_2"
_SURVIVOR_36 = "x_1_3_4*y_1_4_6 + x_1_3_5*y_1_5_6 - x_1_5_6*y_1_3_5 - x_1_4_6*y_1_3_4"
_WINDOW = ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (4, 6))


@pytest.fixture(scope="module")
def witness():
    return u6_witness("q")


def test_witness_concludes_not_ci(witness):
    assert witness.pattern_ok
    assert witness.conclusion == "NotCI"
    assert witness.codim_bound == 6
    assert witness.bounding_generators == 6
    assert len(witness.memberships) == 7 and all(witness.memberships.values())


def test_witness_pattern_values(witness):
    sys6 = system("un", 6, 1)
    ring = sys6.ring
    kill = witness.substitution
    assert set_to_zero(sys6.generator_at(1, 4), kill) == parse_poly(_SURVIVOR_14, ring)
    assert set_to_zero(sys6.generator_at(2, 5), kill).is_zero
    assert set_to_zero(sys6.generator_at(3, 6), kill) == parse_poly(_SURVIVOR_36, ring)


@pytest.mark.parametrize("prime", [None, 32003])
@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_window_generators_lie_in_the_bounding_ideal(n, prime):
    # the witness proves the seven memberships by a substitution identity;
    # a Groebner basis of the six bounding polynomials checks them directly
    sys_n = system("un", n, 1, prime)
    ring = sys_n.ring
    bounding = [parse_poly(v, ring) for v in ("x_1_2_3", "x_1_4_5", "y_1_2_3", "y_1_4_5")]
    bounding += [parse_poly(_SURVIVOR_14, ring), parse_poly(_SURVIVOR_36, ring)]
    gb = buchberger(bounding, ring=ring)
    assert gb.is_complete
    for pos in _WINDOW:
        assert normal_form(sys_n.generator_at(*pos), gb.basis, gb.order).is_zero, pos


@pytest.mark.parametrize("pos", [(2, 5), (3, 6)])
def test_a_failed_pattern_leaves_the_witness_inconclusive(pos, monkeypatch):
    # add a term with no killed variable in it to one window generator
    sys6 = system("un", 6, 1)
    extra = parse_poly("x_1_2_4*y_1_1_2", sys6.ring)
    gens = tuple((p, add(f, extra) if p == pos else f) for p, f in sys6.generators)
    tampered = dataclasses.replace(sys6, generators=gens)
    w = window_witness(tampered, MonomialOrder.identity(tampered.ring.nvars))
    assert (w.pattern_ok, w.conclusion, w.failed_position) == (False, "Inconclusive", pos)
    assert w.memberships == {} and w.codim_bound is None
    # decide_ci then falls through to the basis, which the degree cap stops
    monkeypatch.setattr(cidecide, "commutator_word", lambda *args, **kwargs: tampered)
    r = decide_ci("un", 6, 1, degree_cap=2)
    assert (r.verdict, r.witness) == ("Incomplete", None)
    assert r.stats["stopped_by"] == "degree_cap"


@pytest.mark.parametrize("kind,n,genus", [("un", 5, 1), ("un", 6, 2), ("bn", 6, 1)])
def test_window_witness_needs_a_unipotent_genus_one_system_with_n_at_least_6(kind, n, genus):
    sys_ = system(kind, n, genus)
    with pytest.raises(ValueError, match="window witness"):
        window_witness(sys_, MonomialOrder.identity(sys_.ring.nvars))


def test_witness_modular_run():
    w = u6_witness("gf:32003")
    assert w.conclusion == "NotCI" and w.field == "gf:32003"


def test_witness_under_permuted_order():
    w = u6_witness("q", order_seed=7)
    assert w.conclusion == "NotCI"


def test_witness_json_round_trip(witness):
    assert json.loads(json.dumps(witness.to_json())) == witness.to_json()


# -- classification table ----------------------------------------------------------


def test_table_unipotent_small():
    rows = classify_table("un", 3, 1)
    assert [r.n for r in rows] == [2, 3]
    assert all(r.verdict == "CI" for r in rows)


def test_table_borel():
    rows = classify_table("bn", 3, 1)
    assert [(r.n, r.verdict) for r in rows] == [(2, "CI"), (3, "CI")]


def test_table_includes_u6_witness_row():
    rows = classify_table("un", 6, 1)
    by_n = {r.n: r for r in rows}
    assert by_n[6].verdict == "NotCI"
    assert by_n[6].witness is not None
    assert by_n[6].witness["conclusion"] == "NotCI"
    assert by_n[6].note is None  # n = 6 is a complete certificate
    assert all(by_n[n].verdict == "CI" for n in (2, 3, 4, 5))


def test_decide_u7_certified_by_window_witness():
    r = decide_ci("un", 7, 1)
    assert r.verdict == "NotCI"
    assert (r.nvars, r.generators, r.note) == (42, 15, None)
    assert r.stats is None and r.dim is None and r.codim is None
    assert r.witness["conclusion"] == "NotCI" and r.witness["field"] == r.field
    assert len(r.witness["memberships"]) == 7 and all(r.witness["memberships"].values())
    assert sorted(r.order["permutation"]) == list(range(42))


def without_seconds(data):
    """A report's JSON with `wall_seconds` and `stats.seconds` masked."""
    data = dict(data, wall_seconds=None)
    if data["stats"] is not None:
        data["stats"] = dict(data["stats"], seconds=None)
    return data


def test_table_rows_are_decide_reports():
    rows = classify_table("un", 8, 1, order_seed=7)
    assert [r.n for r in rows] == list(range(2, 9))
    assert [without_seconds(r.to_json()) for r in rows] == [
        without_seconds(decide_ci("un", n, 1, order_seed=7).to_json()) for n in range(2, 9)
    ]


@pytest.mark.parametrize("family,max_n", [("un", 4), ("bn", 2)])
def test_table_rows_at_genus_two_are_decide_reports(family, max_n):
    rows = classify_table(family, max_n, 2)
    assert [r.n for r in rows] == list(range(2, max_n + 1))
    assert all(r.genus == 2 and r.verdict == "CI" for r in rows)
    assert [without_seconds(r.to_json()) for r in rows] == [
        without_seconds(decide_ci(family, n, 2).to_json()) for n in range(2, max_n + 1)
    ]


def test_table_runs_in_this_process(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("table started a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    argv = ["table", "--family", "un", "--max-n", "6"]
    tables = []
    for jobs in ("4", "1"):
        assert cli.main(argv + ["--jobs", jobs]) == 0
        payload = json.loads(capsys.readouterr().out)
        tables.append(dict(payload, rows=[without_seconds(row) for row in payload["rows"]]))
    assert tables[0] == tables[1]


def test_u6_verdict_agrees_across_order_seeds():
    reports = [decide_ci("un", 6, 1, order_seed=s) for s in (7, 12345)]
    assert [r.verdict for r in reports] == ["NotCI", "NotCI"]
    assert reports[0].order["permutation"] != reports[1].order["permutation"]
    assert reports[0].witness["memberships"] == reports[1].witness["memberships"]


def test_codim_above_generator_count_raises(monkeypatch):
    real = cidecide.krull_dimension

    def inflated(gb):
        return real(gb) - 1

    monkeypatch.setattr(cidecide, "krull_dimension", inflated)
    with pytest.raises(RuntimeError, match="unipotent n=3 genus=1"):
        decide_ci("un", 3, 1)


def test_codim_below_generator_count_is_not_ci(monkeypatch):
    # the witness decides every NotCI case at hand, so a codimension one short
    # of the generator count is planted to reach the basis's own NotCI branch
    real = cidecide.krull_dimension
    gens = len(system("un", 4, 1).generators)

    def deflated(gb):
        return gb.ring.nvars - gens + 1

    monkeypatch.setattr(cidecide, "krull_dimension", deflated)
    r = decide_ci("un", 4, 1)
    assert r.verdict == "NotCI"
    assert (r.dim, r.codim) == (r.nvars - gens + 1, gens - 1)
    assert r.codim == r.generators + r.unit_relations - 1
    assert r.structure is None and r.witness is None and r.stats is not None
    assert r.to_json()["structure"] is None
    assert cli.main(["decide", "--group", "un", "--n", "4"]) == 0


def test_report_json_round_trip():
    for r in (decide_ci("un", 3, 1), decide_ci("un", 6, 1)):
        assert json.loads(json.dumps(r.to_json())) == r.to_json()
