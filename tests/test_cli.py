"""Exit codes, JSON reports, and flag handling of the command-line front end."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import commuting_ci
from commuting_ci import cli
from commuting_ci.cli import EXIT_INCOMPLETE, EXIT_OK, EXIT_USAGE, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_decide_u3(capsys):
    code, out = run(capsys, "decide", "--group", "un", "--n", "3", "--genus", "1", "--field", "q")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "CI"
    assert (report["nvars"], report["generators"], report["dim"]) == (6, 1, 5)


def test_decide_u2_high_genus(capsys):
    code, out = run(capsys, "decide", "--group", "un", "--n", "2", "--genus", "5")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "CI" and report["generators"] == 0


def test_decide_incomplete_exit_code(capsys):
    code, out = run(
        capsys,
        "decide", "--group", "un", "--n", "5", "--genus", "1", "--timeout", "0.000001",
    )
    assert code == EXIT_INCOMPLETE
    assert json.loads(out)["verdict"] == "Incomplete"


def test_decide_usage_errors(capsys):
    assert main(["decide", "--group", "un"]) == EXIT_USAGE  # missing --n
    assert main(["decide", "--group", "gl5", "--n", "3"]) == EXIT_USAGE
    assert main(["decide", "--group", "un", "--n", "3", "--field", "gf:15"]) == EXIT_USAGE
    assert main(["decide", "--group", "un", "--n", "1"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


def test_pseudoprime_fields_are_usage_errors(capsys):
    for modulus in ("318665857834031151167461", "3317044064679887385961981"):
        argv = ["decide", "--group", "un", "--n", "3", "--field", f"gf:{modulus}"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""


def test_flags_a_subcommand_does_not_use_are_usage_errors(capsys):
    koszul = ["koszul", "--group", "un", "--n", "3", "--max-weight", "2"]
    dump = ["dump", "--group", "un", "--n", "3"]
    for argv in (
        koszul + ["--degree-cap", "5"],
        koszul + ["--order-seed", "7"],
        dump + ["--degree-cap", "5"],
        ["witness-u6", "--timeout", "1"],
        ["witness-u6", "--degree-cap", "3"],
    ):
        assert main(argv) == EXIT_USAGE, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    # the flags these subcommands do use still work
    assert run(capsys, *koszul, "--field", "gf:7", "--timeout", "60", "--slice-cap", "100")[0] == EXIT_OK
    assert run(capsys, *dump, "--order-seed", "7", "--field", "q", "--timeout", "60")[0] == EXIT_OK


def test_invalid_flag_values_name_the_flag(capsys):
    for argv, flag in (
        (["decide", "--group", "un", "--n", "1"], "--n"),
        (["decide", "--group", "un", "--n", "3", "--genus", "0"], "--genus"),
        (["decide", "--group", "gl5", "--n", "3"], "--group"),
        (["decide", "--group", "un", "--n", "3", "--degree-cap", "0"], "--degree-cap"),
        (["witness-u6", "--field", "gf:15"], "--field"),
        (["table", "--family", "un", "--max-n", "1"], "--max-n"),
        (["table", "--family", "un", "--max-n", "3", "--jobs", "0"], "--jobs"),
        (["table", "--family", "un", "--max-n", "3", "--jobs", "-3"], "--jobs"),
        (["koszul", "--group", "un", "--n", "3", "--max-weight", "3", "--slice-cap", "0"], "--slice-cap"),
        # a negative degree is refused before the word build, which this
        # timeout would otherwise stop with exit 2
        (["koszul", "--group", "un", "--n", "12", "--max-weight", "1", "--timeout", "0.001", "--degree", "-1"],
         "--degree"),
    ):
        assert main(argv) == EXIT_USAGE, argv
        assert flag in capsys.readouterr().err, argv


def test_decide_u6_by_window_witness(capsys):
    code, out = run(capsys, "decide", "--group", "un", "--n", "6", "--timeout", "5")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "NotCI"
    assert report["witness"]["conclusion"] == "NotCI"
    assert len(report["witness"]["memberships"]) == 7


def test_non_finite_timeout_is_a_usage_error(capsys):
    cases = {
        "decide": ["--group", "un", "--n", "3"],
        "koszul": ["--group", "un", "--n", "3", "--max-weight", "1"],
        "dump": ["--group", "un", "--n", "3"],
        "table": ["--family", "un", "--max-n", "3"],
    }
    for command, case in cases.items():
        for value in ("nan", "inf", "0", "-1", "abc"):
            assert main([command, *case, "--timeout", value]) == EXIT_USAGE, (command, value)
            out, err = capsys.readouterr()
            assert out == "" and "argument --timeout" in err, (command, value)


def test_witness_u6(capsys):
    code, out = run(capsys, "witness-u6", "--field", "q")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["conclusion"] == "NotCI"
    assert len(report["memberships"]) == 7


def test_witness_u6_auto_field_follows_the_field_policy(capsys):
    # the parser accepts "auto" for every subcommand; for U6 the policy is GF(32003)
    code, out = run(capsys, "witness-u6", "--field", "auto")
    assert code == EXIT_OK
    report = json.loads(out)
    assert (report["conclusion"], report["field"]) == ("NotCI", "gf:32003")


def test_witness_u6_seeded(capsys):
    code, out = run(capsys, "witness-u6", "--order-seed", "7")
    assert code == EXIT_OK
    assert json.loads(out)["conclusion"] == "NotCI"


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("field", ["q", "gf:32003", "gf:2"])
def test_witness_u6_is_the_witness_of_decide(capsys, field, seed):
    # witness-u6 orders U6 by grevlex and decide by wgrevlex, under the same
    # seeded permutation: both must report the same obstruction
    seeded = [] if seed is None else ["--order-seed", str(seed)]
    code, out = run(capsys, "witness-u6", "--field", field, *seeded)
    assert code == EXIT_OK
    witness = json.loads(out)
    code, out = run(capsys, "decide", "--group", "un", "--n", "6", "--field", field, *seeded)
    assert code == EXIT_OK
    assert json.loads(out)["witness"] == witness


def test_koszul_u3(capsys):
    code, out = run(
        capsys,
        "koszul", "--group", "un", "--n", "3", "--genus", "1", "--max-weight", "6",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["exterior_factors"] == 2
    assert [row["h_dim"] for row in payload["slices"]] == [0] * 7
    assert all(row["status"] == "ok" for row in payload["slices"])
    assert payload["stopped_by"] is None


#: Every slice of `koszul --group un --n 5 --max-weight 8 --field q`, by w:
#: chain_dims, ranks, shapes, blocks, largest_block and h_dim.  Each cols
#: figure sums the target blocks as `oracles.reference_slice` enumerates them.
U5_Q_SLICES = [
    ([1, 0, 0], [0, 0], [[0, 0], [0, 0]], 0, [0, 0], 0),
    ([8, 0, 0], [0, 0], [[0, 0], [0, 0]], 0, [0, 0], 0),
    ([42, 3, 0], [3, 0], [[3, 18], [0, 0]], 3, [1, 6], 0),
    ([172, 26, 0], [26, 0], [[26, 120], [0, 0]], 10, [5, 18], 0),
    ([601, 143, 3], [140, 3], [[143, 506], [3, 49]], 22, [21, 54], 0),
    ([1864, 608, 30], [578, 30], [[608, 1708], [30, 360]], 40, [52, 108], 0),
    ([5274, 2189, 178], [2012, 177], [[2189, 5036], [178, 1629]], 65, [168, 264], 0),
    ([13844, 6966, 802], [6178, 788], [[6966, 13500], [802, 5824]], 98, [372, 528], 0),
    ([34144, 20151, 3019], [17228, 2923], [[20151, 33667], [3019, 17981]], 140, [816, 1056], 0),
]


def test_koszul_u5_q_reports_are_pinned(capsys):
    code, out = run(
        capsys, "koszul", "--group", "un", "--n", "5", "--max-weight", "8", "--field", "q"
    )
    assert code == EXIT_OK
    slices = json.loads(out)["slices"]
    assert [(s["i"], s["w"], s["status"]) for s in slices] == [(1, w, "ok") for w in range(9)]
    got = [
        tuple(s[k] for k in ("chain_dims", "ranks", "shapes", "blocks", "largest_block", "h_dim"))
        for s in slices
    ]
    assert got == U5_Q_SLICES


def test_koszul_rejects_borel(capsys):
    code = main(["koszul", "--group", "bn", "--n", "2", "--max-weight", "3"])
    assert code == EXIT_USAGE
    # B_n slices are never finite, so the group is refused before the word
    # build, whatever its size or the timeout
    for extra in (["--n", "200"], ["--n", "40", "--timeout", "0.01"]):
        t0 = time.monotonic()
        code, out = run(capsys, "koszul", "--group", "bn", "--max-weight", "1", *extra)
        assert time.monotonic() - t0 < 1, extra
        assert (code, out) == (EXIT_USAGE, ""), extra


def test_koszul_negative_max_weight_is_a_usage_error(capsys):
    code, out = run(capsys, "koszul", "--group", "un", "--n", "3", "--max-weight", "-3")
    assert code == EXIT_USAGE and out == ""


def test_koszul_slice_cap_incomplete(capsys):
    code, out = run(
        capsys,
        "koszul", "--group", "un", "--n", "4", "--genus", "1",
        "--max-weight", "6", "--slice-cap", "10",
    )
    assert code == EXIT_INCOMPLETE
    assert json.loads(out)["stopped_by"] == "slice_cap"


def test_koszul_stops_at_the_first_slice_over_the_cap():
    # a fresh interpreter, so that an unbounded loop fails the test by its
    # timeout instead of hanging the suite
    src = Path(commuting_ci.__file__).resolve().parent.parent
    argv = [
        sys.executable, "-m", "commuting_ci.cli", "koszul", "--group", "un", "--n", "3",
        "--max-weight", "100000000", "--slice-cap", "1000",
    ]
    t0 = time.monotonic()
    done = subprocess.run(
        argv, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60
    )
    assert time.monotonic() - t0 < 10
    assert done.returncode == EXIT_INCOMPLETE
    payload = json.loads(done.stdout)
    assert payload["stopped_by"] == "slice_cap"
    *ok, last = payload["slices"]
    assert all(row["status"] == "ok" for row in ok)
    assert last["status"] == "incomplete" and max(last["chain_dims"]) > 1000


def test_koszul_degree_outside_the_complex_is_a_usage_error():
    # a fresh interpreter, so that a loop over all-zero slices fails the test
    # by its timeout instead of hanging the suite
    src = Path(commuting_ci.__file__).resolve().parent.parent
    base = [
        sys.executable, "-m", "commuting_ci.cli", "koszul", "--group", "un", "--n", "3",
        "--max-weight", "100000000", "--timeout", "2",
    ]
    env = dict(os.environ, PYTHONPATH=str(src))
    for degree in ("2", "5"):
        done = subprocess.run(
            base + ["--degree", degree], env=env, capture_output=True, text=True, timeout=30
        )
        assert done.returncode == EXIT_USAGE and done.stdout == ""
        assert "0..1" in done.stderr  # U3 has one nonzero generator


def test_koszul_degrees_at_both_ends_of_the_range_are_computed(capsys):
    for degree in ("0", "1"):
        code, out = run(
            capsys, "koszul", "--group", "un", "--n", "3", "--degree", degree, "--max-weight", "3"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["stopped_by"] is None and len(payload["slices"]) == 4
    assert payload["slices"][0]["h_dim"] == 0  # H_1 at weight 0


def test_koszul_honours_the_timeout(capsys):
    argv = ["koszul", "--group", "un", "--n", "3", "--max-weight", "100000000"]
    code, out = run(capsys, *argv, "--timeout", "0.000001")
    assert code == EXIT_INCOMPLETE
    assert json.loads(out)["stopped_by"] == "timeout"


def _run_fresh(*argv, preexec_fn=None, timeout=60):
    """The CLI in a fresh interpreter, so that an unbounded run fails the test
    by its `timeout` (60 s) instead of hanging the suite."""
    src = Path(commuting_ci.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "commuting_ci.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


def test_decide_timeout_bounds_the_word_build():
    # building the whole U16 word takes about 13 s on a 2-vCPU machine (U14
    # about 2 s); with --timeout 1 this run exits after about 1.1 s
    t0 = time.monotonic()
    done = _run_fresh("decide", "--group", "un", "--n", "16", "--timeout", "1")
    assert time.monotonic() - t0 < 10
    assert done.returncode == EXIT_INCOMPLETE
    report = json.loads(done.stdout)
    assert report["verdict"] == "Incomplete"
    assert report["note"] == "stopped by the timeout while building the commutator word"
    assert (report["nvars"], report["unit_relations"]) == (240, 0)
    for key in ("generators", "exterior_factors", "stats", "witness"):
        assert report[key] is None
    # U110: the coordinate matrices alone take seconds and over a GB
    t0 = time.monotonic()
    done = _run_fresh("decide", "--group", "un", "--n", "110", "--timeout", "0.5")
    assert time.monotonic() - t0 < 3
    assert done.returncode == EXIT_INCOMPLETE
    assert json.loads(done.stdout)["nvars"] == 110 * 109


def test_koszul_timeout_bounds_the_word_build():
    # the U16 word takes about 13 s; each run exits after about 1.1 s and 0.6 s
    for n, timeout, limit in (("16", "1", 10), ("110", "0.5", 3)):
        t0 = time.monotonic()
        done = _run_fresh("koszul", "--group", "un", "--n", n, "--max-weight", "2", "--timeout", timeout)
        assert time.monotonic() - t0 < limit, n
        assert done.returncode == EXIT_INCOMPLETE, n
        payload = json.loads(done.stdout)
        assert payload["stopped_by"] == "timeout" and payload["slices"] == [], n


def test_dump_honours_the_timeout():
    # the whole U16 word takes about 13 s and 1.5 GB on a 2-vCPU machine;
    # with --timeout 1 this run exits after about 1.1 s
    t0 = time.monotonic()
    done = _run_fresh("dump", "--group", "un", "--n", "16", "--timeout", "1")
    assert time.monotonic() - t0 < 10
    assert done.returncode == EXIT_INCOMPLETE
    assert done.stdout == ""
    assert "timeout" in done.stderr


def test_huge_genus_ends_incomplete_under_a_memory_limit():
    # listing the 2 * 10^8 variables of U2 at genus 10^8 needs far more than
    # 1.5 GB: the size check stops the ring before the address space runs out
    import resource

    def limit_memory():  # runs in the child only
        cap = 1536 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    case = ["--group", "un", "--n", "2", "--genus", "100000000"]
    for argv in (
        ["decide", *case, "--timeout", "1"],
        ["koszul", *case, "--max-weight", "1", "--timeout", "1"],
        ["dump", *case, "--timeout", "1"],
    ):
        t0 = time.monotonic()
        done = _run_fresh(*argv, preexec_fn=limit_memory)
        assert time.monotonic() - t0 < 10, argv[0]
        assert done.returncode == EXIT_INCOMPLETE, (argv[0], done.stderr)
        assert "Traceback" not in done.stderr, argv[0]
    report = json.loads(_run_fresh("decide", *case, "--timeout", "0.1").stdout)
    assert (report["nvars"], report["unit_relations"]) == (2 * 10**8, 0)
    assert report["order"] == {"kind": "wgrevlex", "seed": None, "permutation": None}


def test_oversized_ring_ends_incomplete_under_a_memory_limit():
    # U150 has 22,350 variables, more than the word build takes, so it is
    # refused before it starts
    import resource

    def limit_memory():  # runs in the child only
        cap = 2048 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    case = ["--group", "un", "--n", "150"]
    for argv in (
        ["decide", *case, "--timeout", "60"],
        ["koszul", *case, "--max-weight", "3", "--timeout", "60"],
        ["dump", *case],
    ):
        t0 = time.monotonic()
        done = _run_fresh(*argv, preexec_fn=limit_memory)
        assert time.monotonic() - t0 < 10, argv[0]
        assert done.returncode == EXIT_INCOMPLETE, (argv[0], done.stderr)
        assert "Traceback" not in done.stderr, argv[0]
        if argv[0] == "decide":
            report = json.loads(done.stdout)
            assert (report["verdict"], report["nvars"], report["generators"]) == ("Incomplete", 22350, None)
            assert "the commutator word was not built" in report["note"]
        elif argv[0] == "koszul":
            payload = json.loads(done.stdout)
            assert payload["stopped_by"] == "word_size" and payload["slices"] == []
        else:
            assert done.stdout == "" and "22350 variables" in done.stderr


def test_word_build_out_of_memory_ends_incomplete():
    # U80 has 6,320 variables, under the size bound, but each packed monomial
    # takes about 6 KB: the word build passes 400 MB after about 2 s, so under
    # a 400 MB address space it runs out of memory long before the timeout
    import resource

    def limit_memory():  # runs in the child only
        cap = 400 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    case = ["--group", "un", "--n", "80", "--timeout", "60"]
    for argv in (["decide", *case], ["koszul", *case, "--max-weight", "3"], ["dump", *case]):
        t0 = time.monotonic()
        done = _run_fresh(*argv, preexec_fn=limit_memory)
        assert time.monotonic() - t0 < 10, argv[0]
        assert done.returncode == EXIT_INCOMPLETE, (argv[0], done.stderr)
        assert "Traceback" not in done.stderr, argv[0]
        if argv[0] == "decide":
            report = json.loads(done.stdout)
            assert (report["verdict"], report["nvars"], report["generators"]) == ("Incomplete", 6320, None)
            assert "ran out of memory" in report["note"]
        elif argv[0] == "koszul":
            payload = json.loads(done.stdout)
            assert payload["stopped_by"] == "word_size" and payload["slices"] == []
        else:
            assert done.stdout == "" and "ran out of memory" in done.stderr


def test_koszul_u6_genus_two_weight_seven_fits_a_small_address_space():
    # built one torus block at a time, this run peaks near 34 MB RSS; built a
    # whole slice at a time, it needs over 400 MB
    import resource

    def limit_memory():  # runs in the child only
        cap = 160 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    done = _run_fresh(
        "koszul", "--group", "un", "--n", "6", "--genus", "2", "--max-weight", "7",
        "--field", "gf:32003", "--slice-cap", "2000000", preexec_fn=limit_memory,
    )
    assert done.returncode == EXIT_OK, done.stderr
    payload = json.loads(done.stdout)
    assert payload["stopped_by"] is None
    assert [row["h_dim"] for row in payload["slices"]] == [0] * 8
    last = payload["slices"][-1]
    assert last["ranks"] == [318651, 14076]
    assert last["shapes"] == [[332727, 1687636], [14174, 280931]]
    assert last["blocks"] == 274 and last["largest_block"] == [7800, 28800]


def test_koszul_slices_with_no_differential_fit_a_small_address_space():
    # U2 has no generators, so no degree-0 slice builds a differential: its
    # blocks come from the monomial counts, and no monomial is tabled.  At
    # genus 1 the run ends on the timeout, at genus 2 on the slice cap at
    # w 105; tabling every monomial ran out of 300 MB in either
    import resource

    def limit_memory():  # runs in the child only
        cap = 300 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    for genus, stop in (("1", "timeout"), ("2", "slice_cap")):
        done = _run_fresh(
            "koszul", "--group", "un", "--n", "2", "--genus", genus, "--degree", "0",
            "--max-weight", "100000", "--timeout", "3", preexec_fn=limit_memory,
        )
        assert done.returncode == EXIT_INCOMPLETE, (genus, done.stderr)
        payload = json.loads(done.stdout)
        assert payload["stopped_by"] == stop
        *ok, last = payload["slices"]
        assert last["status"] == "incomplete" and len(ok) > 100
        for row in ok:
            size = row["chain_dims"][1]
            assert row["chain_dims"] == [0, size, 0] and row["h_dim"] == size
            assert row["ranks"] == [0, 0] and row["blocks"] == 1
    assert len(ok) == 105 and last["chain_dims"] == [0, 204156, 0]


def test_u5_genus_three_is_ci_in_a_small_address_space():
    # with every S-polynomial reduced only until its leading term is
    # irreducible, this run peaks near 38 MB RSS; reducing each remainder
    # fully, it peaked near 136 MB, and under this cap it died with a
    # MemoryError
    import resource

    def limit_memory():  # runs in the child only
        cap = 100 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    done = _run_fresh("decide", "--group", "un", "--n", "5", "--genus", "3", preexec_fn=limit_memory)
    assert done.returncode == EXIT_OK, done.stderr
    report = json.loads(done.stdout)
    assert (report["verdict"], report["dim"], report["codim"]) == ("CI", 54, 6)
    assert (report["stats"]["pairs"], report["stats"]["zero_reductions"]) == (133, 106)


def test_buchberger_out_of_memory_ends_incomplete():
    # U6 g2 grows inside Buchberger by a few MB a second (about 28 MB RSS
    # after 5 s and 48 MB after 15 s on a 2-vCPU machine).  The child caps
    # its address space 16 MB above what it maps with the package imported,
    # so the run runs out of memory after a few seconds, before its timeout
    code = (
        "import resource, sys\n"
        "from commuting_ci import cli\n"
        "status = open('/proc/self/status').read()\n"
        "cap = int(status.split('VmSize:')[1].split()[0]) * 1024 + 16 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["decide", "--group", "un", "--n", "6", "--genus", "2", "--timeout", "40"]
    src = Path(commuting_ci.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == EXIT_INCOMPLETE, done.stderr
    assert "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert (report["verdict"], report["generators"]) == ("Incomplete", 10)
    stats = report["stats"]
    assert stats["stopped_by"] == "memory"
    assert stats["pairs"] > 0 and stats["pairs_pending"] > 0 and stats["basis_size"] > 0


def test_koszul_timeout_cuts_a_slice_off_between_blocks():
    # weights 0-6 take well under a second and weights 7 and 8 many seconds,
    # so the deadline falls inside a slice, which must stop at its next block
    t0 = time.monotonic()
    done = _run_fresh(
        "koszul", "--group", "un", "--n", "6", "--genus", "2", "--max-weight", "8",
        "--field", "gf:32003", "--slice-cap", "20000000", "--timeout", "2",
    )
    assert time.monotonic() - t0 < 5
    assert done.returncode == EXIT_INCOMPLETE
    payload = json.loads(done.stdout)
    assert payload["stopped_by"] == "timeout"
    *ok, last = payload["slices"]
    assert all(row["status"] == "ok" for row in ok)
    assert (last["status"], last["h_dim"], last["ranks"]) == ("incomplete", None, None)
    assert max(last["chain_dims"]) <= 20000000


def test_koszul_high_degree_slices_end_within_the_bound():
    # U9 has 28 nonzero generators, and no 14-subset of them weighs less than
    # 36 (no 13-subset less than 32).  Counting a slice by scanning all
    # C(28, 14) = 4.0e7 subsets ran for minutes past --timeout 2; walking only
    # the subsets that fit the slice weight, each run takes well under a second
    argv = ["koszul", "--group", "un", "--n", "9", "--degree", "14", "--timeout", "2"]
    argv += ["--field", "gf:32003"]
    done = _run_fresh(*argv, "--max-weight", "36", timeout=30)
    assert done.returncode == EXIT_OK, done.stderr
    payload = json.loads(done.stdout)
    assert payload["stopped_by"] is None and len(payload["slices"]) == 37
    last = payload["slices"][-1]
    assert (last["chain_dims"], last["ranks"], last["h_dim"]) == ([87776, 5, 0], [5, 0], 0)
    done = _run_fresh(*argv, "--max-weight", "60", timeout=30)
    assert done.returncode == EXIT_INCOMPLETE, done.stderr
    payload = json.loads(done.stdout)
    assert payload["stopped_by"] == "slice_cap"
    last = payload["slices"][-1]
    assert (last["w"], last["status"], last["chain_dims"]) == (37, "incomplete", [640740, 144, 0])


def test_dump_u3(capsys):
    code, out = run(capsys, "dump", "--group", "un", "--n", "3", "--genus", "1")
    assert code == EXIT_OK
    line = out.strip()
    assert line.startswith("f[1][3]: ")
    assert set(line.split(": ", 1)[1].replace(" ", "").split("+")[0]) <= set("x_123y*-")


def test_table_small(capsys):
    code, out = run(
        capsys,
        "table", "--family", "un", "--max-n", "3", "--genus", "1", "--jobs", "1",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [row["n"] for row in payload["rows"]] == [2, 3]
    assert all(row["verdict"] == "CI" for row in payload["rows"])


def test_table_through_u6(capsys):
    code, out = run(
        capsys,
        "table", "--family", "un", "--max-n", "6", "--genus", "1", "--jobs", "2",
    )
    assert code == EXIT_OK
    rows = {row["n"]: row for row in json.loads(out)["rows"]}
    assert rows[6]["verdict"] == "NotCI"
    assert rows[6]["witness"]["conclusion"] == "NotCI"
    assert rows[6]["exterior_factors"] == 5
    assert all(rows[n]["verdict"] == "CI" for n in (2, 3, 4, 5))


def test_output_file_round_trip(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run(
        capsys,
        "decide", "--group", "un", "--n", "3", "--output", str(target),
    )
    assert code == EXIT_OK
    on_disk = json.loads(target.read_text(encoding="utf-8"))
    assert on_disk["verdict"] == "CI"


def test_bad_output_path_is_a_usage_error_before_any_work(tmp_path):
    # U6 g2 computes for minutes before it writes: the path is checked first
    t0 = time.monotonic()
    done = _run_fresh(
        "decide", "--group", "un", "--n", "6", "--genus", "2", "--field", "gf:32003",
        "--output", str(tmp_path / "missing" / "x.json"),
    )
    assert time.monotonic() - t0 < 5
    assert done.returncode == EXIT_USAGE and done.stdout == ""
    assert "--output" in done.stderr and "Traceback" not in done.stderr
    # a directory, and a path below a file, which stays as it was
    existing = tmp_path / "report.json"
    existing.write_text("kept\n", encoding="utf-8")
    for target in (tmp_path, existing / "x.json"):
        argv = ["decide", "--group", "un", "--n", "3", "--output", str(target)]
        assert main(argv) == EXIT_USAGE
    assert existing.read_text(encoding="utf-8") == "kept\n"


def test_closed_stdout_is_one_line_and_exit_1():
    # the reader takes 100 bytes and closes the pipe, which holds at most
    # 64 KiB: the rest of the 100 KB U9 dump cannot be written
    src = Path(commuting_ci.__file__).resolve().parent.parent
    with subprocess.Popen(
        [sys.executable, "-m", "commuting_ci.cli", "dump", "--group", "un", "--n", "9"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:  # leaving the block closes both pipes
        try:
            assert len(os.read(proc.stdout.fileno(), 100)) > 0
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == EXIT_USAGE
        finally:
            proc.kill()
    assert "Traceback" not in err and len(err.splitlines()) <= 1


def test_stdout_closed_before_the_start_is_one_line_and_exit_1():
    # with fd 1 closed at start-up, Python sets sys.stdout to None and print
    # drops its text: the output is lost, which must not read as success
    for argv in (
        ["dump", "--group", "un", "--n", "3"],
        ["koszul", "--group", "un", "--n", "3", "--max-weight", "2"],
    ):
        done = _run_fresh(*argv, preexec_fn=lambda: os.close(1))
        assert done.returncode == EXIT_USAGE, argv
        assert "cannot write the output" in done.stderr and len(done.stderr.splitlines()) == 1


def test_flag_docs_match_the_parser():
    # the README table and the module docstring list exactly the accepted flags
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: {flag for action in p._actions for flag in action.option_strings if flag not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = re.findall(r"^\| `([\w-]+)` +\| `(--[^`]*)` \|$", readme, re.M)
    listed = re.findall(r"^    ([\w-]+) .*\n {16}(--.*)$", cli.__doc__, re.M)
    assert {name: set(flags.split()) for name, flags in table} == accepted
    assert {name: set(flags.split()) for name, flags in listed} == accepted
    # and every default the README states is the one each subcommand parses
    stated = dict(re.findall(r"`(--[\w-]+)` \(default (\d+)", readme))
    assert stated.keys() == {"--degree-cap", "--timeout", "--slice-cap"}
    for p in sub.choices.values():
        for action in p._actions:
            for flag in set(action.option_strings) & stated.keys():
                assert action.default == float(stated[flag]), (p.prog, flag)
    # `--field auto` is accepted everywhere, and the README says so
    field_bullet = re.search(r"^\* `--field`.*?(?=^\* )", readme, re.M | re.S).group(0)
    assert "`auto`" in field_bullet and "`witness-u6`" in field_bullet
    for p in sub.choices.values():
        field = next(a for a in p._actions if "--field" in a.option_strings)
        assert field.type("auto") == "auto" and "auto" in field.help, p.prog
