"""Benchmark of the ``commuting-ci`` command line, end to end and by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload decide --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each case is the argv a user would pass to ``commuting-ci``.  It runs in a
fresh child process (``bench/child.py``) that imports the package from
``src/`` and calls ``commuting_ci.cli.main``.  One client runs one case at a
time (a closed loop); ``table`` rows fan out to at most ``nproc`` pool
workers.  Passes over the workload's cases repeat while another pass fits in
``--seconds``; there is always at least one.

Every answer is checked against the expected values in ``bench/cases.py``.
An operation is one decide or witness case, one table row or one Koszul
slice.  It fails on a wrong verdict, dim, codim or h_dim, on h_dim < 0, on a
crash, on an exit code that does not match the report, or, for a frontier
case, when the clock rather than the degree cap stopped it.

With ``--trace 0`` the result carries the end-to-end metrics, measured with
tracing off:

* ``wall_s``: sum over cases of the median time spent inside ``cli.main``;
  interpreter start and import are excluded.
* ``setup_s``: median over the children, and over a few import-only
  children, of the time from launch until the package's CLI module is
  imported.
* ``peak_rss_mb``: the largest peak RSS of any child, pool workers included.

With ``--trace 1`` untraced and traced passes alternate, and the result
carries the per-layer metrics of the traced passes (medians over passes) and
``trace.overhead_s``, the traced minus the untraced ``wall_s``.

Human-readable lines, including ``fail_ratio`` and ``decided_ratio``, come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when any
operation fails other than the known defects listed in ``cases.py``; those
still count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import cases as C

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

#: The whole run must end well inside three minutes; a child still running
#: at this point is killed and its operations count as failed.
RUN_LIMIT_S = 165.0

DECIDED = ("CI", "NotCI")

#: Import-only children per run, on top of one per case, so that even a
#: workload with three cases takes set-up time as a median of many launches.
SETUP_PROBES = 4


@dataclass
class ChildResult:
    setup_s: float = 0.0
    main_s: float = 0.0
    exit: Optional[int] = None
    maxrss_kb: int = 0
    report: Optional[dict] = None
    spans: List[dict] = field(default_factory=list)
    error: Optional[str] = None


@dataclass
class Outcome:
    """Checked answers of one case in one pass."""

    case: C.Case
    child: ChildResult
    failures: List[tuple] = field(default_factory=list)  # (op, reason, known)
    decided: int = 0
    unverified: int = 0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("COMMUTING_CI_TIMEOUT", None)  # the cases set their own limits
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(case: C.Case, trace: bool, env: Dict[str, str], deadline: float) -> ChildResult:
    """Run one case in a fresh process group; kill the group at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        return ChildResult(error="not started: run time limit reached")
    launch = time.monotonic()
    cmd = [sys.executable, str(CHILD), repr(launch), "1" if trace else "0", case.id, "--", *case.argv]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        return ChildResult(error="killed: run time limit reached")
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        return ChildResult(error=f"crashed with code {proc.returncode}: {tail[0][:200]}")
    try:
        data = json.loads(out)
    except json.JSONDecodeError:
        return ChildResult(error="child printed no result")
    res = ChildResult(
        setup_s=data["setup_s"],
        main_s=data["main_s"],
        exit=data["exit"],
        maxrss_kb=data["maxrss_kb"],
        spans=data["spans"],
    )
    try:
        res.report = json.loads(data["stdout"])
    except json.JSONDecodeError:
        res.error = f"exit {res.exit} with no JSON report"
    return res


# -- answer checks -------------------------------------------------------------


def check_verdict(exp: C.Expect, row: dict, *, frontier: bool, main_s: float) -> tuple:
    """Status of one verdict row: ("decided" | "unverified" | "open" | "failed", reason)."""
    v = row["verdict"]
    if v in DECIDED:
        dim, codim = row["dim"], row["codim"]
        if codim is not None and codim > row["generators"] + row["unit_relations"]:
            return "failed", f"codim {codim} exceeds the generator count"
        if dim is not None and codim is not None and dim + codim != row["nvars"]:
            return "failed", f"dim {dim} + codim {codim} != nvars {row['nvars']}"
        if exp.verdict is None:
            return "unverified", f"{v} has no reference"
        for name, want, got in (("verdict", exp.verdict, v), ("dim", exp.dim, dim), ("codim", exp.codim, codim)):
            if want is not None and got != want:
                return "failed", f"{name} {got}, expected {want} ({exp.source})"
        return "decided", ""
    if v == "Incomplete":
        if frontier:
            stats = row["stats"] or {}
            if max(stats.get("seconds", 0.0), main_s) >= C.FRONTIER_TIMEOUT:
                return "failed", "stopped by the timeout, not the degree cap"
            if stats.get("max_degree", 0) < C.FRONTIER_CAP:
                return "failed", f"max_degree {stats.get('max_degree')} below the cap: stopped by the timeout"
        return "open", ""
    return "failed", f"unknown verdict {v!r}"


def _expected_exit(case: C.Case, report: dict) -> int:
    if case.kind == "decide":
        done = report["verdict"] in DECIDED
    elif case.kind == "witness":
        done = report["conclusion"] == "NotCI"
    elif case.kind == "table":
        done = all(r["verdict"] in DECIDED for r in report["rows"])
    else:
        done = all(s["status"] == "ok" for s in report["slices"])
    return 0 if done else 2


def _op_statuses(case: C.Case, report: dict, main_s: float) -> List[tuple]:
    if case.kind == "decide":
        return [check_verdict(case.expect[0], report, frontier=case.frontier, main_s=main_s)]
    if case.kind == "witness":
        c = report["conclusion"]
        if c == "NotCI":
            return [("decided", "") if case.expect[0].verdict == c else ("failed", f"conclusion {c}")]
        return [("open", "")]
    if case.kind == "table":
        rows = report["rows"]
        out = [check_verdict(e, r, frontier=False, main_s=main_s) for e, r in zip(case.expect, rows)]
    else:
        rows = report["slices"]
        out = []
        for want, s in zip(case.expect, rows):
            h = s["h_dim"]
            if s["status"] != "ok":
                out.append(("open", ""))
            elif h is None or h < 0:
                out.append(("failed", f"w={s['w']}: h_dim {h} < 0"))
            elif h != want:
                out.append(("failed", f"w={s['w']}: h_dim {h}, expected {want} ({case.source})"))
            else:
                out.append(("decided", ""))
    out += [("failed", "missing from the report")] * (case.ops - len(rows))
    return out


def check(case: C.Case, child: ChildResult) -> Outcome:
    outcome = Outcome(case, child)
    if child.error is None:
        try:
            statuses = _op_statuses(case, child.report, child.main_s)
            want_exit = _expected_exit(case, child.report)
        except (KeyError, TypeError) as exc:
            child.error = f"malformed report: {exc!r}"
        else:
            if child.exit != want_exit:
                child.error = f"exit {child.exit} but the report implies {want_exit}"
    if child.error is not None:
        statuses = [("failed", child.error)] * case.ops
    for op, (status, reason) in enumerate(statuses):
        if status == "failed":
            known = child.error is None and (case.id, op) in C.KNOWN_DEFECTS
            outcome.failures.append((op, reason, known))
        elif status == "decided":
            outcome.decided += 1
        elif status == "unverified":
            outcome.unverified += 1
    return outcome


# -- metrics -------------------------------------------------------------------


def _self_times(spans: List[dict]) -> List[float]:
    cover = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            cover[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, cover)]


def layer_metrics(outcomes: List[Outcome]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    dur: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    cnt: Dict[str, float] = {}
    max_degree = 0
    table_capacity = 0.0
    for o in outcomes:
        spans = o.child.spans
        for s, own in zip(spans, _self_times(spans)):
            name = s["name"]
            d = s["end"] - s["start"]
            dur[name] = dur.get(name, 0.0) + d
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            counts = s.get("counts") or {}
            for k, v in counts.items():
                if k == "max_degree":
                    max_degree = max(max_degree, v)
                elif k == "jobs":
                    table_capacity += v * d
                else:
                    cnt[k] = cnt.get(k, 0) + v

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    pairs = cnt.get("pairs", 0)
    return {
        "groebner.buchberger_s": dur.get("groebner.buchberger", 0.0),
        "groebner.pairs": pairs,
        "groebner.zero_reductions": cnt.get("zero_reductions", 0),
        "groebner.useful_pair_ratio": 1.0 - ratio(cnt.get("zero_reductions", 0), pairs) if pairs else 0.0,
        "groebner.basis_size": cnt.get("basis_size", 0),
        "groebner.max_degree": max_degree,
        "groebner.krull_s": dur.get("groebner.krull_dimension", 0.0),
        "groebner.normal_form_s": dur.get("groebner.normal_form", 0.0),
        "groupmat.word_s": dur.get("groupmat.commutator_word", 0.0),
        "groupmat.generator_terms": cnt.get("generator_terms", 0),
        "cidecide.decide_self_s": self_s.get("cidecide.decide_ci", 0.0),
        "cidecide.witness_s": dur.get("cidecide.u6_witness", 0.0),
        "cidecide.table_s": dur.get("cidecide.classify_table", 0.0),
        "cidecide.table_parallel_eff": ratio(cnt.get("row_seconds", 0.0), table_capacity),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "linalg.rank_q_s": dur.get("linalg.rank_rational", 0.0),
        "linalg.rank_modp_s": dur.get("linalg.rank_mod_p", 0.0),
        "linalg.rank_calls": calls.get("linalg.rank_rational", 0) + calls.get("linalg.rank_mod_p", 0),
        "linalg.rank_cells": cnt.get("cells", 0),
        "linalg.rank_nnz": cnt.get("nnz", 0),
        "linalg.rank_yield": ratio(cnt.get("rank", 0), cnt.get("nonempty_rows", 0)),
        "koszul.slice_s": dur.get("koszul.homology_slice", 0.0),
        "koszul.self_s": self_s.get("koszul.homology_slice", 0.0),
        "koszul.chain_elems": cnt.get("chain_elems", 0),
        "koszul.slices": calls.get("koszul.homology_slice", 0),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_eff", "_yield")) else "count"


def wall_s(passes: List[List[Outcome]]) -> float:
    """Sum over cases of the median time inside cli.main across passes."""
    by_case: Dict[str, List[float]] = {}
    for p in passes:
        for o in p:
            by_case.setdefault(o.case.id, []).append(o.child.main_s)
    return sum(statistics.median(v) for v in by_case.values())


# -- running a workload --------------------------------------------------------


def setup_probes(count: int, env: Dict[str, str], deadline: float) -> List[float]:
    """Set-up times of `count` import-only children, after one untimed warm-up.

    The warm-up keeps byte-compilation out of every measured set-up.
    """
    times = []
    for _ in range(count + 1):
        launch = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(CHILD), repr(launch), "0", "setup", "--"],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        ).stdout
        times.append(json.loads(out)["setup_s"])
    return times[1:]


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    jobs = max(1, min(2, os.cpu_count() or 1))
    env = child_env()
    setups = setup_probes(SETUP_PROBES, env, deadline)
    plain: List[List[Outcome]] = []
    traced: List[List[Outcome]] = []
    start = time.monotonic()
    while True:
        use_trace = trace and len(plain) > len(traced)
        t0 = time.monotonic()
        cases = C.workload_cases(name, seed, jobs, len(plain) + len(traced))
        outcomes = [check(c, run_child(c, use_trace, env, deadline)) for c in cases]
        (traced if use_trace else plain).append(outcomes)
        now = time.monotonic()
        last = now - t0
        if now >= deadline:
            break
        if trace and not traced:
            continue
        if now - start + last > seconds:
            break

    every = [o for p in plain + traced for o in p]
    attempted = sum(o.case.ops for o in every)
    failures = [(o.case.id, op, reason, known) for o in every for op, reason, known in o.failures]
    decided = sum(o.decided for o in every)
    unverified = sum(o.unverified for o in every)
    children = [o.child for p in plain for o in p if o.child.error is None]
    e2e = {
        "wall_s": (wall_s(plain), "s"),
        "setup_s": (statistics.median(setups + [c.setup_s for c in children]), "s"),
        "peak_rss_mb": (max((c.maxrss_kb for c in children), default=0) / 1024, "MB"),
    }
    layers = {}
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        for key in per_pass[0]:
            layers[key] = (statistics.median(m[key] for m in per_pass), layer_unit(key))
        layers["cli.decided_ratio"] = (decided / attempted, "ratio")
        layers["trace.overhead_s"] = (wall_s(traced) - e2e["wall_s"][0], "s")

    print_summary(name, seed, plain, traced, e2e, layers, attempted, failures, decided, unverified)
    metrics = layers if trace else e2e
    return {
        "correct": all(known for *_, known in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_summary(name, seed, plain, traced, e2e, layers, attempted, failures, decided, unverified) -> None:
    print(f"workload {name}  seed {seed}  passes {len(plain)} untraced + {len(traced)} traced")
    for label, passes in (("untraced", plain), ("traced", traced)):
        if passes:
            walls = " ".join(f"{sum(o.child.main_s for o in p):.3f}" for p in passes)
            print(f"  {label} pass times (s): {walls}")
    for key, (v, unit) in e2e.items():
        print(f"  {key:<16} {v:12.4f} {unit}")
    print(f"  {'fail_ratio':<16} {len(failures) / attempted:12.4f} ratio ({len(failures)}/{attempted})")
    print(f"  {'decided_ratio':<16} {decided / attempted:12.4f} ratio ({decided}/{attempted})")
    if unverified:
        print(f"  {'unverified':<16} {unverified:12d} count (certified answers with no reference)")
    for o in plain[-1]:
        line = f"    {o.case.id:<12} {o.child.main_s:9.3f} s  {o.child.maxrss_kb / 1024:7.1f} MB"
        report = o.child.report or {}
        if o.case.frontier and "stats" in report:
            st = report["stats"] or {}
            line += (
                f"  {report.get('verdict')}  pairs {st.get('pairs')}  zero {st.get('zero_reductions')}"
                f"  max_degree {st.get('max_degree')}"
            )
        print(line)
    for (cid, op, reason, known), n in Counter(failures).items():
        tag = "known defect" if known else "FAILED"
        print(f"  {tag}: {cid} op {op}: {reason} (x{n})")
    for key, (v, unit) in layers.items():
        print(f"  {key:<28} {v:14.4f} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=C.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "commuting_ci" / "cli.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = C.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
