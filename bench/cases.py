"""Workloads of the benchmark: the CLI invocations, and the answers each must give.

Every case is the argv a user would pass to ``commuting-ci``.  Each expected
answer names its source:

* ``PAPER``: the results table and the U6 statement in PAPER.md.
* ``UN_CI``: U4 and U5 are complete intersections (PAPER table), so their
  generators form a regular sequence and every degree-1 Koszul slice vanishes.
* ``U6_H1``: the U6 slices of PAPER.md and the ROADMAP baseline, h = 1 at
  weight 7 and h = 6 at weight 8.
* ``TOOL``: what the package printed at the commit that introduced this
  benchmark, with nothing published to compare against.

The order of the variables does not change a verdict, dim or codim, so the
expected answers hold under every ``--order-seed`` the workload seed derives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

PAPER = "PAPER.md results table"
UN_CI = "U_n complete intersection (PAPER.md table), so H1 = 0"
U6_H1 = "PAPER.md / ROADMAP baseline: U6 H1 is 1 at weight 7 and 6 at weight 8"
TOOL = "tool-derived: output of the package when this benchmark was added"
TOOL_U4G2 = "tool-derived: U4 genus 2 decided CI when this benchmark was added, so H1 = 0"
TOOL_WINDOW = "tool-derived: the 6x6 witness embedded as the leading window (ROADMAP item 5)"
ROADMAP_U5G2 = "tool-derived: ROADMAP item 4 reports U5 genus 2 CI with dim 34, codim 6"

#: Slices known to be wrong at the commit that introduced the benchmark.  They
#: are still run and still counted in `failed`; they only keep `correct` true.
#: The dense int64 rank path overflows for primes above about 3e9 (ROADMAP item 3).
KNOWN_DEFECTS = {("u4-p61", 4), ("u4-p61", 5), ("u4-p61", 6)}

BIG_PRIME = 2**61 - 1

#: Degree cap and timeout of the frontier cases.  The cap ends each run; the
#: timeout sits far above the time the cap takes, so a run that reaches it
#: has been stopped by the clock and counts as a failure.
FRONTIER_CAP = 7
FRONTIER_TIMEOUT = 45.0


@dataclass(frozen=True)
class Expect:
    """Expected verdict of one decide-style operation; None means not pinned."""

    verdict: Optional[str]
    dim: Optional[int] = None
    codim: Optional[int] = None
    source: str = ""


@dataclass(frozen=True)
class Case:
    """One CLI invocation and the answers it must give.

    `kind` selects how the report is read: "decide", "witness", "table" or
    "koszul".  `expect` holds one entry per operation: an `Expect` for
    decide, witness and table rows, and an h_dim for each koszul slice.
    """

    id: str
    argv: Tuple[str, ...]
    kind: str
    expect: Tuple
    source: str = ""  # of the koszul h_dims; decide-style entries carry their own
    frontier: bool = False

    @property
    def ops(self) -> int:
        return len(self.expect)


def _decide(cid, group, n, field, verdict, dim, codim, source, *, genus=1, order_seed=None):
    argv = ["decide", "--group", group, "--n", str(n), "--genus", str(genus), "--field", field]
    if order_seed is not None:
        argv += ["--order-seed", str(order_seed)]
    return Case(cid, tuple(argv), "decide", (Expect(verdict, dim, codim, source),))


def _frontier(cid, group, n, genus, verdict, dim, codim, source):
    argv = (
        "decide", "--group", group, "--n", str(n), "--genus", str(genus),
        "--field", "gf:32003", "--degree-cap", str(FRONTIER_CAP),
        "--timeout", str(FRONTIER_TIMEOUT),
    )
    return Case(cid, argv, "decide", (Expect(verdict, dim, codim, source),), frontier=True)


def _koszul(cid, n, field, max_weight, h, source, *, genus=1):
    argv = (
        "koszul", "--group", "un", "--n", str(n), "--genus", str(genus),
        "--max-weight", str(max_weight), "--field", field,
    )
    return Case(cid, argv, "koszul", tuple(h), source)


def decide_cases(seed: int, jobs: int, pass_index: int) -> List[Case]:
    """Many small bases: the cases that finish today and must stay fast.

    Every case takes an order seed derived from the workload seed and the
    pass, so each pass checks the answers under fresh variable orders.  The
    cost of a case moves by up to 2x from one order to another; the median
    over passes therefore spans several orders, which keeps the workload's
    time from depending on the seed more than on the code.
    """
    rng = random.Random(f"decide:{seed}:{pass_index}")

    def order() -> int:
        return rng.randrange(1, 2**31)

    table_un = [
        Expect("CI", 2, 0, PAPER),
        Expect("CI", 5, 1, PAPER),
        Expect("CI", 9, 3, PAPER),
        Expect("CI", 14, 6, PAPER),
        Expect("NotCI", None, None, PAPER),
        Expect("NotCI", None, None, TOOL_WINDOW),
        Expect("NotCI", None, None, TOOL_WINDOW),
        Expect("NotCI", None, None, TOOL_WINDOW),
    ]
    table_bn = [Expect("CI", 5, 5, PAPER), Expect("CI", 9, 9, PAPER)]
    table = ("table", "--genus", "1", "--jobs", str(jobs))
    return [
        _decide("u4", "un", 4, "q", "CI", 9, 3, PAPER, order_seed=order()),
        _decide("u5", "un", 5, "q", "CI", 14, 6, PAPER, order_seed=order()),
        _decide("u5-gf", "un", 5, "gf:32003", "CI", 14, 6, PAPER, order_seed=order()),
        _decide("b2", "bn", 2, "q", "CI", 5, 5, PAPER, order_seed=order()),
        _decide("b3", "bn", 3, "q", "CI", 9, 9, PAPER, order_seed=order()),
        _decide("b3-gf", "bn", 3, "gf:32003", "CI", 9, 9, PAPER, order_seed=order()),
        _decide("b2-g2", "bn", 2, "q", "CI", 11, 9, TOOL, genus=2, order_seed=order()),
        _decide("b2-g3", "bn", 2, "q", "CI", 17, 13, TOOL, genus=3, order_seed=order()),
        _decide("u4-g2", "un", 4, "q", "CI", 21, 3, TOOL, genus=2, order_seed=order()),
        Case(
            "witness-u6",
            ("witness-u6", "--field", "q", "--order-seed", str(order())),
            "witness",
            (Expect("NotCI", source=PAPER),),
        ),
        Case(
            "table-un9",
            table + ("--family", "un", "--max-n", "9", "--order-seed", str(order())),
            "table",
            tuple(table_un),
        ),
        Case(
            "table-bn3",
            table + ("--family", "bn", "--max-n", "3", "--order-seed", str(order())),
            "table",
            tuple(table_bn),
        ),
    ]


def frontier_cases() -> List[Case]:
    """Large bases that end Incomplete at the degree cap; nearly all Buchberger.

    U6 and B4 are bound by the number of pairs, U5 genus 2 by the cost of
    each reduction.  The cap is 7, not 8, so that three passes fit the run
    time and the median over passes can reject a transient change in machine
    speed.  The cases keep the default order: their cost varies about 3x
    across orders, far more than over passes of different orders could even
    out.
    """
    return [
        _frontier("u6", "un", 6, 1, "NotCI", None, None, PAPER),
        _frontier("u5-g2", "un", 5, 2, "CI", 34, 6, ROADMAP_U5G2),
        _frontier("b4", "bn", 4, 1, None, None, None, "no reference: a verdict is unverified"),
    ]


def koszul_q_cases() -> List[Case]:
    """Koszul slices over Q: bound by exact rational rank in `linalg`.

    U4 stops at weight 7.  Its weight-8 slice alone takes about 19 s in dense
    Bareiss, which would leave no room for a second pass in the run time; the
    dense Bareiss path still carries U6 at weight 4 and U5 at weight 6.
    """
    return [
        _koszul("u4-q", 4, "q", 7, [0] * 8, UN_CI),
        _koszul("u5-q", 5, "q", 8, [0] * 9, UN_CI),
        _koszul("u6-q", 6, "q", 7, [0] * 7 + [1], U6_H1),
    ]


def koszul_modp_cases() -> List[Case]:
    """Koszul slices over GF(p): bound by slice enumeration, assembly and rank.

    U6 at weight 8 is the largest slice and sets the peak memory.  U4 genus
    2 stops at weight 6 so that three passes fit the run time.
    """
    return [
        _koszul("u6-p", 6, "gf:32003", 8, [0] * 7 + [1, 6], U6_H1),
        _koszul("u4-g2-p", 4, "gf:32003", 6, [0] * 7, TOOL_U4G2, genus=2),
        _koszul("u4-p61", 4, f"gf:{BIG_PRIME}", 6, [0] * 7, UN_CI),
    ]


WORKLOADS = ("decide", "frontier", "koszul-q", "koszul-modp")


def workload_cases(name: str, seed: int, jobs: int, pass_index: int) -> List[Case]:
    """The cases of one workload in one pass; only `decide` uses the seed."""
    if name == "decide":
        return decide_cases(seed, jobs, pass_index)
    if name == "frontier":
        return frontier_cases()
    if name == "koszul-q":
        return koszul_q_cases()
    if name == "koszul-modp":
        return koszul_modp_cases()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
