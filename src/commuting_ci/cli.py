"""Command-line front end.

Subcommands:

    decide      one (group, n, genus) verdict as a JSON report
    witness-u6  the 6x6 unipotent obstruction pipeline
    koszul      homology slices of the Koszul complex up to a weight bound
    dump        the generator polynomials, one per line
    table       the classification across a family, fanned out to workers

Exit codes: 0 for a completed verdict, 1 for usage or configuration errors,
2 when a resource limit left the answer incomplete or inconclusive.  The
environment variable COMMUTING_CI_TIMEOUT overrides the default timeout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .cidecide import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_TIMEOUT,
    classify_table,
    decide_ci,
    resolve_field,
    u6_witness,
)
from .groupmat import commutator_word, dump_generators, normalize_kind
from .koszul import DEFAULT_SLICE_CAP, build_complex, homology_slice
from .ordering import MonomialOrder
from .polyring import parse_field_label

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCOMPLETE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # incomplete computations, so remap usage problems to 1.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    """Validated run settings shared by the subcommands."""

    command: str = ""
    group: str = "un"
    n: int = 2
    genus: int = 1
    field: Optional[str] = None
    order_seed: Optional[int] = None
    degree_cap: int = DEFAULT_DEGREE_CAP
    timeout: float = DEFAULT_TIMEOUT
    slice_cap: int = DEFAULT_SLICE_CAP
    output: Optional[str] = None

    def validate(self) -> None:
        normalize_kind(self.group)
        if self.n < 2:
            raise ValueError("--n must be at least 2")
        if self.genus < 1:
            raise ValueError("--genus must be at least 1")
        if self.field not in (None, "auto"):
            parse_field_label(self.field)  # checks primality of gf:p
        if self.degree_cap <= 0:
            raise ValueError("--degree-cap must be positive")
        if not (0 < self.timeout < math.inf):  # False for nan
            raise ValueError("--timeout must be positive and finite")
        if self.slice_cap <= 0:
            raise ValueError("--slice-cap must be positive")


def _effective_timeout(value: Optional[float]) -> float:
    if value is not None:
        return value
    env = os.environ.get("COMMUTING_CI_TIMEOUT")
    if env:
        try:
            return float(env)
        except ValueError:
            raise ValueError(
                f"COMMUTING_CI_TIMEOUT must be a number of seconds, got {env!r}"
            ) from None
    return DEFAULT_TIMEOUT


def _emit(payload: dict, output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, ensure_ascii=False)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_common(p: argparse.ArgumentParser, *, field_default: Optional[str] = None) -> None:
    p.add_argument("--field", default=field_default, help="coefficient field: q or gf:<prime>")
    p.add_argument("--order-seed", type=int, default=None, help="seed for the variable permutation")
    p.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
    p.add_argument("--timeout", type=float, default=None, help="seconds per basis, or per koszul run (env COMMUTING_CI_TIMEOUT)")
    p.add_argument("--output", default=None, help="write the JSON report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="commuting-ci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide one case")
    p.add_argument("--group", required=True, help="un | bn")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("witness-u6", help="run the 6x6 obstruction pipeline")
    _add_common(p, field_default="q")

    p = sub.add_parser("koszul", help="homology slices of the Koszul complex")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--degree", type=int, default=1, help="homological degree (default 1)")
    p.add_argument("--slice-cap", type=int, default=DEFAULT_SLICE_CAP)
    _add_common(p)

    p = sub.add_parser("dump", help="print the generator polynomials")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("table", help="classification table across a family")
    p.add_argument("--family", required=True, help="un | bn")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--jobs", type=int, default=os.cpu_count(), help="worker pool size")
    _add_common(p)

    return parser


def cmd_decide(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        command="decide",
        group=args.group,
        n=args.n,
        genus=args.genus,
        field=args.field,
        order_seed=args.order_seed,
        degree_cap=args.degree_cap,
        timeout=_effective_timeout(args.timeout),
        output=args.output,
    )
    cfg.validate()
    report = decide_ci(
        cfg.group,
        cfg.n,
        cfg.genus,
        field=cfg.field,
        order_seed=cfg.order_seed,
        degree_cap=cfg.degree_cap,
        timeout=cfg.timeout,
    )
    _emit(report.to_json(), cfg.output)
    return EXIT_OK if report.verdict in ("CI", "NotCI") else EXIT_INCOMPLETE


def cmd_witness(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        command="witness-u6",
        n=6,
        field=args.field or "q",
        order_seed=args.order_seed,
        degree_cap=args.degree_cap,
        timeout=_effective_timeout(args.timeout),
        output=args.output,
    )
    cfg.validate()
    report = u6_witness(
        cfg.field,
        cfg.order_seed,
        degree_cap=cfg.degree_cap,
        timeout=cfg.timeout,
    )
    _emit(report.to_json(), cfg.output)
    return EXIT_OK if report.conclusion == "NotCI" else EXIT_INCOMPLETE


def cmd_koszul(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        command="koszul",
        group=args.group,
        n=args.n,
        genus=args.genus,
        field=args.field,
        order_seed=args.order_seed,
        timeout=_effective_timeout(args.timeout),
        slice_cap=args.slice_cap,
        output=args.output,
    )
    cfg.validate()
    if args.max_weight < 0:
        raise ValueError("--max-weight must be non-negative")
    deadline = time.monotonic() + cfg.timeout
    fld = resolve_field(cfg.group, cfg.n, cfg.field)
    system = commutator_word(cfg.group, cfg.n, cfg.genus, fld)
    complex_ = build_complex(system)
    r = len(complex_.generators)
    if not 0 <= args.degree <= r:
        # C_i is zero for i > r: every slice would be a zero slice and the
        # slice cap could never end the loop
        raise ValueError(f"--degree must be in 0..{r} (the nonzero generators), got {args.degree}")
    rows = []
    stopped_by = None
    for w in range(args.max_weight + 1):
        if time.monotonic() > deadline:
            stopped_by = "timeout"
            break
        rep = homology_slice(complex_, args.degree, w, size_cap=cfg.slice_cap)
        rows.append(rep.to_json())
        if rep.status != "ok":
            # U_n has the weight-1 variable x_{1,2}; multiplying by it embeds
            # each chain slice in the next weight, so every later slice is
            # over the cap as well
            stopped_by = "slice_cap"
            break
    payload = {
        "group": normalize_kind(cfg.group),
        "n": cfg.n,
        "genus": cfg.genus,
        "field": fld.label(),
        "degree": args.degree,
        "exterior_factors": complex_.exterior_zero_count,
        "stopped_by": stopped_by,
        "slices": rows,
    }
    _emit(payload, cfg.output)
    return EXIT_INCOMPLETE if stopped_by else EXIT_OK


def cmd_dump(args: argparse.Namespace) -> int:
    cfg = RunConfig(command="dump", group=args.group, n=args.n, genus=args.genus, field=args.field)
    cfg.validate()
    fld = resolve_field(cfg.group, cfg.n, cfg.field)
    system = commutator_word(cfg.group, cfg.n, cfg.genus, fld)
    order = MonomialOrder.seeded(system.ring.nvars, args.order_seed)
    text = dump_generators(system, order)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        command="table",
        group=args.family,
        n=max(args.max_n, 2),
        genus=args.genus,
        field=args.field,
        order_seed=args.order_seed,
        degree_cap=args.degree_cap,
        timeout=_effective_timeout(args.timeout),
        output=args.output,
    )
    cfg.validate()
    reports = classify_table(
        args.family,
        args.max_n,
        cfg.genus,
        field=cfg.field,
        order_seed=cfg.order_seed,
        degree_cap=cfg.degree_cap,
        timeout=cfg.timeout,
        jobs=args.jobs,
    )
    payload = {"family": normalize_kind(args.family), "genus": cfg.genus, "rows": [r.to_json() for r in reports]}
    _emit(payload, cfg.output)
    all_decided = all(r.verdict in ("CI", "NotCI") for r in reports)
    return EXIT_OK if all_decided else EXIT_INCOMPLETE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "decide": cmd_decide,
        "witness-u6": cmd_witness,
        "koszul": cmd_koszul,
        "dump": cmd_dump,
        "table": cmd_table,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"commuting-ci: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
