"""Command-line front end.

Subcommands, and the flags each takes:

    decide      one (group, n, genus) verdict as a JSON report
                --group --n --genus --field --order-seed --degree-cap --timeout --output
    witness-u6  the 6x6 unipotent obstruction pipeline
                --field --order-seed --output
    koszul      homology slices of the Koszul complex up to a weight bound
                --group --n --genus --max-weight --degree --slice-cap --field --timeout --output
    dump        the generator polynomials, one per line
                --group --n --genus --field --order-seed --timeout --output
    table       the classification across a family, one row after another
                --family --max-n --genus --jobs --field --order-seed --degree-cap --timeout --output

Flag values are checked as they are parsed, `--output` too (its directory
must exist), so a bad value costs no computation.  Two koszul checks are
left to the subcommand: the group must be unipotent (B_n slices are never
finite), refused before any word is built, and the upper end of the degree
depends on the generators.  `--timeout` bounds the whole case, word build
included: one deadline, taken when the case starts, that every stage
shares.  For `table` it bounds each row, and the rows run one after another,
so rows that run to it add up.  `table --jobs` is accepted (at least 1)
and has no effect.  A word build that stops raises `WordStopped`: its
message is decide's `note` and dump's stderr line, and its `stopped_by` is
koszul's.

Exit codes: 0 for a completed verdict, 1 for usage or configuration errors
and for output that cannot be written, 2 when a resource limit left the
answer incomplete or inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Callable, Optional, Sequence

from .cidecide import DEFAULT_TIMEOUT, classify_table, decide_ci, resolve_field, u6_witness
from .groebner import DEFAULT_DEGREE_CAP
from .groupmat import WordStopped, commutator_word, dump_generators, normalize_kind
from .koszul import DEFAULT_SLICE_CAP, build_complex, require_unipotent, slices
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


def _checked(convert: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse type whose ValueError becomes a usage error naming the flag."""

    def parse(text: str) -> object:
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _int_at_least(low: int) -> Callable[[str], object]:
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value

    return _checked(convert)


def _field_label(text: str) -> str:
    if text != "auto":
        parse_field_label(text)  # checks primality of gf:p
    return text


def _seconds(text: str) -> float:
    value = float(text)
    if not (0 < value < math.inf):  # False for nan
        raise ValueError(f"must be positive and finite, got {text}")
    return value


def _output_path(text: str) -> str:
    if os.path.isdir(text):
        raise ValueError(f"{text} is a directory")
    folder = os.path.dirname(text) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"no directory {folder}")
    return text


def _emit(payload: dict, output: Optional[str]) -> None:
    _write(json.dumps(payload, indent=2, ensure_ascii=False), output)


def _write(text: str, output: Optional[str]) -> None:
    """Write `text` and a newline to `output` or stdout; a write that fails is a usage error."""
    if not output and sys.stdout is None:
        # fd 1 was closed before the program started: print would drop the text
        raise ValueError("cannot write the output: stdout is closed")
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            # a large write cut short by a closed pipe can return without an
            # error: print's second write, or the flush, then raises
            print(text, flush=True)
    except OSError as exc:
        if not output:  # its reader has gone: the flush at exit must not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError(f"cannot write the output: {exc}") from None


#: Flags that several subcommands share, added by `_add_shared`.
_SHARED = {
    "--order-seed": dict(type=int, default=None, help="seed for the variable permutation"),
    "--degree-cap": dict(
        type=_int_at_least(1),
        default=DEFAULT_DEGREE_CAP,
        help="cap on the degree of each basis: weighted by j - i for un, total for bn",
    ),
    "--timeout": dict(
        type=_checked(_seconds),
        default=DEFAULT_TIMEOUT,
        help="seconds for the whole case (for table, each row)",
    ),
}


def _add_case(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True, type=_checked(normalize_kind), help="un | bn")
    p.add_argument("--n", type=_int_at_least(2), required=True)
    p.add_argument("--genus", type=_int_at_least(1), default=1)


def _add_shared(p: argparse.ArgumentParser, *flags: str, field_default: Optional[str] = None) -> None:
    field_help = f"coefficient field: q, gf:<prime> or auto, the field policy (default {field_default or 'auto'})"
    p.add_argument("--field", type=_checked(_field_label), default=field_default, help=field_help)
    for flag in flags:
        p.add_argument(flag, **_SHARED[flag])
    p.add_argument("--output", type=_checked(_output_path), default=None, help="write the output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="commuting-ci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide one case")
    _add_case(p)
    _add_shared(p, "--order-seed", "--degree-cap", "--timeout")

    p = sub.add_parser("witness-u6", help="run the 6x6 obstruction pipeline")
    _add_shared(p, "--order-seed", field_default="q")

    p = sub.add_parser("koszul", help="homology slices of the Koszul complex")
    _add_case(p)
    p.add_argument("--max-weight", type=_int_at_least(0), required=True)
    p.add_argument("--degree", type=_int_at_least(0), default=1, help="homological degree (default 1)")
    p.add_argument("--slice-cap", type=_int_at_least(1), default=DEFAULT_SLICE_CAP)
    _add_shared(p, "--timeout")

    p = sub.add_parser("dump", help="print the generator polynomials")
    _add_case(p)
    _add_shared(p, "--order-seed", "--timeout")

    p = sub.add_parser("table", help="classification table across a family")
    p.add_argument("--family", required=True, type=_checked(normalize_kind), help="un | bn")
    p.add_argument("--max-n", type=_int_at_least(2), required=True)
    p.add_argument("--genus", type=_int_at_least(1), default=1)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="accepted, at least 1; has no effect")
    _add_shared(p, "--order-seed", "--degree-cap", "--timeout")

    return parser


def cmd_decide(args: argparse.Namespace) -> int:
    report = decide_ci(
        args.group,
        args.n,
        args.genus,
        field=args.field,
        order_seed=args.order_seed,
        degree_cap=args.degree_cap,
        timeout=args.timeout,
    )
    _emit(report.to_json(), args.output)
    return EXIT_OK if report.verdict in ("CI", "NotCI") else EXIT_INCOMPLETE


def cmd_witness(args: argparse.Namespace) -> int:
    report = u6_witness(args.field, args.order_seed)
    _emit(report.to_json(), args.output)
    return EXIT_OK if report.conclusion == "NotCI" else EXIT_INCOMPLETE


def cmd_koszul(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + args.timeout
    require_unipotent(args.group)  # before the word build, which a B_n slice never needs
    fld = resolve_field(args.group, args.n, args.field)
    payload = {
        "group": args.group,
        "n": args.n,
        "genus": args.genus,
        "field": fld.label(),
        "degree": args.degree,
        "exterior_factors": None,
        "stopped_by": None,
        "slices": [],
    }
    try:
        system = commutator_word(args.group, args.n, args.genus, fld, deadline=deadline)
    except WordStopped as exc:
        payload["stopped_by"] = exc.stopped_by
        _emit(payload, args.output)
        return EXIT_INCOMPLETE
    complex_ = build_complex(system)
    r = len(complex_.generators)
    if args.degree > r:
        # C_i is zero for i > r: every slice would be a zero slice and the
        # slice cap could never end the loop
        raise ValueError(f"--degree must be in 0..{r} (the nonzero generators), got {args.degree}")
    rows = []
    stopped_by = None
    for rep in slices(
        complex_, args.degree, args.max_weight, size_cap=args.slice_cap, deadline=deadline
    ):
        rows.append(rep.to_json())
        if rep.status != "ok":
            # Over the cap: U_n has the weight-1 variable x_{1,2}; multiplying
            # by it embeds each chain slice in the next weight, so every later
            # slice is over the cap as well.  Within it, the deadline passed
            # before the slice or between two of its blocks.
            stopped_by = "slice_cap" if max(rep.chain_dims) > args.slice_cap else "timeout"
            break
    payload.update(
        exterior_factors=complex_.exterior_zero_count, stopped_by=stopped_by, slices=rows
    )
    _emit(payload, args.output)
    return EXIT_INCOMPLETE if stopped_by else EXIT_OK


def cmd_dump(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + args.timeout
    fld = resolve_field(args.group, args.n, args.field)
    try:
        system = commutator_word(args.group, args.n, args.genus, fld, deadline=deadline)
    except WordStopped as exc:
        print(f"commuting-ci: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    order = MonomialOrder.seeded(system.ring.nvars, args.order_seed)
    _write(dump_generators(system, order), args.output)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    reports = classify_table(
        args.family,
        args.max_n,
        args.genus,
        field=args.field,
        order_seed=args.order_seed,
        degree_cap=args.degree_cap,
        timeout=args.timeout,
    )
    payload = {"family": args.family, "genus": args.genus, "rows": [r.to_json() for r in reports]}
    _emit(payload, args.output)
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
