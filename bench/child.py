"""Run one ``commuting-ci`` invocation in this fresh process and report on it.

Usage::

    python3 bench/child.py LAUNCH TRACE CASE_ID -- CLI_ARGS...

With no CLI_ARGS the child only imports the package: a set-up probe.

LAUNCH is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so set-up time is the span from launch
until the package's CLI module is imported.  TRACE is 0 or 1.  With 1, the
public functions of each layer are wrapped from outside the package and every
call becomes a span.  The process prints one JSON object on stdout: set-up
and ``cli.main`` seconds, the exit code, peak RSS over this process and its
waited-for children (the ``table`` pool workers), the CLI's own stdout, and
the spans.
"""

# Only these two imports come before the package's: set-up time should be
# the interpreter start plus the import a user's command pays.
import sys
import time


class Tracer:
    """Spans kept in memory: name, start, end, parent index, case id, counts."""

    def __init__(self, case_id: str) -> None:
        self.case_id = case_id
        self.spans = []
        self._stack = []

    def call(self, name, fn, args, kwargs, count=None):
        span = {
            "name": name,
            "case": self.case_id,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span["counts"] = count(args, kwargs, result)
        return result

    def wrap(self, module, attr, name, count=None) -> None:
        """Replace ``module.attr`` by a spanning wrapper; skip a missing name."""
        fn = getattr(module, attr, None)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        setattr(module, attr, wrapper)


def _basis_counts(args, kwargs, gb):
    s = gb.stats
    return {
        "pairs": s.pairs,
        "zero_reductions": s.zero_reductions,
        "max_degree": s.max_degree,
        "basis_size": len(gb.basis),
    }


def _word_counts(args, kwargs, system):
    return {"generator_terms": sum(len(f.terms) for _, f in system.generators)}


def _slice_counts(args, kwargs, report):
    return {"chain_elems": sum(report.chain_dims)}


def _rank_counts(args, kwargs, rank):
    rows, ncols = args[0], args[1]
    return {
        "cells": len(rows) * ncols,
        "nnz": sum(len(r) for r in rows),
        "nonempty_rows": sum(1 for r in rows if r),
        "rank": rank,
    }


def _table_counts(args, kwargs, reports):
    return {
        "row_seconds": sum(r.wall_seconds for r in reports),
        "jobs": kwargs.get("jobs") or 1,
    }


def install(tracer: Tracer, cli) -> None:
    """Wrap each layer's public functions where the layer above calls them.

    ``table`` fans its rows out to forked pool workers; spans recorded there
    stay in the workers, so the table is measured as one span.
    """
    from commuting_ci import cidecide, linalg

    wraps = [
        (cli, "decide_ci", "cidecide.decide_ci", None),
        (cli, "u6_witness", "cidecide.u6_witness", None),
        (cli, "classify_table", "cidecide.classify_table", _table_counts),
        (cli, "commutator_word", "groupmat.commutator_word", _word_counts),
        (cli, "build_complex", "koszul.build_complex", None),
        (cli, "homology_slice", "koszul.homology_slice", _slice_counts),
        (cidecide, "commutator_word", "groupmat.commutator_word", _word_counts),
        (cidecide, "buchberger", "groebner.buchberger", _basis_counts),
        (cidecide, "krull_dimension", "groebner.krull_dimension", None),
        (cidecide, "normal_form", "groebner.normal_form", None),
        (linalg, "rank_mod_p", "linalg.rank_mod_p", _rank_counts),
        (linalg, "rank_rational", "linalg.rank_rational", _rank_counts),
    ]
    for module, attr, name, count in wraps:
        tracer.wrap(module, attr, name, count)


def main() -> None:
    launch = float(sys.argv[1])
    from commuting_ci import cli

    setup_s = time.monotonic() - launch

    import contextlib
    import io
    import json
    import resource

    trace = sys.argv[2] == "1"
    case_id = sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    if not argv:  # a set-up probe: import only
        json.dump({"setup_s": setup_s}, sys.stdout)
        return
    tracer = Tracer(case_id)
    if trace:
        install(tracer, cli)
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        if trace:
            code = tracer.call("cli.main", cli.main, (argv,), {})
        else:
            code = cli.main(argv)
    main_s = time.perf_counter() - t0
    maxrss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    json.dump(
        {
            "setup_s": setup_s,
            "main_s": main_s,
            "exit": code,
            "maxrss_kb": maxrss_kb,
            "stdout": out.getvalue(),
            "spans": tracer.spans,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
