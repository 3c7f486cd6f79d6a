"""The bench's per-layer spans wrap names that exist.

`bench/child.py` wraps each layer's public functions with
`getattr(module, attr, None)` and skips a missing name, so a renamed
function would silently read 0.  This test runs its `install` against a
tracer that only records what it is asked to wrap.
"""

from pathlib import Path

import pytest

from commuting_ci import cli
from commuting_ci.groebner import buchberger

from conftest import system

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"

#: Wrapped names that no longer exist, each entry waiting for the next change
#: to the benchmark: the window witness stopped computing normal forms;
#: `homology_slice` is gone from the package, since the CLI drives the
#: one-pass `slices`; and `linalg.echelon`, which returns its pivots,
#: replaced the two rank functions.
KNOWN_MISSING = {
    ("commuting_ci.cidecide", "normal_form"),
    ("commuting_ci.cli", "homology_slice"),
    ("commuting_ci.linalg", "rank_mod_p"),
    ("commuting_ci.linalg", "rank_rational"),
}


def load_child():
    child = {"__name__": "bench_child"}  # not "__main__": defines, runs nothing
    exec(compile(CHILD.read_text(), str(CHILD), "exec"), child)
    return child


class RecordingTracer:
    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, count=None):
        self.wrapped.append((module, attr))


def test_every_wrapped_name_exists():
    child = load_child()
    tracer = RecordingTracer()
    child["install"](tracer, cli)
    names = {(module.__name__, attr) for module, attr in tracer.wrapped}
    missing = {(module.__name__, attr) for module, attr in tracer.wrapped if not hasattr(module, attr)}
    assert missing == KNOWN_MISSING
    assert names - missing == {
        ("commuting_ci.cli", "decide_ci"),
        ("commuting_ci.cli", "u6_witness"),
        ("commuting_ci.cli", "classify_table"),
        ("commuting_ci.cli", "commutator_word"),
        ("commuting_ci.cli", "build_complex"),
        ("commuting_ci.cidecide", "commutator_word"),
        ("commuting_ci.cidecide", "buchberger"),
        ("commuting_ci.cidecide", "krull_dimension"),
    }


@pytest.mark.parametrize("kind,n,genus,prime,cap", [("un", 4, 1, None, 30), ("un", 5, 2, 32003, 6)])
def test_basis_counts_work_on_a_basis(kind, n, genus, prime, cap):
    s = system(kind, n, genus, prime)
    gb = buchberger([f for _, f in s.generators], ring=s.ring, degree_cap=cap)
    assert gb.is_complete == (cap == 30)
    counts = load_child()["_basis_counts"]((), {}, gb)
    stats = gb.stats
    assert counts == {
        "pairs": stats.pairs,
        "zero_reductions": stats.zero_reductions,
        "max_degree": stats.max_degree,
        "basis_size": stats.basis_size,
    }
    assert counts["pairs"] > 0 and counts["basis_size"] == len(gb.basis)
