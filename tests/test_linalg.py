"""Exact rank routines against straightforward Fraction elimination."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from commuting_ci import linalg


def _rank_fraction_oracle(rows, ncols):
    M = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(M)):
            if M[i][col]:
                piv = i
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        pv = M[rank][col]
        M[rank] = [v / pv for v in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][col]:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


def _random_rows(rng, nrows, ncols, density=0.4, lo=-5, hi=5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


@pytest.mark.parametrize("trial", range(12))
def test_rank_mod_p_matches_oracle(trial):
    rng = random.Random(100 + trial)
    p = 32003
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    rows = _random_rows(rng, nrows, ncols)
    reduced = [{c: v % p for c, v in r.items() if v % p} for r in rows]
    # small random integers stay far from p, so ranks over Q and GF(p) agree
    assert linalg.rank_mod_p(reduced, ncols, p) == _rank_fraction_oracle(rows, ncols)


@pytest.mark.parametrize("trial", range(12))
def test_rank_rational_matches_oracle(trial):
    rng = random.Random(200 + trial)
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    rows = _random_rows(rng, nrows, ncols)
    assert linalg.rank_rational(rows, ncols) == _rank_fraction_oracle(rows, ncols)


def test_rank_rational_with_fractions():
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(3, 2), 1: Fraction(1, 1)}]
    assert linalg.rank_rational(rows, 2) == _rank_fraction_oracle(rows, 2)


@pytest.mark.parametrize("trial", range(6))
@pytest.mark.parametrize("wide", [False, True])
def test_rank_mod_p_reduces_its_input(trial, wide):
    # entries are shifted by multiples of p (negatives stay negative), and a
    # leading row holds only a nonzero multiple of p; the wide variant makes
    # the matrix large, not just the block of columns in use
    rng = random.Random(400 + trial)
    p = 32003
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    rows = _random_rows(rng, nrows, ncols)
    shifted = [{0: p * rng.choice([-2, -1, 1, 2])}] + [
        {c: v + p * rng.randint(-2, 2) for c, v in r.items()} for r in rows
    ]
    width = 800_000 if wide else ncols
    assert linalg.rank_mod_p(shifted, width, p) == _rank_fraction_oracle(rows, ncols)


@pytest.mark.parametrize("trial", range(6))
def test_rank_mod_p_large_prime_matches_oracle(trial):
    # minors of these small-entry matrices stay far below 2**61 - 1, so the
    # ranks over Q and GF(2**61 - 1) agree
    rng = random.Random(500 + trial)
    p = 2**61 - 1
    nrows, ncols = rng.randint(2, 12), rng.randint(2, 12)
    rows = _random_rows(rng, nrows, ncols)
    reduced = [{c: v % p for c, v in r.items()} for r in rows]
    assert linalg.rank_mod_p(reduced, ncols, p) == _rank_fraction_oracle(rows, ncols)


def test_package_import_loads_no_numpy():
    src = Path(linalg.__file__).resolve().parent.parent
    code = "import sys, commuting_ci; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_rank_handles_duplicates_and_zeros():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {}, {0: 1, 1: 2}]
    assert linalg.rank_mod_p(rows, 2, 7) == 1
    assert linalg.rank_rational(rows, 2) == 1


def test_rank_of_structured_low_rank():
    # outer product u v^T has rank 1 regardless of size
    rng = random.Random(5)
    u = [rng.randint(1, 9) for _ in range(25)]
    v = [rng.randint(1, 9) for _ in range(30)]
    rows = [{j: u[i] * v[j] for j in range(30)} for i in range(25)]
    assert linalg.rank_rational(rows, 30) == 1
    assert linalg.rank_mod_p([{c: val % 13 for c, val in r.items()} for r in rows], 30, 13) == 1


def _planted_rows(rng, p, nrows=40, ncols=50, rank=24, per_row=4):
    """Sparse rows of rank at most `rank` mod p, plus the rows they equal mod p.

    The first `rank` rows have `per_row` nonzeros each.  The rest are
    duplicates, negations or integer combinations of them, some plus p times
    a fresh row, and some only p times a fresh row.  The p-multiples add rank
    over Q; mod p they vanish, on input or during elimination.  Returns
    (rows, rows with every p-multiple dropped).
    """

    def sparse_row():
        cols = rng.sample(range(ncols), per_row)
        return {c: rng.choice([-3, -2, -1, 1, 2, 3]) for c in cols}

    def combine(*terms):
        out = {}
        for coef, row in terms:
            for c, v in row.items():
                out[c] = out.get(c, 0) + coef * v
        return {c: v for c, v in out.items() if v}

    base = [sparse_row() for _ in range(rank)]
    rows, mod_p = list(base), list(base)
    while len(rows) < nrows:
        a, b = rng.sample(base, 2)
        kind = rng.randrange(6)
        if kind == 0:
            row = dict(a)
        elif kind == 1:
            row = {c: -v for c, v in a.items()}
        elif kind == 5:
            row = {}
        else:
            row = combine((rng.randint(-4, 4) or 1, a), (rng.randint(-4, 4), b))
        mod_p.append(row)
        rows.append(combine((1, row), (p, sparse_row())) if kind >= 4 else row)
    order = list(range(nrows))
    rng.shuffle(order)
    return [rows[i] for i in order], [mod_p[i] for i in order]


@pytest.mark.parametrize("trial", range(6))
@pytest.mark.parametrize("p", [32003, 2**61 - 1])
def test_planted_rank_sparse_matches_oracle(trial, p):
    rng = random.Random(600 + trial)
    rows, mod_p = _planted_rows(rng, p)
    # over GF(p) the p-multiples vanish; the small-entry rows left have the
    # same rank over GF(p) as over Q
    assert linalg.rank_mod_p(rows, 50, p) == _rank_fraction_oracle(mod_p, 50)
    assert linalg.rank_rational(rows, 50) == _rank_fraction_oracle(rows, 50)
    assert _rank_fraction_oracle(rows, 50) > _rank_fraction_oracle(mod_p, 50)


def test_rank_leaves_the_callers_rows_unchanged():
    rng = random.Random(700)
    rows, _ = _planted_rows(rng, 32003)
    fractions = [{c: Fraction(v, 1 + c % 3) for c, v in r.items()} for r in rows]
    for call, arg in (
        (lambda r: linalg.rank_mod_p(r, 50, 32003), rows),
        (lambda r: linalg.rank_rational(r, 50), rows),
        (lambda r: linalg.rank_rational(r, 50), fractions),
    ):
        before = [dict(r) for r in arg]
        call(arg)
        assert arg == before


@pytest.mark.parametrize("trial", range(6))
@pytest.mark.parametrize("p", [32003, 2**61 - 1, None])
def test_rank_with_explicit_zero_entries(trial, p):
    # explicit zeros anywhere, leading ones included; the first fixed pair
    # makes a pivot with a zero at column 1 act on a row without column 1
    rng = random.Random(800 + trial)
    nrows, ncols = rng.randint(2, 12), rng.randint(2, 12)
    rows = [{1: 0, 2: 1}, {0: 1, 2: 1}, {0: 0, 3: 5}, {0: 0}] + [
        {**{c: 0 for c in rng.sample(range(ncols), rng.randint(1, ncols))}, **r}
        for r in _random_rows(rng, nrows, ncols)
    ]
    width = max(ncols, 4)
    before = [dict(r) for r in rows]
    rank = linalg.rank_rational(rows, width) if p is None else linalg.rank_mod_p(rows, width, p)
    assert rank == _rank_fraction_oracle(rows, width)
    assert rows == before


@pytest.mark.parametrize("p", [32003, 2**61 - 1])
def test_rank_mod_p_drops_a_leading_multiple_of_p(p):
    # the unit rows become pivots untouched; the rows of two entries lead
    # with a nonzero multiple of p, so over GF(p) the first is a multiple of
    # a unit row and the second leads at column 2 instead
    rows = [{0: 1}, {1: 1}, {0: 3, 3: -2 * p}, {2: 5, 3: p}]
    before = [dict(r) for r in rows]
    mod_p = [{0: 1}, {1: 1}, {0: 3}, {2: 5}]
    assert linalg.rank_mod_p(rows, 4, p) == _rank_fraction_oracle(mod_p, 4) == 3
    assert linalg.rank_rational(rows, 4) == _rank_fraction_oracle(rows, 4) == 4
    assert rows == before
