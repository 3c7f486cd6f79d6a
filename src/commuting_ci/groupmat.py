"""Commutator words of triangular matrix groups and their generator sequences.

Two group families are supported: upper triangular matrices with unit
diagonal ("unipotent") and with invertible diagonal ("borel").  Each of the
2g copies in a genus-g word gets its own block of entry variables, and its
matrix has those variables as entries; borel copies additionally get one
inverse variable per diagonal entry, with the unit relation d * x_diag = 1
registered on the ring.  Matrices are plain row lists of polynomials.

No matrix is inverted: as [X, Y] = (X*Y)*(Y*X)^-1, the word W times one
more commutator is the W' with W'*(Y*X) = W*X*Y, found by forward
substitution; dividing by y_jj*x_jj multiplies by two inverse variables.
Every entry is unit-reduced (d*x -> 1) as it is formed, a unique
representative modulo the unit relations, so no fractions ever appear.

The variable order is fixed and deterministic: the x-block of copy 1, then
the y-block of copy 1, then copy 2, and so on, each block row-major, with a
borel copy's inverse variables appended directly after its entry block.
Entry variables are named ``x_t_i_j`` / ``y_t_i_j`` (t the copy pair index);
inverse variables are named ``d_s_i`` where s = 1..2g numbers the matrices
X_1, Y_1, X_2, Y_2, ... in order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .polyring import Field, Polynomial, QQ, RingDescriptor, format_poly

UNIPOTENT = "unipotent"
BOREL = "borel"

_KIND_ALIASES = {
    "un": UNIPOTENT,
    "unipotent": UNIPOTENT,
    "u": UNIPOTENT,
    "bn": BOREL,
    "borel": BOREL,
    "b": BOREL,
}


def normalize_kind(kind: str) -> str:
    try:
        return _KIND_ALIASES[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown group kind {kind!r} (expected 'un' or 'bn')") from None


class VanishingPatternError(RuntimeError):
    """The commutator word violated its forced vanishing pattern.

    This cannot happen for correct arithmetic; it aborts the run instead of
    producing a wrong generator sequence.
    """


#: Each variable of the word build is a dense exponent tuple of nvars entries,
#: so the coordinate matrices alone take about 8 * nvars**2 bytes: 2 GiB at
#: this many variables.  A larger ring is refused before anything is built.
MAX_WORD_NVARS = 16_384


class WordTooLarge(Exception):
    """The word build does not fit: too many variables, or out of memory."""


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("the commutator word build passed its deadline")


def ring_size(kind: str, n: int, genus: int) -> Tuple[int, int]:
    """(nvars, unit relations) of `commutator_ring(kind, n, genus)`, without building it."""
    if normalize_kind(kind) == UNIPOTENT:
        return 2 * genus * (n * (n - 1) // 2), 0
    return 2 * genus * (n * (n + 1) // 2 + n), 2 * genus * n


def commutator_ring(
    kind: str, n: int, genus: int, field: Field = QQ, *, deadline: Optional[float] = None
) -> RingDescriptor:
    """Coordinate ring of 2*genus copies of the group, with internal weights.

    Past `deadline` (a `time.monotonic` value), checked before every row of
    every copy, the listing of the variables raises `TimeoutError`.  A ring
    of more than `MAX_WORD_NVARS` variables raises `WordTooLarge` up front.
    """
    kind = normalize_kind(kind)
    if n < 2:
        raise ValueError("matrix size must be at least 2")
    if genus < 1:
        raise ValueError("genus must be at least 1")
    nvars, _ = ring_size(kind, n, genus)
    if nvars > MAX_WORD_NVARS:
        raise WordTooLarge(
            f"{nvars} variables: the coordinate matrices alone would take about "
            f"{8 * nvars**2 / 2**30:.3g} GiB of dense exponent tuples; the word "
            f"build takes at most {MAX_WORD_NVARS} variables"
        )
    variables: List[Tuple[str, int]] = []
    unit_pairs: List[Tuple[int, int]] = []
    for s in range(1, 2 * genus + 1):
        t = (s + 1) // 2
        prefix = "x" if s % 2 else "y"
        diag_index: Dict[int, int] = {}
        for i in range(1, n + 1):
            _check_deadline(deadline)
            for j in range(i + (kind == UNIPOTENT), n + 1):
                if i == j:
                    diag_index[i] = len(variables)
                variables.append((f"{prefix}_{t}_{i}_{j}", j - i))
        if kind == BOREL:
            for i in range(1, n + 1):
                unit_pairs.append((len(variables), diag_index[i]))
                variables.append((f"d_{s}_{i}", 0))
    return RingDescriptor(variables, field, tuple(unit_pairs))


@dataclass(frozen=True)
class CommutatorSystem:
    """The commutator word of a group family, with its generator sequence.

    `generators` holds the 1-based positions (i, j) and entries that present
    the variety; `zero_positions` are the entries forced to vanish, which
    only contribute an exterior tensor factor downstream.  Borel systems also
    carry the unit relations d * x_diag - 1, one per diagonal entry per copy.
    """

    kind: str
    n: int
    genus: int
    ring: RingDescriptor
    word_matrix: Tuple[Tuple[Polynomial, ...], ...]  # 0-based rows
    generators: Tuple[Tuple[Tuple[int, int], Polynomial], ...]
    unit_relations: Tuple[Polynomial, ...]
    zero_positions: Tuple[Tuple[int, int], ...]

    def generator_at(self, i: int, j: int) -> Polynomial:
        for (a, b), f in self.generators:
            if (a, b) == (i, j):
                return f
        raise KeyError(f"no generator at position ({i}, {j})")


def _product(
    ring: RingDescriptor,
    A: List[List[Polynomial]],
    B: List[List[Polynomial]],
    deadline: Optional[float],
) -> List[List[Polynomial]]:
    """A*B for upper-triangular A and B (k runs over i..j only), unit-reduced."""
    n = len(A)
    out = [[ring.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = ring.zero()
            for k in range(i, j + 1):
                if not (A[i][k].is_zero or B[k][j].is_zero):
                    _check_deadline(deadline)
                    acc = acc + A[i][k] * B[k][j]
            out[i][j] = acc.reduce_units()
    return out


def _solve(
    ring: RingDescriptor,
    A: List[List[Polynomial]],
    B: List[List[Polynomial]],
    inv_diag: Optional[Sequence[Polynomial]],
    deadline: Optional[float],
) -> List[List[Polynomial]]:
    """W with W*B = A for upper-triangular A and B, by forward substitution.

    `inv_diag[j]` inverts B[j][j] modulo the unit relations; None means B has
    unit diagonal.
    """
    n = len(A)
    W = [[ring.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = ring.zero()
            for k in range(i, j):
                if not (W[i][k].is_zero or B[k][j].is_zero):
                    _check_deadline(deadline)
                    acc = acc + W[i][k] * B[k][j]
            acc = A[i][j] - acc
            if inv_diag is not None:
                _check_deadline(deadline)
                acc = (acc * inv_diag[j]).reduce_units()
            W[i][j] = acc
    return W


def commutator_word(
    kind: str, n: int, genus: int, field: Field = QQ, *, deadline: Optional[float] = None
) -> CommutatorSystem:
    """Build the product of commutators and extract the generator sequence.

    For the unipotent family the word matrix is the product itself; its
    subdiagonal entries must vanish identically and every entry above them is
    weight-homogeneous of weight j - i.  For the borel family the word matrix
    is the product minus the identity and the diagonal must vanish.  Any
    violation aborts: it would mean the arithmetic itself is broken.  Past
    `deadline` (a `time.monotonic` value), checked before every row of the
    ring's variable list and of the coordinate matrices and before every
    polynomial product, the build raises `TimeoutError`.  A ring too large to
    build raises `WordTooLarge` (see `commutator_ring`), and so does a build
    that runs out of memory.
    """
    try:
        return _build_word(normalize_kind(kind), n, genus, field, deadline)
    except MemoryError:
        pass  # raised below, once the partial word has been freed with the traceback
    nvars, _ = ring_size(kind, n, genus)
    raise WordTooLarge(f"{nvars} variables: the word build ran out of memory")


def _build_word(
    kind: str, n: int, genus: int, field: Field, deadline: Optional[float]
) -> CommutatorSystem:
    ring = commutator_ring(kind, n, genus, field, deadline=deadline)
    zero, one = ring.zero(), ring.one()
    word = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for t in range(1, genus + 1):
        # the generic X and Y of copy pair t: 0 left of the diagonal, 1 on a
        # unipotent diagonal, the entry variables elsewhere.  Each generator
        # is a dense exponent tuple, so the deadline is checked row by row.
        X: List[List[Polynomial]] = []
        Y: List[List[Polynomial]] = []
        for i in range(1, n + 1):
            _check_deadline(deadline)
            for M, role in ((X, "x"), (Y, "y")):
                row = [zero] * (i - 1) + [one] * (kind == UNIPOTENT)
                row += [ring.gen(f"{role}_{t}_{i}_{j}") for j in range(len(row) + 1, n + 1)]
                M.append(row)
        inv_diag = None
        if kind == BOREL:  # 1/(y_jj * x_jj), by the registered inverse variables
            inv_diag = [
                ring.gen(f"d_{2 * t}_{j}") * ring.gen(f"d_{2 * t - 1}_{j}") for j in range(1, n + 1)
            ]
        WXY = _product(ring, _product(ring, word, X, deadline), Y, deadline)
        word = _solve(ring, WXY, _product(ring, Y, X, deadline), inv_diag, deadline)
    if kind == BOREL:
        for i in range(n):
            word[i][i] = word[i][i] - 1

    zero_positions: List[Tuple[int, int]] = []
    generators: List[Tuple[Tuple[int, int], Polynomial]] = []
    for i, row in enumerate(word, 1):
        for j, e in enumerate(row, 1):
            if j < i:
                if not e.is_zero:
                    raise VanishingPatternError(f"nonzero below the diagonal at ({i}, {j})")
            elif j == i:
                if e != (one if kind == UNIPOTENT else zero):
                    raise VanishingPatternError(f"diagonal entry at ({i}, {i}) not forced value")
                if kind == BOREL:
                    zero_positions.append((i, i))
            elif kind == UNIPOTENT and j == i + 1:
                if not e.is_zero:
                    raise VanishingPatternError(f"subdiagonal entry at ({i}, {j}) is nonzero")
                zero_positions.append((i, j))
            else:
                if e.weight_of() != j - i:
                    raise VanishingPatternError(
                        f"entry at ({i}, {j}) is not weight-homogeneous of weight {j - i}"
                    )
                generators.append(((i, j), e))

    # d_s_i * diag - 1 for each registered pair, copy by copy
    unit_relations = tuple(ring.gen(d) * ring.gen(x) - 1 for d, x in ring.unit_pairs)
    word_matrix = tuple(tuple(row) for row in word)
    return CommutatorSystem(
        kind, n, genus, ring, word_matrix, tuple(generators), unit_relations, tuple(zero_positions)
    )


def dump_generators(system: CommutatorSystem, order=None) -> str:
    """Generator list, one line per position, in the textual polynomial format."""
    lines = [
        f"f[{i}][{j}]: {format_poly(f, order)}" for (i, j), f in system.generators
    ]
    return "\n".join(lines)
