"""Commutator words of triangular matrix groups and their generator sequences.

Two group families are supported: upper triangular matrices with unit
diagonal ("unipotent") and with invertible diagonal ("borel").  Each of the
2g copies in a genus-g word gets its own block of entry variables, and its
matrix has those variables as entries; borel copies additionally get one
inverse variable per diagonal entry, with the unit relation d * x_diag = 1
registered on the ring.  The returned word matrix holds plain row lists of
polynomials.

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

The build multiplies packed monomials (`ordering.Packing`) and makes the
`Polynomial`s once, at the end, row by row.  Every matrix entry is a dict
from packed monomial to coefficient under one packing of the identity
order on the N = nvars variables, whose layout, most significant first, is

    [deg][c_{N-1}] ... [c_1][c_0],    c_v = fmax - e_v,

with a zero guard bit above every c field.  deg is the weighted degree
sum (j - i) * e_v for U_n and the total degree for B_n.  A product of two
monomials a and b packs as a + b - one, and no field can carry while
deg a + deg b <= fmax, as every weight is at least 1; that is checked before
every product of two entries, and a violation raises `VanishingPatternError`.  fmax comes from a degree
bound on every entry and every product:

* U_n: entry (i, j) of X, Y, the word and each product or solve is
  weight-homogeneous of weight j - i, as a term A_ik * B_kj has weight
  (k - i) + (j - k) and the solve divides by no variable.  The bound is
  n - 1.
* B_n: count degrees without the cancellations d * x -> 1, which only
  lower them.  If D bounds the word before copy pair t, then W*X*Y has
  degree at most D + 2 and Y*X at most 2.  The solve multiplies by the two
  inverse variables, so W'_ii has degree at most D + 4, and W'_ij at most
  max(D + 2, deg W'_i,j-1 + 2) + 2 = D + 4 + 4 * (j - i).  The new word
  stays within D + 4n, and from D = 0 the bound is 4 * n * genus.

A unit pair cancels by division: with u the packed d * x_diag, m + one - u
packs m / u exactly when it has no guard bit set, and m is replaced by it
while it does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from .ordering import Coeff, MonomialOrder, Packing
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


#: The word build packs each monomial into one field per variable, so its
#: packing and coordinate matrices take about 2 * nvars**2 bytes: 0.5 GB at
#: this many variables.  Only the polynomials it returns are still dense
#: exponent tuples, 8 * nvars bytes a term.  A larger ring is refused before
#: anything is built.
MAX_WORD_NVARS = 16_384


class WordStopped(Exception):
    """The word build stopped before its word was built.

    `stopped_by` is "timeout" (the deadline passed) or "word_size" (too many
    variables, or out of memory); the message is the note a report gives.
    """

    def __init__(self, stopped_by: str, note: str) -> None:
        super().__init__(note)
        self.stopped_by = stopped_by


def _too_large(nvars: int, why: str) -> WordStopped:
    return WordStopped("word_size", f"the commutator word was not built: {nvars} variables: {why}")


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise WordStopped("timeout", "stopped by the timeout while building the commutator word")


#: Terms of one entry converted to exponent tuples between two deadline checks.
_UNPACK_SLICE = 4096


def ring_size(kind: str, n: int, genus: int) -> Tuple[int, int]:
    """(nvars, unit relations) of `commutator_ring(kind, n, genus)`, without building it."""
    if normalize_kind(kind) == UNIPOTENT:
        return 2 * genus * (n * (n - 1) // 2), 0
    return 2 * genus * (n * (n + 1) // 2 + n), 2 * genus * n


def commutator_ring(kind: str, n: int, genus: int, field: Field = QQ) -> RingDescriptor:
    """Coordinate ring of 2*genus copies of the group, with internal weights.

    A ring of more than `MAX_WORD_NVARS` variables raises `WordStopped` up
    front, so a ring that is listed at all is listed in milliseconds.
    """
    kind = normalize_kind(kind)
    if n < 2:
        raise ValueError("matrix size must be at least 2")
    if genus < 1:
        raise ValueError("genus must be at least 1")
    nvars, _ = ring_size(kind, n, genus)
    if nvars > MAX_WORD_NVARS:
        raise _too_large(
            nvars,
            f"the packing and coordinate matrices alone would take about "
            f"{2 * nvars**2 / 2**30:.3g} GiB; the word build takes at most {MAX_WORD_NVARS} variables",
        )
    variables: List[Tuple[str, int]] = []
    unit_pairs: List[Tuple[int, int]] = []
    for s in range(1, 2 * genus + 1):
        t = (s + 1) // 2
        prefix = "x" if s % 2 else "y"
        diag_index: Dict[int, int] = {}
        for i in range(1, n + 1):
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


#: An entry of a packed matrix: packed monomial -> coefficient, {} for zero.
PackedEntry = Dict[int, Coeff]
PackedMatrix = List[List[PackedEntry]]


class _PackedArithmetic:
    """Products and triangular solves of upper-triangular packed matrices.

    Every entry is unit-reduced and reduced mod p once it is formed.  Every
    product is checked against the packed bound and the deadline first.
    """

    __slots__ = ("one", "guards", "shift", "fmax", "prime", "unit_quotients", "deadline")

    def __init__(
        self,
        packing: Packing,
        prime: Optional[int],
        units: Sequence[int],
        deadline: Optional[float],
    ) -> None:
        self.one, self.guards = packing.one, packing.guards
        self.shift, self.fmax = packing.shift, packing.fmax
        self.prime = prime
        # m + (one - u) packs m / u whenever u divides m
        self.unit_quotients = tuple(packing.one - u for u in units)
        self.deadline = deadline

    def degree(self, e: PackedEntry) -> int:
        return max(e) >> self.shift if e else 0

    def multiply_into(self, acc: PackedEntry, a: PackedEntry, b: PackedEntry, degree: int) -> None:
        """Add a*b to `acc`, unreduced; `degree` is deg a + deg b."""
        if degree > self.fmax:
            raise VanishingPatternError(
                f"a product of degree {degree} exceeds the packed bound {self.fmax}"
            )
        _check_deadline(self.deadline)
        if len(a) < len(b):
            a, b = b, a
        one, get = self.one, acc.get
        for mb, cb in b.items():
            step = mb - one
            for ma, ca in a.items():
                m = ma + step
                acc[m] = get(m, 0) + ca * cb

    def settle(self, acc: PackedEntry) -> PackedEntry:
        """`acc` with every unit pair cancelled, reduced mod p, without zeros."""
        quotients = self.unit_quotients
        if quotients:
            guards = self.guards
            merged: PackedEntry = {}
            for m, c in acc.items():
                for q in quotients:
                    while not (m + q) & guards:
                        m += q
                merged[m] = merged.get(m, 0) + c
            acc = merged
        p = self.prime
        if p:
            return {m: r for m, c in acc.items() if (r := c % p)}
        return {m: c for m, c in acc.items() if c}

    def product(self, A: PackedMatrix, B: PackedMatrix) -> PackedMatrix:
        """A*B for upper-triangular A and B (k runs over i..j only)."""
        n, degree = len(A), self.degree
        dA = [[degree(e) for e in row] for row in A]
        dB = [[degree(e) for e in row] for row in B]
        out: PackedMatrix = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                acc: PackedEntry = {}
                for k in range(i, j + 1):
                    if A[i][k] and B[k][j]:
                        self.multiply_into(acc, A[i][k], B[k][j], dA[i][k] + dB[k][j])
                out[i][j] = self.settle(acc)
        return out

    def solve(
        self, A: PackedMatrix, B: PackedMatrix, inv_diag: Optional[Sequence[int]]
    ) -> PackedMatrix:
        """W with W*B = A for upper-triangular A and B, by forward substitution.

        `inv_diag[j]` is the packed monomial that inverts B[j][j] modulo the
        unit relations; None means B has unit diagonal.
        """
        n, degree = len(A), self.degree
        dB = [[degree(e) for e in row] for row in B]
        negB = [[{m: -c for m, c in e.items()} for e in row] for row in B]
        W: PackedMatrix = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            dW = [0] * n
            for j in range(i, n):
                acc = dict(A[i][j])
                for k in range(i, j):
                    if W[i][k] and B[k][j]:
                        self.multiply_into(acc, W[i][k], negB[k][j], dW[k] + dB[k][j])
                if inv_diag is not None:
                    scaled: PackedEntry = {}
                    inv = inv_diag[j]
                    self.multiply_into(scaled, acc, {inv: 1}, degree(acc) + (inv >> self.shift))
                    acc = scaled
                W[i][j] = self.settle(acc)
                dW[j] = degree(W[i][j])
        return W


def commutator_word(
    kind: str, n: int, genus: int, field: Field = QQ, *, deadline: Optional[float] = None
) -> CommutatorSystem:
    """Build the product of commutators and extract the generator sequence.

    For the unipotent family the word matrix is the product itself; its
    subdiagonal entries must vanish identically and every entry above them is
    weight-homogeneous of weight j - i.  For the borel family the word matrix
    is the product minus the identity and the diagonal must vanish.  Any
    violation aborts: it would mean the arithmetic itself is broken.  Every
    stop raises `WordStopped`: past `deadline` (a `time.monotonic` value),
    checked before every row of the coordinate matrices, before every
    product of two entries and before every 4,096 terms converted to a
    `Polynomial`, with `stopped_by` "timeout"; for a ring too large to
    build (see `commutator_ring`) or a build that runs out of memory, with
    "word_size".
    """
    try:
        return _build_word(normalize_kind(kind), n, genus, field, deadline)
    except MemoryError:
        pass  # raised below, once the partial word has been freed with the traceback
    raise _too_large(ring_size(kind, n, genus)[0], "the word build ran out of memory")


def _build_word(
    kind: str, n: int, genus: int, field: Field, deadline: Optional[float]
) -> CommutatorSystem:
    ring = commutator_ring(kind, n, genus, field)
    unipotent = kind == UNIPOTENT
    nvars = ring.nvars
    order = MonomialOrder.identity(nvars, ring.weights if unipotent else None)
    packing = Packing(order, n - 1 if unipotent else 4 * n * genus)
    one = packing.one

    def monomial(*variables: int) -> int:
        exp = [0] * nvars
        for v in variables:
            exp[v] = 1
        return packing.pack(exp)

    var = ring.index
    units = [monomial(d, x) for d, x in ring.unit_pairs]
    arith = _PackedArithmetic(packing, field.p, units, deadline)
    word: PackedMatrix = [[{one: 1} if i == j else {} for j in range(n)] for i in range(n)]
    for t in range(1, genus + 1):
        # the generic X and Y of copy pair t: 0 left of the diagonal, 1 on a
        # unipotent diagonal, the entry variables elsewhere.  Packing a
        # variable walks all nvars fields, so the deadline is checked row by row.
        X: PackedMatrix = []
        Y: PackedMatrix = []
        for i in range(1, n + 1):
            _check_deadline(deadline)
            for M, role in ((X, "x"), (Y, "y")):
                row: List[PackedEntry] = [{} for _ in range(i - 1)] + [{one: 1}] * unipotent
                row += [
                    {monomial(var(f"{role}_{t}_{i}_{j}")): 1} for j in range(len(row) + 1, n + 1)
                ]
                M.append(row)
        inv_diag = None
        if kind == BOREL:  # 1/(y_jj * x_jj), by the registered inverse variables
            inv_diag = [
                monomial(var(f"d_{2 * t}_{j}"), var(f"d_{2 * t - 1}_{j}")) for j in range(1, n + 1)
            ]
        word = arith.solve(arith.product(arith.product(word, X), Y), arith.product(Y, X), inv_diag)
    if kind == BOREL:
        for i in range(n):
            word[i][i] = arith.settle({**word[i][i], one: word[i][i].get(one, 0) - 1})

    # the polynomials, row by row: each packed row is dropped once converted,
    # and an entry is converted and weighed in slices, with the deadline
    # checked before each
    unpack, exp_weight = packing.unpack, ring.exp_weight
    diagonal = ring.one() if unipotent else ring.zero()
    zero_positions: List[Tuple[int, int]] = []
    generators: List[Tuple[Tuple[int, int], Polynomial]] = []
    rows: List[Tuple[Polynomial, ...]] = []
    for i in range(1, n + 1):
        packed_row, word[i - 1] = word[i - 1], []
        row = []
        for j, packed in enumerate(packed_row, 1):
            items, terms, weights = iter(packed.items()), {}, set()
            for _ in range(0, len(packed) or 1, _UNPACK_SLICE):
                _check_deadline(deadline)
                part = {unpack(m): c for m, c in islice(items, _UNPACK_SLICE)}
                weights.update(map(exp_weight, part))
                terms.update(part)
            e = Polynomial._raw(ring, terms)
            row.append(e)
            if j < i:
                if not e.is_zero:
                    raise VanishingPatternError(f"nonzero below the diagonal at ({i}, {j})")
            elif j == i:
                if e != diagonal:
                    raise VanishingPatternError(f"diagonal entry at ({i}, {i}) not forced value")
                if kind == BOREL:
                    zero_positions.append((i, i))
            elif unipotent and j == i + 1:
                if not e.is_zero:
                    raise VanishingPatternError(f"subdiagonal entry at ({i}, {j}) is nonzero")
                zero_positions.append((i, j))
            else:
                if weights != {j - i}:
                    raise VanishingPatternError(
                        f"entry at ({i}, {j}) is not weight-homogeneous of weight {j - i}"
                    )
                generators.append(((i, j), e))
        rows.append(tuple(row))

    # d_s_i * diag - 1 for each registered pair, copy by copy
    minus_one = field.p - 1 if field.p else -1
    unit_relations = tuple(Polynomial._raw(ring, packing.unpack_terms({u: 1, one: minus_one})) for u in units)
    return CommutatorSystem(
        kind, n, genus, ring, tuple(rows), tuple(generators), unit_relations, tuple(zero_positions)
    )


def dump_generators(system: CommutatorSystem, order=None) -> str:
    """Generator list, one line per position, in the textual polynomial format."""
    lines = [
        f"f[{i}][{j}]: {format_poly(f, order)}" for (i, j), f in system.generators
    ]
    return "\n".join(lines)
