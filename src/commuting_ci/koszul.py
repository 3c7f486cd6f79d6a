"""Koszul complexes on weight-homogeneous generators and their graded slices.

The differential sends the degree-1 generator attached to f_k to f_k and
extends by the graded Leibniz rule, so on the basis element t_S * m (S a set
of generator indices, m a monomial) it is the alternating sum over k in S of
f_k * m placed in t_{S - k}.

Every variable weight is >= 1, so the slice of fixed homological degree i and
internal weight w is finite dimensional; its homology is computed by exact
rank of the two differential matrices over the coefficient field.  Nothing is
ever computed as a module presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .polyring import Exponent, Polynomial, PrimeField, RingDescriptor

#: Chain slices above this many basis elements are not materialized.
DEFAULT_SLICE_CAP = 200_000


class PositiveWeightRequired(ValueError):
    """The complex needs every variable weight >= 1 for finite slices."""


@dataclass(frozen=True)
class KoszulComplex:
    """Generators f_k with their internal weights, over a shared ring.

    `exterior_zero_count` records how many identically-zero generator
    positions were split off before building the complex; their homology
    contribution is a pure exterior factor on that many degree-1 generators
    and is accounted for separately in reports.
    """

    ring: RingDescriptor
    generators: Tuple[Polynomial, ...]
    weights: Tuple[int, ...]
    exterior_zero_count: int = 0

    def __post_init__(self) -> None:
        if not self.ring.positively_weighted():
            raise PositiveWeightRequired(
                "weight-0 variables make graded slices infinite dimensional"
            )
        if len(self.generators) != len(self.weights):
            raise ValueError("one weight per generator required")
        for f, w in zip(self.generators, self.weights):
            if w < 1:
                raise ValueError("generator weights must be >= 1")
            if not f.is_zero:
                fw = f.weight_of()
                if fw != w:
                    raise ValueError(f"generator not weight-homogeneous of weight {w}")


@dataclass
class KoszulSliceReport:
    """Dimensions of one (homological degree, internal weight) slice."""

    i: int
    w: int
    chain_dims: Tuple[int, int, int]  # dims of C_{i-1}, C_i, C_{i+1} at weight w
    h_dim: Optional[int]
    status: str  # "ok" | "incomplete"

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "w": self.w,
            "chain_dims": list(self.chain_dims),
            "h_dim": self.h_dim,
            "status": self.status,
        }


def build_complex(system) -> KoszulComplex:
    """Koszul complex on the nonzero generators of a unipotent commutator system."""
    from .groupmat import UNIPOTENT  # local import to avoid a cycle

    if system.kind != UNIPOTENT:
        raise PositiveWeightRequired(
            "only unipotent systems have positively weighted coordinate rings"
        )
    gens: List[Polynomial] = []
    weights: List[int] = []
    for (i, j), f in system.generators:
        gens.append(f)
        weights.append(j - i)
    return KoszulComplex(
        system.ring, tuple(gens), tuple(weights), len(system.zero_positions)
    )


def extend_with_zero_generators(K: KoszulComplex, count: int, weight: int = 1) -> KoszulComplex:
    """Append `count` identically-zero generators of the given weight."""
    zero = K.ring.zero()
    return KoszulComplex(
        K.ring,
        K.generators + (zero,) * count,
        K.weights + (weight,) * count,
        K.exterior_zero_count,
    )


def _slice_basis(K: KoszulComplex, i: int, w: int) -> List[Tuple[Tuple[int, ...], Exponent]]:
    """Basis of the degree-i, weight-w chain slice: (index subset, monomial)."""
    if i < 0 or w < 0:
        return []
    r = len(K.generators)
    if i > r:
        return []
    out: List[Tuple[Tuple[int, ...], Exponent]] = []
    mono_cache: Dict[int, List[Exponent]] = {}
    for S in combinations(range(r), i):
        rem = w - sum(K.weights[s] for s in S)
        if rem < 0:
            continue
        monos = mono_cache.get(rem)
        if monos is None:
            monos = K.ring.monomials_of_weight(rem)
            mono_cache[rem] = monos
        for m in monos:
            out.append((S, m))
    return out


def _slice_dim(K: KoszulComplex, i: int, w: int) -> int:
    if i < 0 or w < 0 or i > len(K.generators):
        return 0
    dim = 0
    count_cache: Dict[int, int] = {}
    for S in combinations(range(len(K.generators)), i):
        rem = w - sum(K.weights[s] for s in S)
        if rem < 0:
            continue
        c = count_cache.get(rem)
        if c is None:
            c = len(K.ring.monomials_of_weight(rem))
            count_cache[rem] = c
        dim += c
    return dim


def _differential_rows(
    K: KoszulComplex,
    basis_src: Sequence[Tuple[Tuple[int, ...], Exponent]],
    index_dst: Dict[Tuple[Tuple[int, ...], Exponent], int],
    prime: Optional[int],
) -> List[Dict[int, object]]:
    """Rows of d: src slice -> dst slice, one dict per source basis element."""
    rows: List[Dict[int, object]] = []
    gens = K.generators
    for S, m in basis_src:
        row: Dict[int, object] = {}
        for k, s in enumerate(S):
            f = gens[s]
            if f.is_zero:
                continue
            sign = -1 if k & 1 else 1
            Srem = S[:k] + S[k + 1 :]
            for me, c in f.terms.items():
                col = index_dst[(Srem, tuple(map(int.__add__, m, me)))]
                v = row.get(col, 0) + sign * c
                if prime is not None:
                    v %= prime
                if v:
                    row[col] = v
                else:
                    row.pop(col, None)
        rows.append(row)
    return rows


def homology_slice(
    K: KoszulComplex,
    i: int,
    w: int,
    *,
    size_cap: int = DEFAULT_SLICE_CAP,
) -> KoszulSliceReport:
    """Exact dimension of H_i at internal weight w.

    Enumerates the monomial bases of the three relevant chain slices, builds
    the two differential matrices over the coefficient field, and returns
    dim ker(d_i) - rank(d_{i+1}).  Slices larger than `size_cap` yield an
    "incomplete" report instead of an answer.
    """
    if i < 0 or w < 0:
        raise ValueError("homological degree and weight must be nonnegative")
    dims = (_slice_dim(K, i - 1, w), _slice_dim(K, i, w), _slice_dim(K, i + 1, w))
    if max(dims) > size_cap:
        return KoszulSliceReport(i, w, dims, None, "incomplete")
    prime = K.ring.field.p if isinstance(K.ring.field, PrimeField) else None

    basis_i = _slice_basis(K, i, w)
    if not basis_i:
        return KoszulSliceReport(i, w, dims, 0, "ok")

    rank_down = 0
    if i >= 1 and dims[0]:
        basis_dn = _slice_basis(K, i - 1, w)
        index_dn = {b: c for c, b in enumerate(basis_dn)}
        rows = _differential_rows(K, basis_i, index_dn, prime)
        rank_down = _rank(rows, len(basis_dn), prime)

    rank_up = 0
    if dims[2]:
        basis_up = _slice_basis(K, i + 1, w)
        index_i = {b: c for c, b in enumerate(basis_i)}
        rows = _differential_rows(K, basis_up, index_i, prime)
        rank_up = _rank(rows, len(basis_i), prime)

    # d_i d_{i+1} = 0, so rank_down + rank_up <= dim C_i; a violation means
    # the rank computation is wrong, and no homology number may be reported.
    if rank_down + rank_up > dims[1]:
        raise RuntimeError(
            f"rank(d_{i}) + rank(d_{i + 1}) = {rank_down} + {rank_up} exceeds "
            f"dim C_{i} = {dims[1]} at (i, w) = ({i}, {w})"
        )
    h = dims[1] - rank_down - rank_up
    return KoszulSliceReport(i, w, dims, h, "ok")


def _rank(rows, ncols: int, prime: Optional[int]) -> int:
    if prime is not None:
        return linalg.rank_mod_p(rows, ncols, prime)
    return linalg.rank_rational(rows, ncols)


def kunneth_zero_check(
    K: KoszulComplex,
    zeros: int,
    max_weight: int,
    *,
    size_cap: int = DEFAULT_SLICE_CAP,
    max_degree: int = 2,
) -> bool:
    """Check the tensor formula for appending identically-zero generators.

    Appending z zero generators of weight 1 must multiply homology by an
    exterior algebra on z degree-1, weight-1 generators:

        dim H_i(extended) at w  ==  sum_b C(z, b) * dim H_{i-b}(K) at w - b

    The check runs slice by slice for all weights up to `max_weight` and all
    homological degrees up to `max_degree`; both sides are computed by the
    same honest linear algebra.
    """
    from math import comb

    if zeros < 0:
        raise ValueError("zeros must be >= 0")
    ext = extend_with_zero_generators(K, zeros)
    base_dim: Dict[Tuple[int, int], int] = {}

    def base(i: int, w: int) -> int:
        if i < 0 or w < 0:
            return 0
        got = base_dim.get((i, w))
        if got is None:
            rep = homology_slice(K, i, w, size_cap=size_cap)
            if rep.status != "ok":
                raise RuntimeError(f"slice cap exceeded at base H_{i} weight {w}")
            got = rep.h_dim
            base_dim[(i, w)] = got
        return got

    for w in range(max_weight + 1):
        for i in range(max_degree + 1):
            rep = homology_slice(ext, i, w, size_cap=size_cap)
            if rep.status != "ok":
                raise RuntimeError(f"slice cap exceeded at extended H_{i} weight {w}")
            expected = sum(comb(zeros, b) * base(i - b, w - b) for b in range(i + 1))
            if rep.h_dim != expected:
                return False
    return True
