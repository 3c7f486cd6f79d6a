"""Complete-intersection verdicts for commuting varieties: one decision pipeline.

`decide_ci` builds the commutator system and its monomial order, then tries
two certificates in that ring and order:

1. For the unipotent family at genus 1 and n >= 6, the window witness
   (`window_witness`): seven generators of the leading 6x6 window lie in an
   ideal with only six generators, so by Krull's height theorem that
   subsequence has codimension at most 6 < 7, the full sequence cannot be
   regular, and the variety is not a complete intersection.  The
   memberships follow from a substitution identity, with no basis.
2. Otherwise, a reduced Groebner basis of the generators (plus the unit
   relations in the borel case) whose leading-term ideal gives the
   codimension.  The unipotent generators are homogeneous for the internal
   weights deg x_t_i_j = j - i, all at least 1, so their basis is computed
   in the weighted order (wgrevlex) and degree by degree in that grading;
   the borel ring has weight-0 variables and keeps grevlex:

       CI  <=>  codimension == generator count + unit-relation count.

Hitting a resource limit yields verdict "Incomplete", never a guess, and
every "NotCI" carries its certificate: the witness or the completed basis.
The timeout of a case becomes one deadline, which the word build and the
basis share.
`classify_table` is `decide_ci` over a range of n, one row after another in
the calling process; `u6_witness` runs the witness alone on the 6x6 system.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .groebner import DEFAULT_DEGREE_CAP, buchberger, krull_dimension
from .groupmat import (
    UNIPOTENT,
    CommutatorSystem,
    WordStopped,
    commutator_word,
    normalize_kind,
    ring_size,
)
from .ordering import MonomialOrder
from .polyring import (
    DEFAULT_PRIME,
    Field,
    Polynomial,
    PrimeField,
    QQ,
    format_poly,
    jsonable,
    parse_field_label,
    parse_poly,
)

#: Default seconds for one case, from the start of its word build to its verdict.
DEFAULT_TIMEOUT = 3600.0


def resolve_field(kind: str, n: int, field: Optional[str]) -> Field:
    """Apply the ground-field policy.

    Explicit labels win.  The automatic policy computes small cases over the
    rationals and switches to GF(32003) where rational coefficient growth is
    impractical; modular verdicts are always reported with their field.
    """
    if field not in (None, "auto"):
        return parse_field_label(field)
    kind = normalize_kind(kind)
    if kind == UNIPOTENT:
        return QQ if n <= 4 else PrimeField(DEFAULT_PRIME)
    return QQ if n <= 2 else PrimeField(DEFAULT_PRIME)


@dataclass
class WitnessReport:
    """Outcome of the 6x6 unipotent obstruction pipeline."""

    substitution: Tuple[str, ...]
    surviving: Dict[str, str]  # position "i,j" -> canonical polynomial text
    positions: Tuple[Tuple[int, int], ...]
    pattern_ok: bool
    memberships: Dict[str, bool]
    bounding_generators: int
    codim_bound: Optional[int]
    conclusion: str  # "NotCI" | "Inconclusive"
    failed_position: Optional[Tuple[int, int]] = None
    field: str = "q"

    def to_json(self) -> dict:
        return jsonable(self)


@dataclass
class CIReport:
    """Full verdict record for one (group, n, genus) case."""

    group: str
    n: int
    genus: int
    field: str
    order: dict
    nvars: int
    generators: Optional[int]  # None when the word build was stopped
    unit_relations: int
    dim: Optional[int]
    codim: Optional[int]
    verdict: str  # "CI" | "NotCI" | "Incomplete"
    exterior_factors: Optional[int]  # None when the word build was stopped
    structure: Optional[str] = None
    witness: Optional[dict] = None
    stats: Optional[dict] = None
    wall_seconds: float = 0.0
    note: Optional[str] = None

    def to_json(self) -> dict:
        return {**jsonable(self), "wall_seconds": round(self.wall_seconds, 3)}


def _structure_statement(report: CIReport) -> str:
    return (
        "full homology == coordinate ring of the variety tensored with an "
        f"exterior factor on {report.exterior_factors} degree-1 generators"
    )


def decide_ci(
    kind: str,
    n: int,
    genus: int,
    *,
    field: Optional[str] = None,
    order_seed: Optional[int] = None,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    timeout: float = DEFAULT_TIMEOUT,
) -> CIReport:
    """Decide whether the genus-`genus` commuting variety is a complete intersection.

    Unipotent genus-1 cases with n >= 6 first try the window witness in the
    U_n ring; a NotCI witness is the verdict.  Otherwise the verdict compares
    the computed codimension of the generator ideal (including unit relations
    for borel) with the number of generators; the two agree exactly when the
    sequence is regular.  Resource limits produce verdict "Incomplete"; the
    timeout is one deadline for the whole case, word build and basis alike.
    A word build that stops (`WordStopped`: the timeout, or a word too large
    to build) ends "Incomplete" at once, with the stop's message as `note`.
    The order is drawn after the word build, so a report of a stopped word
    build has a null `order["permutation"]`.  U_n is ordered by wgrevlex on
    its internal weights, so `degree_cap` and `stats["max_degree"]` count
    weighted degree there; B_n is ordered by grevlex.
    """
    t0 = time.monotonic()
    deadline = t0 + timeout
    kind = normalize_kind(kind)
    fld = resolve_field(kind, n, field)
    nvars, units = ring_size(kind, n, genus)
    weighted = kind == UNIPOTENT
    report = CIReport(
        group=kind,
        n=n,
        genus=genus,
        field=fld.label(),
        order={"kind": "wgrevlex" if weighted else "grevlex", "seed": order_seed, "permutation": None},
        nvars=nvars,
        generators=None,
        unit_relations=units,
        dim=None,
        codim=None,
        verdict="Incomplete",
        exterior_factors=None,
    )
    try:
        system = commutator_word(kind, n, genus, fld, deadline=deadline)
    except WordStopped as exc:
        report.note = str(exc)
        report.wall_seconds = time.monotonic() - t0
        return report
    weights = system.ring.weights if weighted else None
    order = MonomialOrder.seeded(system.ring.nvars, order_seed, weights)
    report.order["permutation"] = list(order.permutation)
    gens = [f for _, f in system.generators]
    r = len(gens)
    u = len(system.unit_relations)
    report.generators = r
    report.exterior_factors = len(system.zero_positions)
    if kind == UNIPOTENT and genus == 1 and n >= 6:
        witness = window_witness(system, order)
        if witness.conclusion == "NotCI":
            report.verdict = "NotCI"
            report.witness = witness.to_json()
            report.wall_seconds = time.monotonic() - t0
            return report
    all_gens = gens + list(system.unit_relations)
    gb = buchberger(all_gens, order, ring=system.ring, degree_cap=degree_cap, deadline=deadline)
    report.stats = gb.stats.to_json()
    if gb.is_complete:
        dim = krull_dimension(gb)
        codim = nvars - dim
        if codim > r + u:
            raise RuntimeError(
                f"{kind} n={n} genus={genus}: codimension {codim} exceeds "
                f"the {r + u} generators, which Krull's height theorem forbids"
            )
        report.dim, report.codim = dim, codim
        if codim == r + u:
            report.verdict = "CI"
            if kind == UNIPOTENT:
                report.structure = _structure_statement(report)
        else:
            report.verdict = "NotCI"
    if genus > 1:
        report.note = "tool-derived result for genus > 1; outside the genus-1 classification"
    report.wall_seconds = time.monotonic() - t0
    return report


# -- the 6x6 obstruction -----------------------------------------------------

#: Positions of the selected generator subsequence.
_WITNESS_POSITIONS: Tuple[Tuple[int, int], ...] = (
    (1, 3),
    (1, 4),
    (2, 4),
    (2, 5),
    (3, 5),
    (3, 6),
    (4, 6),
)

#: Variables set to zero by the witness substitution.
_WITNESS_KILLED = ("x_1_2_3", "x_1_4_5", "y_1_2_3", "y_1_4_5")

#: The two surviving entries, in the textual format.
_WITNESS_SURVIVORS: Dict[Tuple[int, int], str] = {
    (1, 4): "x_1_1_2*y_1_2_4 + x_1_1_3*y_1_3_4 - x_1_3_4*y_1_1_3 - x_1_2_4*y_1_1_2",
    (3, 6): "x_1_3_4*y_1_4_6 + x_1_3_5*y_1_5_6 - x_1_5_6*y_1_3_5 - x_1_4_6*y_1_3_4",
}


def set_to_zero(f: Polynomial, names: Sequence[str]) -> Polynomial:
    """f with the named variables set to 0: the terms that involve none of them."""
    idx = [f.ring.index(name) for name in names]
    return Polynomial._raw(f.ring, {e: c for e, c in f.terms.items() if not any(e[i] for i in idx)})


def window_witness(system: CommutatorSystem, order: MonomialOrder) -> WitnessReport:
    """Certify that a unipotent genus-1 system with n >= 6 is not a complete intersection.

    Entry (i, j) of a product or inverse of upper-triangular matrices only
    involves indices i..j, so the seven selected generators, all inside the
    leading 6x6 window, are the same polynomials for every n >= 6.  Write
    phi for setting the four killed variables to 0.  The check is that phi
    maps five selected generators to 0 and the other two to the known
    survivors.  Then each selected f = (f - phi(f)) + phi(f) lies in the
    ideal of the killed variables and the survivors: every term of
    f - phi(f) contains a killed variable, and phi(f) is 0 or a survivor.
    Seven generators inside a 6-generated ideal bound the codimension of
    that subsequence by 6 < 7 (Krull's height theorem), so the full
    generator sequence is not regular and the variety is not a complete
    intersection.  A failed check returns conclusion "Inconclusive" with
    the failing position and no memberships.  `order` only formats the
    survivors.
    """
    if system.kind != UNIPOTENT or system.genus != 1 or system.n < 6:
        raise ValueError(
            f"the window witness needs a unipotent genus-1 system with n >= 6, "
            f"not {system.kind} n={system.n} genus={system.genus}"
        )
    ring = system.ring
    survivors = {pos: parse_poly(text, ring) for pos, text in _WITNESS_SURVIVORS.items()}

    surviving: Dict[str, str] = {}
    failed: Optional[Tuple[int, int]] = None
    for pos in _WITNESS_POSITIONS:
        image = set_to_zero(system.generator_at(*pos), _WITNESS_KILLED)
        if pos in survivors:
            surviving[f"{pos[0]},{pos[1]}"] = format_poly(image, order)
            ok = image == survivors[pos]
        else:
            ok = image.is_zero
        if not ok:
            failed = pos
            break

    pattern_ok = failed is None
    bounding = len(_WITNESS_KILLED) + len(survivors)
    return WitnessReport(
        substitution=_WITNESS_KILLED,
        surviving=surviving,
        positions=_WITNESS_POSITIONS,
        pattern_ok=pattern_ok,
        memberships={f"{i},{j}": True for i, j in _WITNESS_POSITIONS} if pattern_ok else {},
        bounding_generators=bounding,
        codim_bound=bounding if pattern_ok else None,
        conclusion="NotCI" if pattern_ok else "Inconclusive",
        failed_position=failed,
        field=ring.field.label(),
    )


def u6_witness(field: str = "q", order_seed: Optional[int] = None) -> WitnessReport:
    """Run `window_witness` on the 6x6 unipotent genus-1 system over `field`, a field label."""
    system = commutator_word(UNIPOTENT, 6, 1, resolve_field(UNIPOTENT, 6, field))
    order = MonomialOrder.seeded(system.ring.nvars, order_seed)
    return window_witness(system, order)


def classify_table(
    family: str,
    max_n: int,
    genus: int,
    *,
    field: Optional[str] = None,
    order_seed: Optional[int] = None,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    timeout: float = DEFAULT_TIMEOUT,
) -> List[CIReport]:
    """`decide_ci` for n = 2..max_n of one family, one row after another.

    Every row is the report `decide_ci` gives for that case with the same
    arguments, computed in this process in ascending n.  Each row has its
    own `timeout`, so rows that run to it add up: U6 and U7 at genus 2 both
    stop at a 10 s timeout, and their table takes about 21 s.
    """
    kind = normalize_kind(family)
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    return [
        decide_ci(kind, n, genus, field=field, order_seed=order_seed, degree_cap=degree_cap, timeout=timeout)
        for n in range(2, max_n + 1)
    ]
