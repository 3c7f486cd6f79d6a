"""Sparse exact multivariate polynomials with a per-variable weight grading.

A `RingDescriptor` fixes an ordered tuple of named variables, one nonnegative
integer weight per variable, and a coefficient field: the rationals, or a
prime field GF(p) with p below `PRIME_BOUND` (about 3.3e24), where the
primality test is exact.  Each field reports its modulus as `p` (None for
the rationals), which only decides whether coefficients are reduced mod p.

`Polynomial` is the record the layers exchange, not an arithmetic type: the
word build and Buchberger compute on `ordering.Packing` keys, the Koszul
slices on packed keys of their own, and each hands its results over as
`Polynomial`s.  Its `terms` map dense exponent tuples to nonzero
coefficients and are never mutated after construction, so polynomials are
safe to share between threads.  A `Polynomial` offers equality, the weight
grading and the text format; it has no `+`, `-` or `*` and is not hashable.

Coefficients over the rationals are Python ints or `fractions.Fraction`
values in lowest terms (arbitrary precision, no rounding anywhere); over
GF(p) they are ints in [1, p).  The textual format of `format_poly` /
`parse_poly` round-trips bit-exactly and is the fixture and report format
used throughout the package; `format_poly` orders terms by the packed key of
`ordering.Packing`, the key the Groebner engine computes with.  `jsonable`
turns a report dataclass into its JSON object.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .ordering import Coeff, Exponent, MonomialOrder, Packing

#: Default modulus for modular runs: a standard CAS word-sized prime.
DEFAULT_PRIME = 32003


#: psi_13, the least strong pseudoprime to all of the bases 2..41 (Sorenson &
#: Webster, Math. Comp. 86, 2017): Miller-Rabin with those bases is exact for
#: every n below it.
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the bases 2..41; requires n < PRIME_BOUND."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Rationals:
    """Marker type for exact rational coefficients."""

    p = None  # no modulus: sums are never reduced

    def label(self) -> str:
        return "q"

    def __repr__(self) -> str:
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime modulus p below `PRIME_BOUND`."""

    p: int

    def __post_init__(self) -> None:
        if self.p >= PRIME_BOUND:
            raise ValueError(
                f"modulus {self.p} is too large: primality is decided exactly "
                f"only below {PRIME_BOUND}"
            )
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def label(self) -> str:
        return f"gf:{self.p}"

    def __repr__(self) -> str:
        return f"GF({self.p})"


Field = Union[Rationals, PrimeField]
QQ = Rationals()


def parse_field_label(label: str) -> Field:
    """Parse "q" or "gf:<p>" into a coefficient field."""
    if label == "q":
        return QQ
    if label.startswith("gf:"):
        return PrimeField(int(label[3:]))
    raise ValueError(f"unknown field label {label!r} (expected 'q' or 'gf:<p>')")


class RingDescriptor:
    """Ordered named variables with weights, a field, and optional unit pairs.

    `unit_pairs` lists variable index pairs (a, b) whose product is declared
    to be a unit relation a*b = 1.  They drive the cancellation of the word
    build on packed monomials (`groupmat`); a `Polynomial` never applies them.
    """

    __slots__ = ("variables", "weights", "field", "unit_pairs", "_index")

    def __init__(
        self,
        variables: Sequence[Tuple[str, int]],
        field: Field = QQ,
        unit_pairs: Sequence[Tuple[int, int]] = (),
    ) -> None:
        names = tuple(name for name, _ in variables)
        weights = tuple(int(w) for _, w in variables)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if any(w < 0 for w in weights):
            raise ValueError("variable weights must be nonnegative")
        self.variables = names
        self.weights = weights
        self.field = field
        self.unit_pairs = tuple((int(a), int(b)) for a, b in unit_pairs)
        for a, b in self.unit_pairs:
            if not (0 <= a < len(names) and 0 <= b < len(names)):
                raise ValueError("unit pair index out of range")
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def positively_weighted(self) -> bool:
        return all(w >= 1 for w in self.weights)

    def exp_weight(self, exp: Exponent) -> int:
        return sum(map(operator.mul, self.weights, exp))

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, {})

    def one(self) -> "Polynomial":
        return Polynomial._raw(self, {(0,) * self.nvars: 1})

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, RingDescriptor):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.weights == other.weights
            and self.field == other.field
            and self.unit_pairs == other.unit_pairs
        )

    def __repr__(self) -> str:
        return f"RingDescriptor({self.nvars} vars, {self.field!r})"


def _coerce(field: Field, c: Coeff) -> Coeff:
    """Normalize a coefficient for the given field; may return 0."""
    p = field.p
    if p:
        if isinstance(c, Fraction):
            den = c.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {c} vanishes mod {p}")
            return c.numerator * pow(den, p - 2, p) % p
        return int(c) % p
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class Polynomial:
    """Immutable sparse polynomial over a fixed `RingDescriptor`.

    The constructor normalizes: it merges equal exponents, maps each
    coefficient into the field and drops zero terms.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms: Mapping[Exponent, Coeff] = ()) -> None:
        acc: Dict[Exponent, Coeff] = {}
        n, p = ring.nvars, ring.field.p
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, c in items:
            exp = tuple(exp)
            if len(exp) != n:
                raise ValueError(f"exponent length {len(exp)} != {n} variables")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            c = _coerce(ring.field, c)
            if exp in acc:
                c = acc[exp] + c
                if p:
                    c %= p
            if c:
                acc[exp] = c
            else:
                acc.pop(exp, None)
        self.ring = ring
        self.terms = acc

    @staticmethod
    def _raw(ring: RingDescriptor, terms: Dict[Exponent, Coeff]) -> "Polynomial":
        """Wrap an already-normalized term dict without copying (internal)."""
        p = object.__new__(Polynomial)
        p.ring = ring
        p.terms = terms
        return p

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- grading ------------------------------------------------------

    def weight_of(self) -> Optional[int]:
        """The internal weight that every term shares, or None when the terms
        carry mixed weights or there are none (the zero polynomial)."""
        weights = {self.ring.exp_weight(exp) for exp in self.terms}
        return weights.pop() if len(weights) == 1 else None

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r})"


# -- textual format -------------------------------------------------------

_COEFF_RE = re.compile(r"^\d+(?:/\d+)?$")
_VARPOW_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*?)(?:\^(\d+))?$")
#: A "+" or "-" right after a space starts a new term.
_TERM_SPLIT_RE = re.compile(r"(?<= )([+-])")


def _coeff_str(c: Coeff) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def format_poly(p: Polynomial, order: Optional[MonomialOrder] = None) -> str:
    """Canonical text: terms descending in the active order, ring-ordered factors."""
    if p.is_zero:
        return "0"
    ring = p.ring
    if order is None:
        order = MonomialOrder.identity(ring.nvars)
    terms = p.terms
    parts: List[str] = []
    for exp in sorted(terms, key=Packing.fitting(order, terms).pack, reverse=True):
        c = terms[exp]
        negative = not ring.field.p and c < 0
        mag = -c if negative else c
        factors = []
        for i, e in enumerate(exp):
            if e == 1:
                factors.append(ring.variables[i])
            elif e > 1:
                factors.append(f"{ring.variables[i]}^{e}")
        if not factors:
            body = _coeff_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _coeff_str(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append((" - " if negative else " + ") + body)
    return "".join(parts)


def parse_poly(text: str, ring: RingDescriptor) -> Polynomial:
    """Parse the textual polynomial format back into a `Polynomial`."""
    s = text.strip()
    if s == "0":
        return ring.zero()
    if not s:
        raise ValueError("empty polynomial text")
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:].lstrip()
    elif s.startswith("+"):
        s = s[1:].lstrip()
    parts = _TERM_SPLIT_RE.split(s)
    chunks = [chunk.strip() for chunk in parts[::2]]
    signs = [sign] + [1 if op == "+" else -1 for op in parts[1::2]]

    terms: List[Tuple[Exponent, Coeff]] = []
    for sgn, chunk in zip(signs, chunks):
        if not chunk:
            raise ValueError(f"malformed polynomial text: {text!r}")
        coeff: Coeff = 1
        exp = [0] * ring.nvars
        saw_var = False
        for j, factor in enumerate(chunk.split("*")):
            factor = factor.strip()
            if _COEFF_RE.match(factor):
                if j != 0:
                    raise ValueError(f"coefficient not leading in term {chunk!r}")
                coeff = Fraction(factor) if "/" in factor else int(factor)
                continue
            m = _VARPOW_RE.match(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            name, power = m.group(1), int(m.group(2) or 1)
            exp[ring.index(name)] += power
            saw_var = True
        if not saw_var and isinstance(coeff, int) and coeff == 1 and not _COEFF_RE.match(chunk):
            raise ValueError(f"bad term {chunk!r} in {text!r}")
        terms.append((tuple(exp), sgn * coeff))
    return Polynomial(ring, terms)


# -- report values ----------------------------------------------------------


def jsonable(value: Any) -> Any:
    """`value` as JSON-ready data: a dataclass becomes a dict of its fields in
    declaration order, tuples and lists become lists and dicts are copied, all
    recursively; anything else is returned as it is."""
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    return value
