"""Monomial orders on dense exponent tuples.

Only one order kind is supported: graded reverse lexicographic on standard
total degree, composed with a permutation of the variables.  The permutation
is enough to probe order-independence of downstream verdicts while keeping
every computation on the same well-understood order.

Keys are packed big integers so that Python's integer comparison realises the
order directly; `key_func` memoizes them per exponent tuple, which matters in
the Buchberger inner loops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

Exponent = Tuple[int, ...]

# Bits per packed exponent field.  Degrees stay far below 2**16 (the Groebner
# layer caps total degree), so 16 bits leave ample headroom.
_FIELD_BITS = 16
_FIELD_MAX = (1 << _FIELD_BITS) - 1


@dataclass(frozen=True)
class MonomialOrder:
    """Graded reverse lexicographic order with a variable permutation.

    ``permutation[k]`` is the ring index of the k-th largest variable.  The
    identity permutation orders variables as the ring declares them.
    """

    kind: str
    permutation: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind != "grevlex":
            raise ValueError(f"unsupported monomial order kind: {self.kind!r}")
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ValueError("permutation must be a permutation of 0..n-1")

    @staticmethod
    def identity(nvars: int) -> "MonomialOrder":
        return MonomialOrder("grevlex", tuple(range(nvars)))

    @staticmethod
    def seeded(nvars: int, seed: Optional[int]) -> "MonomialOrder":
        """Order with the variables shuffled reproducibly by `seed`."""
        if seed is None:
            return MonomialOrder.identity(nvars)
        perm = list(range(nvars))
        random.Random(seed).shuffle(perm)
        return MonomialOrder("grevlex", tuple(perm))

    @property
    def nvars(self) -> int:
        return len(self.permutation)

    def key_func(self) -> Callable[[Exponent], int]:
        """Return a memoized map from exponent tuples to comparable int keys.

        Larger key means larger monomial.  Ties in total degree are broken by
        the reverse lexicographic rule: the monomial whose exponent is smaller
        at the last position where they differ (in permuted order) is larger.
        """
        perm = self.permutation
        n = len(perm)
        cache: Dict[Exponent, int] = {}
        fmax = _FIELD_MAX
        bits = _FIELD_BITS

        def key(exp: Exponent) -> int:
            k = cache.get(exp)
            if k is None:
                k = sum(exp)
                for pos in range(n - 1, 0, -1):
                    k = (k << bits) | (fmax - exp[perm[pos]])
                cache[exp] = k
            return k

        return key

    def leading_exponent(self, terms) -> Exponent:
        keyf = self.key_func()
        return max(terms, key=keyf)

    def to_json(self) -> dict:
        return {"kind": self.kind, "permutation": list(self.permutation)}

    @staticmethod
    def from_json(data: dict) -> "MonomialOrder":
        return MonomialOrder(data["kind"], tuple(data["permutation"]))
