"""Monomial orders on dense exponent tuples.

Only one order kind is supported: graded reverse lexicographic on standard
total degree, composed with a permutation of the variables.  The permutation
is enough to probe order-independence of downstream verdicts while keeping
every computation on the same well-understood order.

`key_func` maps an exponent tuple to a tuple key whose comparison realises
the order for exponents of any size.  The Groebner engine does not use it: it
packs monomials into ints that are grevlex keys themselves (see `groebner`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

Exponent = Tuple[int, ...]


@dataclass(frozen=True)
class MonomialOrder:
    """Graded reverse lexicographic order with a variable permutation.

    ``permutation[k]`` is the ring index of the k-th largest variable.  The
    identity permutation orders variables as the ring declares them.
    """

    permutation: Tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ValueError("permutation must be a permutation of 0..n-1")

    @staticmethod
    def identity(nvars: int) -> "MonomialOrder":
        return MonomialOrder(tuple(range(nvars)))

    @staticmethod
    def seeded(nvars: int, seed: Optional[int]) -> "MonomialOrder":
        """Order with the variables shuffled reproducibly by `seed`."""
        if seed is None:
            return MonomialOrder.identity(nvars)
        perm = list(range(nvars))
        random.Random(seed).shuffle(perm)
        return MonomialOrder(tuple(perm))

    @property
    def nvars(self) -> int:
        return len(self.permutation)

    def key_func(self) -> Callable[[Exponent], Tuple[int, ...]]:
        """Return a map from exponent tuples to comparable tuple keys.

        Larger key means larger monomial.  Ties in total degree are broken by
        the reverse lexicographic rule: the monomial whose exponent is smaller
        at the last position where they differ (in permuted order) is larger.
        """
        rev = self.permutation[:0:-1]

        def key(exp: Exponent) -> Tuple[int, ...]:
            return (sum(exp), *[-exp[v] for v in rev])

        return key

    def leading_exponent(self, terms) -> Exponent:
        keyf = self.key_func()
        return max(terms, key=keyf)
