"""Exact decision procedure for complete-intersection commuting varieties.

The pipeline presents the (higher-genus) commuting variety of an upper
triangular matrix group by the entries of a product of matrix commutators,
then decides whether those generators cut out a complete intersection.
`decide` certifies its verdict by the window witness (U_n, n >= 6, genus 1)
or by the Groebner-based codimension of the generator ideal.  The `koszul`
subcommand is the second, independent route: vanishing of degree-1 Koszul
homology on graded slices.  The tests cross-check the two routes.
"""

from .ordering import MonomialOrder
from .polyring import (
    DEFAULT_PRIME,
    Polynomial,
    PrimeField,
    QQ,
    Rationals,
    RingDescriptor,
    format_poly,
    parse_field_label,
    parse_poly,
)
from .groupmat import (
    BOREL,
    UNIPOTENT,
    CommutatorSystem,
    VanishingPatternError,
    commutator_ring,
    commutator_word,
    dump_generators,
)
from .groebner import (
    BuchbergerStats,
    GroebnerBasis,
    IncompleteComputation,
    buchberger,
    krull_dimension,
)
from .koszul import (
    KoszulComplex,
    KoszulSliceReport,
    build_complex,
    slices,
)
from .cidecide import (
    CIReport,
    WitnessReport,
    classify_table,
    decide_ci,
    u6_witness,
)

__version__ = "0.1.0"
