"""Exact multigraded Betti diagrams of resolutions that are pure by total degree.

The package computes the equivariant generator diagram for any gap
vector, verifies the multigraded Herzog-Kuhl equations, computes gcds of
Schur polynomial families, and decides membership of arbitrary diagrams
in the linear space the generator spans, with exact rational arithmetic
throughout.
"""

from .laurent import (
    ExactDivisionError,
    LaurentPoly,
    canonical,
    exact_div,
    format_poly,
    frobenius,
    gcd,
    gcd_list,
    insert_variable,
    lex_leading,
    parse_poly,
    poly_from_json,
    poly_to_json,
)
from .schur import (
    check_difference_vector,
    check_partition,
    frobenius_split,
    pad_partition,
    schur_gcd_family,
    schur_polys,
    staircase,
    term_partition,
)
from .betti import (
    BettiDiagram,
    BettiTuple,
    HKReport,
    NotPureError,
    PurityProfile,
    check_hk,
    equivariant_diagram,
    equivariant_tuple,
    hilbert_numerator,
)
from .hkspace import (
    GeneratorError,
    MembershipReport,
    NotMultipleError,
    ReductionError,
    canonical_generator,
    canonical_tuple,
    component_gcd,
    decompose,
    descend,
    find_generator,
    membership,
    poly_valuation,
    reduce_pair,
    valuation,
)

__version__ = "0.1.0"
