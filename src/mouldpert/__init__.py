"""Exact mould-calculus engine for eigenvalue perturbation series.

Laurent-valued moulds over an alphabet of eigenvalue differences are
factored into polar and regular parts; the residues and constant terms
of the factors weight nested commutators and ordered products of the
perturbation's eigencomponents, producing the normal form and a unitary
conjugator, all in exact arithmetic.
"""

from .scalars import GaussianRational, ScalarParseError, format_scalar, parse_scalar
from .laurent import InsufficientAccuracyError, Laurent
from .moulds import (
    Alphabet,
    EMPTY_WORD,
    Mould,
    MouldError,
    Word,
    is_alternal_up_to,
    is_symmetral_up_to,
    mould_antipode,
    mould_exp,
    mould_inverse,
    mould_log,
    mould_product,
    nabla,
    shuffle,
)
from .birkhoff import (
    BirkhoffEngine,
    make_T,
    verify_conjugation_symmetry,
    verify_factorization,
    verify_grading_identities,
    verify_mould_equation,
    verify_support,
)
from .operators import (
    MatrixSeries,
    NormalizationOutput,
    PerturbationProblem,
    SpectralDecomposition,
    build_conjugator,
    build_normal_form,
    compare_with_oracle,
    eigenvalue_series,
    hierarchy_oracle,
    numeric_compare,
    random_problem,
    solve,
    spectral_decompose,
    verify_conjugacy,
)

__version__ = "0.1.0"
