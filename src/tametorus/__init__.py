"""Tameness deciders, orbit probes and Sidon extraction for affine
self-maps of the d-torus.

The package decides, with re-checkable certificates, whether the
iteration semigroup (semicascade) or iteration group (cascade) of
x -> Ax + b on the d-torus is tame: for the semigroup the criterion is
an exact power coincidence A^p = A^q, for the group a finite order
A^m = I. Exact integer matrix and integer polynomial algebra (including
the minimal polynomial) lives in exactalg, the decision procedures,
which need no rational arithmetic and no factorization, in
tameness, floating-point orbit and independence probes in
dynamics, greedy Sidon-subset extraction in sidon, and the batch
interface in cli.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    DeterminantNotUnitError,
    DimensionInputError,
    DimensionMismatchError,
    InputError,
    MalformedInputError,
    NonIntegerInputError,
    PreconditionError,
    StreamExhaustedError,
    TameTorusError,
)
from .exactalg import (
    IntMatrix,
    IntPoly,
    mat_mul,
    mat_pow,
    min_poly,
    poly_divmod,
    poly_gcd,
    strip_x_factor,
)
from .tameness import (
    CASCADE,
    NON_SQUAREFREE,
    ORDER_BOUND_EXHAUSTED,
    SEMICASCADE,
    TAME,
    UNTAME,
    ZERO_EIGENVALUE,
    OrderBoundTable,
    TamenessCertificate,
    UntameWitness,
    certificate_check,
    decide_cascade,
    decide_semicascade,
    decide_semicascade_batch,
    oracle_semicascade,
    oracle_semicascade_batch,
    order_bound,
    order_of_x_mod,
)
from .dynamics import (
    AffineMap,
    FrequencyOrbit,
    IndependenceQuery,
    convergence_probe,
    escape_probe,
    exp_grid_average,
    frequency_orbit,
    independence_check,
    reduce_angles,
    torus_dist,
    torus_grid,
)
from .sidon import (
    SidonReport,
    estimate_sidon_ratio,
    extract_sidon,
    load_stream,
    parse_stream,
    verify_quasi_independence,
)

__all__ = [
    "__version__",
    # errors
    "TameTorusError",
    "InputError",
    "MalformedInputError",
    "DimensionInputError",
    "NonIntegerInputError",
    "PreconditionError",
    "DeterminantNotUnitError",
    "StreamExhaustedError",
    "CapExceededError",
    "DimensionMismatchError",
    # exactalg
    "IntMatrix",
    "IntPoly",
    "mat_mul",
    "mat_pow",
    "min_poly",
    "poly_gcd",
    "poly_divmod",
    "strip_x_factor",
    # tameness
    "TAME",
    "UNTAME",
    "SEMICASCADE",
    "CASCADE",
    "NON_SQUAREFREE",
    "ORDER_BOUND_EXHAUSTED",
    "ZERO_EIGENVALUE",
    "TamenessCertificate",
    "UntameWitness",
    "OrderBoundTable",
    "order_bound",
    "order_of_x_mod",
    "decide_semicascade",
    "decide_semicascade_batch",
    "decide_cascade",
    "oracle_semicascade",
    "oracle_semicascade_batch",
    "certificate_check",
    # dynamics
    "AffineMap",
    "FrequencyOrbit",
    "IndependenceQuery",
    "reduce_angles",
    "torus_dist",
    "torus_grid",
    "frequency_orbit",
    "escape_probe",
    "convergence_probe",
    "independence_check",
    "exp_grid_average",
    # sidon
    "SidonReport",
    "extract_sidon",
    "verify_quasi_independence",
    "estimate_sidon_ratio",
    "parse_stream",
    "load_stream",
]
