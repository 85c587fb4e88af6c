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
interface in cli. Each module's __all__ is its public API; the package
re-exports all of them but cli's.
"""

__version__ = "0.1.0"

from . import dynamics, errors, exactalg, sidon, tameness
from .errors import *
from .exactalg import *
from .tameness import *
from .dynamics import *
from .sidon import *

__all__ = ["__version__", *errors.__all__, *exactalg.__all__, *tameness.__all__,
           *dynamics.__all__, *sidon.__all__]
