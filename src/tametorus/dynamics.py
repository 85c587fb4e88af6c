"""Torus-orbit simulation and empirical convergence/escape probes.

This is the only floating-point layer in the package: points on the
d-torus live in [0, 2*pi)^d as float64 arrays. Frequencies stay exact
(Python ints via exactalg), and this layer consumes the decider: the
power structure of A comes from its derivation and power proof in
tameness (_decided), with no certificate built.

convergence_probe builds one image of its grid per distinct translation
along its chain: the chain shares one A^n, so equal translations give
identical images, whose deviation is exactly 0.0.

numpy is imported inside the functions that compute with it, never at
module level: importing this module, or running the exact
frequency_orbit and escape_probe, loads no numpy, so the exact CLI
commands start without it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import pairwise
from typing import Sequence

from .errors import CapExceededError, DimensionMismatchError
from .exactalg import IntMatrix, mat_pow
from .tameness import _decided

__all__ = [
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
]

TWO_PI = 2.0 * math.pi

# Default grids shrink their per-axis count to stay within this total;
# larger grids are refused.
GRID_POINT_CAP = 32 ** 3
GRID_DIMENSION_CAP = 32  # np.meshgrid takes at most 32 axes

MAX_INDEPENDENCE_FUNCTIONS = 12


def float_array(values, what: str) -> np.ndarray:
    """Integer entries as a float64 array; CapExceededError when one is
    beyond double range (about 1.8e308), where float() overflows."""
    import numpy as np

    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:
        raise CapExceededError("%s has an entry beyond double range" % what) from exc


def finite_array(values: np.ndarray, what: str) -> np.ndarray:
    """values unchanged; CapExceededError when an entry overflowed double
    range (inf) or was formed from such an entry (nan)."""
    import numpy as np

    if not np.isfinite(values).all():
        raise CapExceededError("%s is beyond double range" % what)
    return values


def reduce_angles(x) -> np.ndarray:
    """Map angles into [0, 2*pi) componentwise."""
    import numpy as np

    out = np.mod(np.asarray(x, dtype=float), TWO_PI)
    # np.mod can round tiny negatives up to exactly 2*pi.
    out[out >= TWO_PI] = 0.0
    return out


def torus_dist(x, y) -> float:
    """Sup over coordinates of the circular distance min(|dx|, 2*pi - |dx|)."""
    import numpy as np

    delta = np.mod(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), TWO_PI)
    return float(np.max(np.minimum(delta, TWO_PI - delta)))


def grid_per_axis(d: int, per_axis: int | None = None) -> int:
    """Points per axis of torus_grid(d, per_axis), checked against the caps.

    Defaults to 32 points per axis for d <= 3; for higher d the per-axis
    count shrinks to keep the total at most GRID_POINT_CAP points. A grid
    of more than GRID_POINT_CAP points (an explicit per_axis too large for
    d, or d >= 16 with 2 or more per axis) or GRID_DIMENSION_CAP axes
    raises CapExceededError. Loads no numpy and allocates nothing.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d > GRID_DIMENSION_CAP:
        raise CapExceededError("grid of dimension %d exceeds the cap of %d" % (d, GRID_DIMENSION_CAP))
    if per_axis is None:
        per_axis = 32 if d <= 3 else max(2, int(GRID_POINT_CAP ** (1.0 / d)))
    if per_axis < 1:
        raise ValueError("per_axis must be >= 1")
    if per_axis ** d > GRID_POINT_CAP:
        raise CapExceededError(
            "grid of %d^%d points exceeds the cap of %d" % (per_axis, d, GRID_POINT_CAP)
        )
    return per_axis


def torus_grid(d: int, per_axis: int | None = None) -> np.ndarray:
    """Uniform grid on [0, 2*pi)^d, shape (n**d, d) for n =
    grid_per_axis(d, per_axis), whose caps are checked before anything is
    allocated."""
    import numpy as np

    per_axis = grid_per_axis(d, per_axis)
    axis = np.arange(per_axis) * (TWO_PI / per_axis)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class AffineMap:
    """Affine self-map x -> Ax + b of the d-torus.

    A is an exact integer matrix; b is a translation vector of angles,
    reduced into [0, 2*pi). Applications run in double precision, so an
    entry of A, or an applied point, beyond double range raises
    CapExceededError.
    """

    def __init__(self, a: IntMatrix, b=None):
        import numpy as np

        self.a = a
        self.b = reduce_angles(np.zeros(a.d) if b is None else self._vector(b, "translation"))
        self._a_float = float_array(a.entries, "A")

    @property
    def d(self) -> int:
        return self.a.d

    def _vector(self, values, what: str) -> np.ndarray:
        """values as a float vector of length d; DimensionMismatchError when
        it has another shape."""
        import numpy as np

        x = np.atleast_1d(np.asarray(values, dtype=float))
        if x.shape != (self.d,):
            raise DimensionMismatchError(
                "%s of shape %s does not match dimension %d" % (what, x.shape, self.d)
            )
        return x

    def apply(self, x) -> np.ndarray:
        """One application, reduced mod 2*pi; CapExceededError when A x + b
        is beyond double range."""
        import numpy as np

        x = self._vector(x, "point")
        with np.errstate(over="ignore"):
            image = self._a_float @ x + self.b
        return reduce_angles(finite_array(image, "an orbit point"))

    def orbit(self, x0, n: int) -> np.ndarray:
        """[x0, phi(x0), ..., phi^n(x0)] as an (n+1, d) array;
        DimensionMismatchError when x0 is not a point of length d, and
        CapExceededError when a point is beyond double range."""
        import numpy as np

        if n < 1:
            raise ValueError("orbit length must be >= 1")
        out = np.empty((n + 1, self.d))
        out[0] = reduce_angles(self._vector(x0, "point"))
        a, b = self._a_float, self.b
        # An overflow gives inf, reduced to nan, and every later point
        # inherits the nan, so one check of the whole orbit covers each step.
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n):
                out[i + 1] = reduce_angles(a @ out[i] + b)
        return finite_array(out, "an orbit point")

    def __repr__(self):
        import numpy as np

        return "AffineMap(%r, b=%s)" % (self.a, np.array2string(self.b, precision=6))


@dataclass(frozen=True)
class FrequencyOrbit:
    """Exact orbit of a frequency vector under the transposed matrix."""

    u: tuple[int, ...]
    terms: tuple[tuple[int, ...], ...]


def frequency_orbit(a: IntMatrix, u: Sequence[int], n: int) -> FrequencyOrbit:
    """Terms (A^T)^j u for j = 0..n, over exact integers.

    Composing the exponential with frequency u with x -> Ax + b yields the
    exponential with frequency A^T u (up to a unimodular constant), so
    these orbits are exactly the frequency sets the iterates act on.

    Raises CapExceededError at the first term that holds an integer of
    more decimal digits than sys.get_int_max_str_digits(), before the
    next term is built: CPython cannot print that integer, so no orbit
    that holds it can be reported. The cat map's terms pass the default
    limit of 4,300 digits at index 10,289.
    """
    u = tuple(operator.index(c) for c in u)
    if len(u) != a.d:
        raise DimensionMismatchError(
            "frequency of length %d does not match dimension %d" % (len(u), a.d)
        )
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    at = a.transpose()
    terms = [u]
    while True:
        # An integer of at most 3 * limit bits is below 8^limit < 10^limit,
        # so it has at most `limit` digits and prints.
        top = max(map(abs, terms[-1]))
        if limit and top.bit_length() > 3 * limit and top >= 10 ** limit:
            raise CapExceededError.digit_limit("report holds an integer")
        if len(terms) > n:
            return FrequencyOrbit(u=u, terms=tuple(terms))
        terms.append(at.apply(terms[-1]))


def escape_probe(fo: FrequencyOrbit, bound: int):
    """First index whose term exceeds the sup-norm bound, if any.

    Returns (escaped, first_index). An orbit that escapes every bound
    certifies an unbounded frequency family, hence a sequence of
    exponentials with no pointwise-convergent subsequence.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    for i, term in enumerate(fo.terms):
        if max(abs(c) for c in term) > bound:
            return True, i
    return False, None


def convergence_probe(phi: AffineMap, indices: Sequence[int], grid: np.ndarray, tol: float):
    """Search iterate indices for a pointwise-convergent-looking sub-list.

    Strategy (deterministic): group the indices by the exact integer
    matrix A^n; inside the largest group (ties: the group holding the
    smallest index), sort indices by their float translation parts and
    emit the longest run whose consecutive translations are within tol in
    the torus sup-metric (ties: earliest run). Returns the run's indices
    in ascending order together with the worst observed deviation between
    consecutive images over the whole grid. The chain's A^n is applied in
    double precision, so an entry of it, or an image of a grid point,
    beyond double range raises CapExceededError.

    Every index of the chain shares A^n, so an image of the grid is built
    once per distinct translation along the chain, not once per index:
    consecutive indices with equal translations have identical images,
    whose deviation is exactly 0.0 and cannot raise the maximum, which
    starts at 0.0. A b = 0 chain builds no image at all.

    The groups come from the decision of A, its index k and period s, as
    tameness derives and proves it for decide_semicascade (_decided); no
    certificate or UNTAME witness is built, and no power but the chain's
    A^n. By item 1 of certificate_check, A^i = A^j (i < j) exactly when A
    is TAME with pair (k, k + s), i >= k and s | j - i, so any s + 1
    indices from k on of a tame A hold a group of size >= 2.
    """
    import numpy as np

    indices = [operator.index(i) for i in indices]
    if not indices:
        raise ValueError("need at least one index")
    if any(i < 0 for i in indices):
        raise ValueError("indices must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != phi.d:
        raise DimensionMismatchError("grid must have shape (npoints, %d)" % phi.d)

    k, _, s = _decided(phi.a)
    # The powers of an UNTAME A never repeat: every n lies below an infinite index.
    k, s = (math.inf, 1) if s is None else (k, s)
    translations = phi.orbit((0.0,) * phi.d, max(1, max(indices)))  # an orbit has n >= 1

    groups: dict[int, list[int]] = {}
    for n in sorted(set(indices)):
        groups.setdefault(n if n < k else k + (n - k) % s, []).append(n)
    group = max(groups.values(), key=lambda g: (len(g), -g[0]))

    # Snap coordinates that drifted across the 0/2pi seam so a cluster of
    # equal translations cannot be split by the lexicographic sort.
    snapped = translations[group]
    snapped[TWO_PI - snapped < min(1e-12, tol / 2)] = 0.0
    keyed = sorted(zip(map(tuple, snapped), group))

    runs = [[keyed[0][1]]]
    for (prev, _), (cur, n) in pairwise(keyed):
        if torus_dist(prev, cur) < tol:
            runs[-1].append(n)
        else:
            runs.append([n])
    chain = max(runs, key=len)  # the earliest of the longest runs

    mat = float_array(mat_pow(phi.a, chain[0]).entries, "A^%d" % chain[0])
    with np.errstate(over="ignore"):
        moved = finite_array(grid @ mat.T, "the image of a grid point")
    # Equal translations give identical images (docstring): only the first
    # index and each change of translation along the chain get an image.
    t = translations[chain]
    changed = (t[1:] != t[:-1]).any(axis=1)
    distinct = [chain[0], *(n for n, new in zip(chain[1:], changed) if new)]
    # moved is finite and each translation lies in [0, 2*pi), so no sum overflows.
    images = (reduce_angles(moved + translations[n]) for n in distinct)  # a pair at a time
    pairs = pairwise(images) if grid.size and len(distinct) > 1 else ()
    return sorted(chain), max([0.0, *(torus_dist(prev, cur) for prev, cur in pairs)])


@dataclass
class IndependenceQuery:
    """Sampled function family plus the two thresholds a < b."""

    functions: Sequence[np.ndarray]
    a: float
    b: float

    def __post_init__(self):
        import numpy as np

        self.functions = [np.atleast_1d(np.asarray(f, dtype=float)) for f in self.functions]
        if self.functions:
            npoints = self.functions[0].shape[0]
            if npoints < 1:
                raise ValueError("sample grid must be nonempty")
            if any(f.shape != (npoints,) for f in self.functions):
                raise DimensionMismatchError("all sample arrays must share one grid")
        if not self.a < self.b:
            raise ValueError("thresholds must satisfy a < b")


def independence_check(query: IndependenceQuery) -> bool:
    """Brute-force test of the independence pattern condition.

    True iff for every pair of disjoint index subsets P, Q some sampled
    point x has f_p(x) < a for all p in P and f_q(x) > b for all q in Q.
    All 3^n below/above/skip patterns are enumerated over point bitmasks;
    a pattern whose witness set empties out fails immediately (every
    extension of it is also a pattern).
    """
    n = len(query.functions)
    if n > MAX_INDEPENDENCE_FUNCTIONS:
        raise CapExceededError("independence check capped at %d functions, got %d"
                               % (MAX_INDEPENDENCE_FUNCTIONS, n))
    if n == 0:
        return True
    npoints = query.functions[0].shape[0]
    full = (1 << npoints) - 1

    def mask_of(bools) -> int:
        m = 0
        for i, flag in enumerate(bools):
            if flag:
                m |= 1 << i
        return m

    below = [mask_of(f < query.a) for f in query.functions]
    above = [mask_of(f > query.b) for f in query.functions]

    def walk(i: int, mask: int) -> bool:
        if mask == 0:
            return False
        if i == n:
            return True
        return (
            walk(i + 1, mask)
            and walk(i + 1, mask & below[i])
            and walk(i + 1, mask & above[i])
        )

    return walk(0, full)


def exp_grid_average(freq: Sequence[int], per_axis: int) -> complex:
    """Average of e^{i <freq, x>} over the uniform per_axis^d grid.

    The discrete orthogonality identity makes this exactly 1 when every
    component of freq is divisible by per_axis and 0 otherwise; computed
    here by direct summation (fixed order) as a floating diagnostic.
    """
    import numpy as np

    freq = [operator.index(c) for c in freq]
    grid = torus_grid(len(freq), per_axis)
    phases = grid @ np.asarray(freq, dtype=float)
    return complex(np.exp(1j * phases).mean())
