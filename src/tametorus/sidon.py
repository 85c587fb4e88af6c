"""Greedy Sidon-subset extraction from integer frequency streams.

Any unbounded set of frequencies in Z^d contains an infinite Sidon
subset; this module makes that constructive with the classical
norm-growth rule: keep a vector only if its l1-norm strictly exceeds the
sum of the l1-norms of everything kept so far. The largest vector in any
{-1,0,+1}-combination of kept vectors then dominates the rest, so no
nontrivial combination vanishes (quasi-independence), the standard
sufficient condition for being Sidon. verify_quasi_independence proves
it for up to 12 vectors by an exact meet-in-the-middle count. Only the
floating estimate_sidon_ratio uses numpy, and imports it when it runs.
It bounds every trial's sup in single precision and computes the exact
double-precision product only for trials whose bounds lie within a
proved rounding margin of the least sup so far, so that its result is
bitwise that of the plain loop over every trial. parse_stream refuses a
line of more than GRID_DIMENSION_CAP components before converting any.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .dynamics import GRID_DIMENSION_CAP, finite_array, float_array, torus_grid
from .errors import CapExceededError, MalformedInputError, StreamExhaustedError

__all__ = [
    "SidonReport",
    "extract_sidon",
    "verify_quasi_independence",
    "estimate_sidon_ratio",
    "parse_stream",
    "load_stream",
]

MAX_QUASI_INDEPENDENCE_VECTORS = 12
DEFAULT_MAX_SCAN = 100_000
_COMPONENT = re.compile(r"\S+")  # str.split's fields: \s is str.isspace


@dataclass
class SidonReport:
    """Extraction result: the selected vectors and how many of them were
    checked for quasi-independence."""

    selected: list[tuple[int, ...]]
    quasi_independence_checked_up_to: int


def _l1(v: tuple[int, ...]) -> int:
    return sum(abs(c) for c in v)


def extract_sidon(
    stream: Iterable[Sequence[int]],
    count: int,
    max_scan: int = DEFAULT_MAX_SCAN,
) -> SidonReport:
    """Greedily select count vectors satisfying the norm-growth rule.

    A vector is kept iff its l1-norm strictly exceeds the sum of the
    l1-norms of all previously kept vectors (the zero vector never
    qualifies). Raises StreamExhaustedError when the stream ends, or when
    max_scan candidates have been examined, before count vectors are
    found; a bounded stream can never satisfy the rule count times.
    The selected prefix (up to MAX_QUASI_INDEPENDENCE_VECTORS vectors) is
    re-checked for quasi-independence by verify_quasi_independence.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    selected: list[tuple[int, ...]] = []
    total = 0
    dim = None
    scanned = 0
    for raw in stream:
        if scanned >= max_scan:
            break
        scanned += 1
        v = tuple(operator.index(c) for c in raw)
        if dim is None:
            dim = len(v)
        elif len(v) != dim:
            raise MalformedInputError(
                "stream vectors must share one dimension: got %d then %d" % (dim, len(v))
            )
        norm = _l1(v)
        if norm > total:
            selected.append(v)
            total += norm
            if len(selected) == count:
                break
    if len(selected) < count:
        raise StreamExhaustedError(
            "stream supplied %d of %d vectors under the norm-growth rule "
            "(%d candidates examined)" % (len(selected), count, scanned)
        )
    checked = min(count, MAX_QUASI_INDEPENDENCE_VECTORS)
    if not verify_quasi_independence(selected[:checked]):
        raise AssertionError("norm-growth rule produced a dependent set; this is a bug")
    return SidonReport(selected=selected, quasi_independence_checked_up_to=checked)


def _signed_sums(vectors: Sequence[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """Every sum of e_k * v_k over e in {-1, 0, 1}^len(vectors), with multiplicity."""
    sums = [(0,) * dim]
    for v in vectors:
        sums += [tuple(a + e * b for a, b in zip(s, v)) for e in (1, -1) for s in sums]
    return sums


def verify_quasi_independence(vectors: Sequence[Sequence[int]]) -> bool:
    """Exactly check that no nontrivial {-1,0,+1}-combination vanishes.

    Meet in the middle (Horowitz and Sahni 1974): split the n vectors into
    halves of sizes h = n // 2 and n - h and build every signed sum S1(e)
    of the first half and S2(f) of the second: 3^h + 3^(n-h) integer
    tuples, at most 2 * 3^6 under the cap. A full pattern (e, f)
    vanishes iff S1(e) = -S2(f), so the number of colliding pairs is the
    number of vanishing patterns, and the vectors are quasi-independent
    iff it is exactly 1, the all-zero pattern. Python integers throughout
    make the answer exact for entries of any size.
    """
    vs = [tuple(operator.index(c) for c in v) for v in vectors]
    n = len(vs)
    if n > MAX_QUASI_INDEPENDENCE_VECTORS:
        raise CapExceededError("quasi-independence check capped at %d vectors, got %d"
                               % (MAX_QUASI_INDEPENDENCE_VECTORS, n))
    if n == 0:
        return True
    if len({len(v) for v in vs}) != 1:
        raise MalformedInputError("vectors must share one dimension")

    dim = len(vs[0])
    h = n // 2
    first = Counter(_signed_sums(vs[:h], dim))
    vanishing = sum(first[tuple(-c for c in s)] for s in _signed_sums(vs[h:], dim))
    return vanishing == 1  # the all-zero pattern only


# Trials are bounded from below in complex64: each over a sub-grid first,
# every _BOUND_STRIDE-th grid point in row-major order, then over the full
# grid for the trials that can still set the answer. _BOUND_CHUNK trials
# share one batched product, 4.2 MB at 32^3 points.
_BOUND_STRIDE = 4
_BOUND_CHUNK = 16


def _grid_sup(basis, coeffs) -> float:
    """One trial's max |P| over the full grid: one product per trial, whose
    rounding defines the reported bytes."""
    import numpy as np

    return float(np.abs(basis @ coeffs).max())


def _bounds(points, coeffs) -> list[float]:
    """Each trial's max |P| over the points, from one batched product per
    _BOUND_CHUNK trials; coeffs holds one trial per row."""
    import numpy as np

    return np.concatenate([
        np.abs(points @ coeffs[lo:lo + _BOUND_CHUNK].T).max(axis=0)
        for lo in range(0, len(coeffs), _BOUND_CHUNK)
    ]).tolist()


def _coefficients(k: int, trials: int, seed: int):
    """The (trials, k) array of e^{i theta}: trial t's phases theta are
    drawn by a generator of its own, seeded with (seed, t)."""
    import numpy as np

    angles = np.empty((trials, k))
    for t in range(trials):
        angles[t] = np.random.default_rng([seed, t]).uniform(0.0, 2.0 * np.pi, k)
    return np.exp(1j * angles)


def estimate_sidon_ratio(
    vectors: Sequence[Sequence[int]],
    trials: int,
    grid_per_axis: int,
    seed: int,
) -> float:
    """Randomized probe of the l1-vs-sup-norm ratio for the frequency set.

    Each trial draws independent uniform phases, forms the unit-modulus
    polynomial P(x) = sum_k e^{i theta_k} e^{i <v_k, x>} and evaluates
    sum |c_k| / max_grid |P|. Returns the maximum ratio over trials. The
    grid max understates the true sup-norm, so individual ratios can
    overestimate; this is a diagnostic, not a certified constant.
    Per-trial generators are seeded with (seed, trial), making the result
    bit-reproducible and the trial set extendable. A component beyond
    double range raises CapExceededError before the grid is built, and a
    phase <v_k, x> beyond it before any trial.

    Only trials that can attain the least sup get the exact full-grid
    product in double precision. The answer max_t k/sup_t is
    k/min_t sup_t, since correctly rounded division by a positive double
    is monotone. The basis and the coefficients are cast once to complex64,
    and every bound is a single-precision max |P| from batched products:
    S_t over the sub-grid for every trial, then F_t over the full grid for
    one chunk of _BOUND_CHUNK trials at a time, taken in increasing order
    of S_t. The visit stops at the first chunk whose least S_t has
    S_t - m > best, the least sup so far. Within a chunk trials go in
    increasing order of F_t, and the chunk's rest is skipped at the first
    with F_t - m > best. The margin is m = (3k + 7)·k·v, v = 2^-24, for
    k <= 2^18, and m = inf beyond, where every trial gets the product.

    Proof that no skipped trial has a smaller sup (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., §3.1 and §3.6). Fix a
    trial's stored coefficients w and a grid row's stored basis entries
    z, both complex128. Let s = sum_i z_i w_i exactly, S = sum_i |z_i| |w_i|,
    γ_n(x) = nx/(1 - nx), and u = 2^-53 and v = 2^-24 the unit roundoffs
    of double and single precision.
    1. The exact product (basis @ coeffs, zgemv) and a bound's product
       (points @ chunk, cgemm) each form Re s and Im s as sums of 2k real
       products ±x·y. Each multiply, add or fused multiply-add rounds
       once, in an order of each kernel's own; numpy's scalings by 1 and
       0 round nothing. No product passes through more than 2k roundings,
       so each part is off by at most γ_2k times the sum of its |x·y|
       (§3.1). With z = a + iα and w = b + iβ, a term's two such sums are
       r = |ab| + |αβ| and q = |aβ| + |αb|, and r² + q² <= 2|z|²|w|². So a
       product whose terms' moduli sum to S is off by at most g·S in
       modulus (§3.6): g = sqrt(2)·γ_2k(u) in double and
       g' = sqrt(2)·γ_2k(v) in single precision.
    2. np.exp(1j·θ) is cos θ + i sin θ within an ulp per part, so
       |z_i|, |w_i| <= 1 + sqrt(2)u and S <= k(1 + sqrt(2)u)².
    3. The cast to complex64 rounds each part of z and w to nearest:
       z' = z + ε with |ε| <= v|z|, and likewise w'. So the cast sum
       s' = sum_i z'_i w'_i has |s' - s| <= (2v + v²)S, and its terms'
       moduli sum to S' <= (1 + v)²S.
    4. np.abs is within two ulps: fl|x| = |x|(1 + δ) with |δ| <= 4u in
       double and 4v in single. numpy's vector kernel takes
       max·sqrt(1 + r²), r = min/max, in four roundings, which stays
       within 3u to first order (2.49u measured on AVX-512).
    5. Let P = fl|ŝ| and L = fl|s̃| be the row's values in the exact
       product and in a bound. By 1 and 3, |s̃ - ŝ| <= E·S for
       E = g + 2v + v² + (1 + v)²g', and |ŝ| <= (1 + g)S. Then
       L <= (1 + 4v)(|ŝ| + E·S) and P >= (1 - 4u)|ŝ|, so
       L - P <= ((4v + 4u)(1 + g) + (1 + 4v)E)·S, whose leading term is
       (2·sqrt(2)·k + 6)·k·v, and which stays below m - k·v for every
       k <= 2^18. Underflow below 2^-126 adds at most 2^-150 to a cast
       or a rounding (§2.1): under k·2^-140 in all, inside that slack.
    6. A bound S_t or F_t is attained at a grid row, so trial t's sup is
       at least that bound minus m. The visit stops at a chunk whose
       least sub-grid bound S_t has fl(S_t - m) > best; every trial left
       has a bound S >= S_t, so fl(S - m) > best too. Rounding is monotone
       and best is a double, so S - m > best, and that trial's sup
       exceeds best. Likewise for the rest of a chunk from its first
       trial with fl(F_t - m) > best. Hence min_t sup_t and the returned
       double are those of the plain loop over every trial.
    """
    import numpy as np

    vs = [tuple(operator.index(c) for c in v) for v in vectors]
    if not vs:
        raise ValueError("need at least one frequency vector")
    if len(set(vs)) != len(vs):
        raise ValueError("frequency vectors must be distinct")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    freqs = float_array(vs, "frequency vector")
    grid = torus_grid(len(vs[0]), grid_per_axis)
    with np.errstate(over="ignore"):
        phases = finite_array(grid @ freqs.T, "a phase <v, x> of the grid")
    del grid
    basis = np.exp(1j * phases)  # (npoints, k)
    del phases
    k = len(vs)
    coeffs = _coefficients(k, trials, seed)
    basis32, coeffs32 = basis.astype(np.complex64), coeffs.astype(np.complex64)
    sub = _bounds(basis32[::_BOUND_STRIDE], coeffs32)
    margin = (3 * k + 7) * k * 2.0 ** -24 if k <= 2 ** 18 else math.inf
    order = sorted(range(trials), key=sub.__getitem__)
    least = math.inf
    for lo in range(0, trials, _BOUND_CHUNK):
        chunk = order[lo:lo + _BOUND_CHUNK]
        if sub[chunk[0]] - margin > least:
            break
        for f, t in sorted(zip(_bounds(basis32, coeffs32[chunk]), chunk)):
            if f - margin > least:
                break
            # An array of its own, so that no kernel path picked by where a
            # row of coeffs starts can change the product's bytes.
            least = min(least, _grid_sup(basis, coeffs[t].copy()))
    return k / least


def parse_stream(lines: Iterable[str]) -> Iterator[tuple[int, ...]]:
    """Parse the line-based stream format: one vector per line,
    whitespace-separated integer components; blank lines are skipped.
    A line of more than GRID_DIMENSION_CAP components, more axes than any
    grid of estimate_sidon_ratio has, raises CapExceededError before any
    component is converted and without copying the rest of the line."""
    for lineno, line in enumerate(lines, start=1):
        # islice stops the scan at the first component beyond the cap.
        parts = [m.group() for m in islice(_COMPONENT.finditer(line), GRID_DIMENSION_CAP + 1)]
        if not parts:
            continue
        if len(parts) > GRID_DIMENSION_CAP:
            raise CapExceededError("stream line %d has more than %d components, the grid "
                                   "dimension cap" % (lineno, GRID_DIMENSION_CAP))
        try:
            yield tuple(int(p) for p in parts)
        except ValueError as exc:
            raise MalformedInputError("bad stream line %d: %r" % (lineno, line)) from exc


def load_stream(path: str) -> list[tuple[int, ...]]:
    """Read a whole stream file into memory."""
    with open(path, "r", encoding="utf-8") as handle:
        return list(parse_stream(handle))
