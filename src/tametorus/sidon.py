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
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .dynamics import finite_array, float_array, torus_grid
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
    basis = np.exp(1j * phases)  # (npoints, k)
    k = len(vs)
    best = 0.0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        coeffs = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
        sup = float(np.abs(basis @ coeffs).max())
        best = max(best, k / sup)
    return best


def parse_stream(lines: Iterable[str]) -> Iterator[tuple[int, ...]]:
    """Parse the line-based stream format: one vector per line,
    whitespace-separated integer components; blank lines are skipped."""
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            yield tuple(int(p) for p in parts)
        except ValueError as exc:
            raise MalformedInputError("bad stream line %d: %r" % (lineno, line)) from exc


def load_stream(path: str) -> list[tuple[int, ...]]:
    """Read a whole stream file into memory."""
    with open(path, "r", encoding="utf-8") as handle:
        return list(parse_stream(handle))
