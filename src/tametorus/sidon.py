"""Greedy Sidon-subset extraction from integer frequency streams.

Any unbounded set of frequencies in Z^d contains an infinite Sidon
subset; this module makes that constructive with the classical
norm-growth rule: keep a vector only if its l1-norm strictly exceeds the
sum of the l1-norms of everything kept so far. The largest vector in any
{-1,0,+1}-combination of kept vectors then dominates the rest, so no
nontrivial combination vanishes (quasi-independence), the standard
sufficient condition for being Sidon.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dynamics import torus_grid
from .errors import CapExceededError, MalformedInputError, StreamExhaustedError

__all__ = [
    "MAX_QUASI_INDEPENDENCE_VECTORS",
    "DEFAULT_MAX_SCAN",
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
    verify_cap: int = MAX_QUASI_INDEPENDENCE_VECTORS,
) -> SidonReport:
    """Greedily select count vectors satisfying the norm-growth rule.

    A vector is kept iff its l1-norm strictly exceeds the sum of the
    l1-norms of all previously kept vectors (the zero vector never
    qualifies). Raises StreamExhaustedError when the stream ends, or when
    max_scan candidates have been examined, before count vectors are
    found; a bounded stream can never satisfy the rule count times.
    The selected prefix (up to verify_cap vectors) is re-checked for
    quasi-independence by exhaustive enumeration.
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
    checked = min(count, verify_cap)
    if not verify_quasi_independence(selected[:checked], cap=verify_cap):
        raise AssertionError("norm-growth rule produced a dependent set; this is a bug")
    return SidonReport(selected=selected, quasi_independence_checked_up_to=checked)


def verify_quasi_independence(
    vectors: Sequence[Sequence[int]], cap: int = MAX_QUASI_INDEPENDENCE_VECTORS
) -> bool:
    """Exhaustively check that no nontrivial {-1,0,+1}-combination vanishes.

    Enumerates all 3^n coefficient patterns. The fast path evaluates the
    combinations as one integer matrix product; it is only taken when the
    worst-case partial sum provably fits in int64, otherwise an exact
    big-integer loop runs.
    """
    vs = [tuple(operator.index(c) for c in v) for v in vectors]
    n = len(vs)
    if n > cap:
        raise CapExceededError(
            "quasi-independence check capped at %d vectors, got %d" % (cap, n)
        )
    if n == 0:
        return True
    if len({len(v) for v in vs}) != 1:
        raise MalformedInputError("vectors must share one dimension")

    max_abs = max((abs(c) for v in vs for c in v), default=0)
    if n * max_abs < 2 ** 62:
        powers = 3 ** np.arange(n, dtype=np.int64)
        mat = np.array(vs, dtype=np.int64)
        n_zero = 0
        total = 3 ** n
        chunk = 3 ** 9
        for start in range(0, total, chunk):
            codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
            digits = (codes[:, None] // powers) % 3 - 1
            sums = digits @ mat
            n_zero += int(np.all(sums == 0, axis=1).sum())
        return n_zero == 1  # the all-zero pattern only
    for coeffs in product((-1, 0, 1), repeat=n):
        if all(c == 0 for c in coeffs):
            continue
        if all(sum(c * v[i] for c, v in zip(coeffs, vs)) == 0 for i in range(len(vs[0]))):
            return False
    return True


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
    bit-reproducible and the trial set extendable.
    """
    vs = [tuple(operator.index(c) for c in v) for v in vectors]
    if not vs:
        raise ValueError("need at least one frequency vector")
    if len(set(vs)) != len(vs):
        raise ValueError("frequency vectors must be distinct")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    d = len(vs[0])
    grid = torus_grid(d, grid_per_axis)
    basis = np.exp(1j * (grid @ np.array(vs, dtype=float).T))  # (npoints, k)
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
