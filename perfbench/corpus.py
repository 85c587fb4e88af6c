"""Seeded job corpus for the benchmark workloads.

Every matrix here is built by this file's own integer code, never by the
package under test, so the expected answers are known by construction:

* tame matrices are U * diag(C(Phi_n1), ..., C(Phi_nr), J_k(0)) * U^-1 for
  a seeded unimodular U, so the minimal pair is (k, k + lcm n_i) and, when
  k = 0, the order is lcm n_i;
* untame matrices are hyperbolic (spectral radius > 1.01) with a
  squarefree characteristic polynomial, which is then the minimal
  polynomial, so an ORDER_BOUND_EXHAUSTED certificate can be written down
  without running the decider;
* Sidon streams are built so that the norm-growth rule keeps exactly the
  vectors this file's own greedy pass keeps.

A workload is an endless sequence of rounds. A round is a fixed,
stratified set of jobs in seeded order; runs execute whole rounds, so the
job mix, and with it every median and percentile, is the same in every
run of a workload.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

WORKLOADS = ("tame-long-period", "untame-certify", "sweep-boxes", "probes")

# Why each workload exists (cost driver it isolates and the layers it loads).
WHY = {
    "tame-long-period": "tame d=6..16 with period s_max/4..s_max: certificate_check's "
    "q sequential mat_muls dominate; the oracle never runs",
    "untame-certify": "certify UNTAME claims on hyperbolic d=6..14: the bigint oracle over "
    "d+s_max powers and the full order search dominate",
    "sweep-boxes": "thousands of tiny matrices: Fraction min_poly, the small oracle and "
    "~230 KB of JSON per job put per-call overhead in front",
    "probes": "the only workload on dynamics and sidon: simulate, frequencies and "
    "12-vector sidon, weighted 9:2 so the median is a simulate/frequencies job",
}

# Percentile reported as job_tail_s, fixed per workload so that it does not
# move with the number of jobs a run completes. Each falls in the middle of
# a group of job types of like cost in the round, not on the edge between
# two groups: tame-long-period the d=14..16 jobs below the d=16 Landau
# cascade, untame-certify the d=13 jobs, sweep-boxes the d=3 boxes,
# probes the d=2 sidon job. Runs last until at least ten jobs lie beyond it.
TAIL_PERCENTILE = {
    "tame-long-period": 90,
    "untame-certify": 85,
    "sweep-boxes": 70,
    "probes": 85,
}

# Rounds replayed by a traced run; a fixed count makes its counts exact.
TRACE_ROUNDS = {
    "tame-long-period": 1,
    "untame-certify": 1,
    "sweep-boxes": 1,
    "probes": 2,
}

# The sweep-boxes round: d=3 boxes {a, a+1}^9 of 512 matrices, and the
# d=2 box -2..2 of 625 matrices, as (d, lo, hi).
ROUND_BOXES = ((3, -2, -1), (3, -1, 0), (3, 0, 1), (3, 1, 2), (2, -2, 2))
WARMUP_BOX = (2, 0, 1)

# tame_count of each fixed sweep box. The corpus tests recompute these by
# independent power enumeration.
SWEEP_TAME_COUNTS = {
    (3, -2, -1): 0,
    (3, -1, 0): 148,
    (3, 0, 1): 148,
    (3, 1, 2): 0,
    (2, -2, 2): 109,
    (2, 0, 1): 11,
}

UNTAME_ENTRY_RANGE = 3
FREQUENCY_ITERS = 400
GRID_PER_AXIS = 32  # simulate and sidon --grid
SIDON_COUNT = 12


@dataclass
class Job:
    """One CLI invocation: argv for tametorus.cli.main and stdin text.

    expect holds what the construction guarantees about the output;
    max_power is the highest matrix power the product path builds, used
    for the exactalg.max_entry_bits count; matrices counts the matrices a
    job decides (a sweep box's size, else 1). kernel names the calibration
    kernel (calib.KERNELS) that matches where the job spends its time.
    """

    command: str
    argv: list[str]
    stdin: str
    expect: dict
    matrix: list[list[int]] | None = None
    max_power: int = 0
    matrices: int = 1
    box: tuple[int, int, int] | None = None
    kernel: str = "python"


# ---------------------------------------------------------------------------
# Integer helpers (independent of the package under test)
# ---------------------------------------------------------------------------


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(d):
    return [[int(i == j) for j in range(d)] for i in range(d)]


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def poly_divexact(f, g):
    """Quotient of integer polynomials (ascending coefficients), g monic."""
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = f[i + len(g) - 1]
        q[i] = c
        for j, gc in enumerate(g):
            f[i + j] -= c * gc
    if any(f):
        raise ArithmeticError("division is not exact")
    return q


def cyclotomic(n: int) -> list[int]:
    """Phi_n, ascending integer coefficients."""
    f = [-1] + [0] * (n - 1) + [1]
    for m in range(1, n):
        if n % m == 0:
            f = poly_divexact(f, cyclotomic(m))
    return f


def companion(poly):
    """Companion matrix of a monic polynomial (ascending coefficients)."""
    m = len(poly) - 1
    c = [[0] * m for _ in range(m)]
    for i in range(1, m):
        c[i][i - 1] = 1
    for i in range(m):
        c[i][m - 1] = -poly[i]
    return c


def block_diag(blocks):
    d = sum(len(b) for b in blocks)
    out = [[0] * d for _ in range(d)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def nilpotent_jordan(k: int):
    return [[int(j == i + 1) for j in range(k)] for i in range(k)]


def unimodular(rng: random.Random, d: int, ops: int):
    """A seeded unimodular U and its exact inverse, from ops row operations
    row_i += c * row_j (c = +-1) applied to a signed permutation matrix."""
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    u = [[signs[i] if j == perm[i] else 0 for j in range(d)] for i in range(d)]
    uinv = [[signs[j] if i == perm[j] else 0 for j in range(d)] for i in range(d)]
    for _ in range(ops):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in uinv:
            row[j] -= c * row[i]
    return u, uinv


def char_poly(a) -> list[int]:
    """Characteristic polynomial by integer Faddeev-LeVerrier (ascending)."""
    d = len(a)
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    m = [[0] * d for _ in range(d)]
    for k in range(1, d + 1):
        m = matmul(a, m)
        for i in range(d):
            m[i][i] += coeffs[d - k + 1]
        am = matmul(a, m)
        tr = sum(am[i][i] for i in range(d))
        coeffs[d - k] = -tr // k
    return coeffs


def _rat_rem(f, g):
    f = list(f)
    while len(f) >= len(g) and any(f):
        c = f[-1] / g[-1]
        shift = len(f) - len(g)
        for j, gc in enumerate(g):
            f[shift + j] -= c * gc
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return f


def is_squarefree(poly) -> bool:
    """gcd(f, f') is constant, by Euclid over the rationals."""
    f = [Fraction(c) for c in poly]
    g = [Fraction(i * c) for i, c in enumerate(poly)][1:]
    while g:
        f, g = g, _rat_rem(f, g)
    return len(f) == 1


def spectral_radius(a) -> float:
    return float(np.abs(np.linalg.eigvals(np.array(a, dtype=float))).max())


@lru_cache(maxsize=None)
def order_sets(budget: int) -> tuple:
    """Every set of distinct orders n >= 2 whose phi(n) sum to at most
    budget, as (lcm, phi_sum, orders) triples."""
    orders = [n for n in range(2, 2 * budget * budget + 3) if euler_phi(n) <= budget]
    phis = [euler_phi(n) for n in orders]
    out = []

    def walk(start, left, acc, chosen):
        out.append((acc, budget - left, tuple(chosen)))
        for i in range(start, len(orders)):
            if phis[i] <= left:
                chosen.append(orders[i])
                walk(i + 1, left - phis[i], math.lcm(acc, orders[i]), chosen)
                chosen.pop()

    walk(0, budget, 1, [])
    return tuple(out)


def s_max(d: int) -> int:
    """Largest lcm of distinct orders whose phi values sum to at most d."""
    return max(acc for acc, _, _ in order_sets(d))


def mixing_unimodular(rng: random.Random, d: int):
    """A seeded generic unimodular U = P L R and its exact inverse: P a
    signed permutation, L and R^T unit lower triangular with off-diagonal
    entries drawn from {-1, 0, 0, 1}. Conjugating by it leaves no block
    structure visible: U D U^-1 looks like a generic integer matrix with
    the minimal polynomial of D."""

    def unit_lower():
        return [[1 if i == j else (rng.choice((-1, 0, 0, 1)) if j < i else 0)
                 for j in range(d)] for i in range(d)]

    def lower_inverse(t):
        inv = identity(d)
        for i in range(d):
            for j in range(i):
                inv[i][j] = -sum(t[i][m] * inv[m][j] for m in range(j, i))
        return inv

    perm, perm_inv = unimodular(rng, d, 0)
    lower, upper_t = unit_lower(), unit_lower()
    upper = [list(row) for row in zip(*upper_t)]
    upper_inv = [list(row) for row in zip(*lower_inverse(upper_t))]
    u = matmul(perm, matmul(lower, upper))
    return u, matmul(matmul(upper_inv, lower_inverse(lower)), perm_inv)


def cyclotomic_blocks(orders, k: int, d: int):
    """diag(C(Phi_n) for n in orders, C(Phi_1) padding, J_k(0)), d x d."""
    blocks = [companion(cyclotomic(n)) for n in orders]
    pad = d - k - sum(len(b) for b in blocks)
    blocks += [[[1]]] * pad
    if k:
        blocks.append(nilpotent_jordan(k))
    return block_diag(blocks)


def tame_matrix(rng: random.Random, orders, k: int, d: int):
    """U * cyclotomic_blocks(orders, k, d) * U^-1 for a generic seeded U."""
    u, uinv = mixing_unimodular(rng, d)
    return matmul(matmul(u, cyclotomic_blocks(orders, k, d)), uinv)


def min_poly(a) -> list[int]:
    """Minimal polynomial as the first linear dependency among vec(A^i),
    i = 0, 1, ..., by exact elimination over the rationals (ascending,
    monic, integer coefficients)."""
    d = len(a)
    basis = []  # (pivot, reduced vector, combination of powers)
    power = identity(d)
    for k in range(d + 1):
        vec = [Fraction(x) for row in power for x in row]
        comb = [Fraction(0)] * k + [Fraction(1)]
        for pivot, rvec, rcomb in basis:
            if vec[pivot]:
                f = vec[pivot] / rvec[pivot]
                vec = [x - f * y for x, y in zip(vec, rvec)]
                for i, c in enumerate(rcomb):
                    comb[i] -= f * c
        if not any(vec):
            if any(c.denominator != 1 for c in comb):
                raise ArithmeticError("minimal polynomial of an integer matrix is not integral")
            return [int(c) for c in comb]
        basis.append((next(i for i, x in enumerate(vec) if x), vec, comb))
        power = matmul(power, a)
    raise ArithmeticError("no dependency among I, A, ..., A^d")


# Spectral-radius band of each untame shape, as (low, high, whether both
# scale with sqrt(d)), inside the middle half of what each generator draws.
# Entry bit length, the cost driver of the oracle, grows like
# n * log2(rho); pinning rho to a narrow band makes it a function of d
# rather than of the seed.
RHO_BAND = {
    "SQUAREFREE": (1.95, 2.25, True),
    "UNIMODULAR": (2.2, 2.5, False),
    "REPEATED": (1.3, 1.5, True),
}


def random_untame(rng: random.Random, d: int, kind: str):
    """Hyperbolic matrix with entries in -3..3 and a known minimal polynomial.

    kind SQUAREFREE: uniform entries, squarefree characteristic polynomial
    (which is then the minimal polynomial). UNIMODULAR: the same, built from
    elementary operations on a signed permutation (|det| = 1). REPEATED:
    [[B, C], [0, B]] plus, for odd d, a 1x1 block, whose minimal polynomial
    has a repeated factor. The spectral radius lies in RHO_BAND[kind].
    Returns (matrix, minimal polynomial).
    """
    r = UNTAME_ENTRY_RANGE
    low, high, scaled = RHO_BAND[kind]
    if scaled:
        low, high = low * math.sqrt(d), high * math.sqrt(d)
    while True:
        if kind == "UNIMODULAR":
            a, _ = unimodular(rng, d, 2 * d)
        elif kind == "REPEATED":
            m = d // 2
            a = [[0] * d for _ in range(d)]
            for i in range(m):
                for j in range(m):
                    a[i][j] = a[m + i][m + j] = rng.randint(-r, r)
                    a[i][m + j] = rng.randint(-r, r)
            if d % 2:
                a[d - 1][d - 1] = rng.choice((-3, -2, 2, 3))
        else:
            a = [[rng.randint(-r, r) for _ in range(d)] for _ in range(d)]
        if max(abs(x) for row in a for x in row) > r or not low <= spectral_radius(a) <= high:
            continue
        if kind == "REPEATED":
            mu = min_poly(a)
            if mu[0] != 0 and not is_squarefree(mu):
                return a, mu
        else:
            chi = char_poly(a)
            if chi[0] != 0 and is_squarefree(chi):
                return a, chi


# ---------------------------------------------------------------------------
# Job builders
# ---------------------------------------------------------------------------


def matrix_job(command: str, a, extra: dict | None = None, argv_opts=(), expect=None,
               max_power=0) -> Job:
    data = {"d": len(a), "A": a}
    data.update(extra or {})
    return Job(
        command=command,
        argv=[command, "--input", "-", *argv_opts],
        stdin=json.dumps(data),
        expect=expect or {},
        matrix=a,
        max_power=max_power,
    )


def tame_job(rng, command: str, d: int, orders, k: int) -> Job:
    s = math.lcm(1, *orders)
    a = tame_matrix(rng, orders, k, d)
    expect = {"pair": [k, k + s]} if command == "semicascade" else {"order": s}
    return matrix_job(command, a, expect=expect, max_power=k + s)


def untame_certify_job(rng, d: int, kind: str, reason: str) -> Job:
    """An UNTAME certificate of the given kind (SEMICASCADE or CASCADE) and
    witness reason (ORDER_BOUND_EXHAUSTED or NON_SQUAREFREE)."""
    if reason == "NON_SQUAREFREE":
        shape = "REPEATED"
    else:
        shape = "UNIMODULAR" if kind == "CASCADE" else "SQUAREFREE"
    a, mu = random_untame(rng, d, shape)
    smax = s_max(d)
    witness = {"reason": reason, "stripped_min_poly": mu}
    if reason == "ORDER_BOUND_EXHAUSTED":
        witness["s_max"] = smax
    cert = {"verdict": "UNTAME", "kind": kind, "witness": witness}
    return matrix_job("certify", a, extra={"certificate": cert},
                      expect={"valid": True}, max_power=d + smax)


def sweep_job(d: int, lo: int, hi: int) -> Job:
    width = hi - lo + 1
    return Job(
        command="sweep",
        argv=["sweep", "--input", "-", "--range=%d..%d" % (lo, hi)],
        stdin=json.dumps({"d": d}),
        expect={"total": width ** (d * d), "tame_count": SWEEP_TAME_COUNTS[(d, lo, hi)]},
        max_power=d + s_max(d),
        matrices=width ** (d * d),
        box=(d, lo, hi),
    )


def finite_order_matrix(rng, d: int):
    """Conjugated cyclotomic companion blocks with lcm order m >= 2."""
    while True:
        choices = [n for n in range(2, 13) if euler_phi(n) <= d]
        orders, left = [], d
        for n in rng.sample(choices, len(choices)):
            if euler_phi(n) <= left:
                orders.append(n)
                left -= euler_phi(n)
        m = math.lcm(1, *orders)
        if m >= 2:
            # Few row operations keep entries small, so float orbits stay
            # accurate to well within checks.ANGLE_TOL.
            u, uinv = unimodular(rng, d, d)
            return matmul(matmul(u, cyclotomic_blocks(orders, 0, d)), uinv), m


def irreducible_hyperbolic(rng, d: int):
    """d in (2, 3): char poly irreducible over Q and spectral radius > 1.01,
    so every nonzero integer frequency has an unbounded orbit."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        chi = char_poly(a)
        if chi[0] == 0 or spectral_radius(a) <= 1.01:
            continue
        if d == 2:
            disc = chi[1] ** 2 - 4 * chi[0]
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                continue
        else:
            # A reducible monic cubic has an integer root dividing chi(0).
            c0 = abs(chi[0])
            roots = [s * r for r in range(1, c0 + 1) if c0 % r == 0 for s in (1, -1)]
            if any(sum(c * x ** i for i, c in enumerate(chi)) == 0 for x in roots):
                continue
        return a


def simulate_job(rng, d: int, finite: bool) -> Job:
    if finite:
        a, m = finite_order_matrix(rng, d)
    else:
        a, m = irreducible_hyperbolic(rng, d), None
    x0 = [round(rng.uniform(0.0, 6.28), 6) for _ in range(d)]
    iters = 50
    expect = {"subsequence": list(range(0, iters + 1, m)) if m else [0], "order": m, "iters": iters}
    job = matrix_job(
        "simulate", a, extra={"x0": x0},
        argv_opts=["--iters", str(iters), "--grid", str(GRID_PER_AXIS)],
        expect=expect, max_power=iters,
    )
    if d == 3:
        job.kernel = "numpy"  # 32^3 grid images dominate
    return job


def frequencies_job(rng, d: int, finite: bool) -> Job:
    a = finite_order_matrix(rng, d)[0] if finite else irreducible_hyperbolic(rng, d)
    u = [0] * d
    while not any(u):
        u = [rng.randint(-3, 3) for _ in range(d)]
    bound = 10 ** 6
    return matrix_job(
        "frequencies", a, extra={"u": u},
        argv_opts=["--iters", str(FREQUENCY_ITERS), "--bound", str(bound)],
        expect={"escaped": not finite, "u": u, "iters": FREQUENCY_ITERS, "bound": bound},
        max_power=FREQUENCY_ITERS,
    )


def greedy_sidon(vectors, count):
    kept, total = [], 0
    for v in vectors:
        norm = sum(abs(c) for c in v)
        if norm > total:
            kept.append(list(v))
            total += norm
            if len(kept) == count:
                break
    return kept


def sidon_stream(rng, d: int, count: int = SIDON_COUNT):
    """A growing stream: l1 norms rise by ~1.5x a line, with smaller noise
    vectors mixed in, until the greedy rule has kept count vectors."""
    lines, target = [], 3.0
    while len(greedy_sidon(lines, count)) < count:
        target *= 1.5
        norm = int(target) + rng.randint(0, 2)
        if rng.random() < 0.3:
            norm = max(1, norm // rng.randint(2, 6))
        cuts = sorted(rng.randint(0, norm) for _ in range(d - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [norm])]
        lines.append([p * rng.choice((-1, 1)) for p in parts])
    lines += [[rng.randint(-5, 5) for _ in range(d)] for _ in range(3)]
    return lines


def sidon_job(rng, d: int) -> Job:
    lines = sidon_stream(rng, d)
    stdin = "\n".join(" ".join(map(str, v)) for v in lines) + "\n"
    return Job(
        command="sidon",
        argv=["sidon", "--input", "-", "--iters", str(SIDON_COUNT), "--grid", str(GRID_PER_AXIS)],
        stdin=stdin,
        expect={"selected": greedy_sidon(lines, SIDON_COUNT)},
        kernel="numpy",  # the 3^12 independence check and the grid estimate dominate
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Corpus:
    """Seeded round generator for one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self.rng = random.Random("%s:%d" % (workload, seed))
        self._sets: dict[tuple[int, int], list] = {}

    def rounds(self):
        build = getattr(self, "_round_" + self.workload.replace("-", "_"))
        index = 0
        while True:
            jobs = build(index)
            self.rng.shuffle(jobs)
            yield jobs
            index += 1

    def _median_lcm_sets(self, d: int, k: int):
        """Order sets for budget d - k whose lcm is the median of the distinct
        lcm values in [s_max(d)/4, s_max(d)], and whose phi sum is the
        largest such. Fixing the lcm and the padding per (d, k) keeps the
        cost of a round the same for every seed."""
        key = (d, k)
        if key not in self._sets:
            top = s_max(d)
            sets = [entry for entry in order_sets(d - k) if 4 * entry[0] >= top]
            lcms = sorted({acc for acc, _, _ in sets})
            target = lcms[len(lcms) // 2]
            sets = [(phis, orders) for acc, phis, orders in sets if acc == target]
            fullest = max(phis for phis, _ in sets)
            self._sets[key] = [orders for phis, orders in sets if phis == fullest]
        return self._sets[key]

    def _round_tame_long_period(self, index: int):
        # A cascade on the Landau-maximal set for d = 6..16 and a semicascade
        # for d = 7..16: 21 jobs, an odd count, so the median is the middle
        # of one job type's cluster rather than the gap between two.
        jobs = []
        for d in range(6, 17):
            landau = max(order_sets(d))[2]
            jobs.append(tame_job(self.rng, "cascade", d, landau, 0))
            if d > 6:
                k = (d + index) % 3
                orders = self.rng.choice(self._median_lcm_sets(d, k))
                jobs.append(tame_job(self.rng, "semicascade", d, orders, k))
        return jobs

    def _round_untame_certify(self, index: int):
        # A cascade claim for d = 6..14 and a semicascade claim for d = 7..14:
        # 17 jobs, an odd count, so the median is the middle of one job
        # type's cluster. For odd d the semicascade claim rests on a repeated
        # factor, so the witness re-check runs the squarefree test instead of
        # the order search.
        jobs = []
        for d in range(6, 15):
            jobs.append(untame_certify_job(self.rng, d, "CASCADE", "ORDER_BOUND_EXHAUSTED"))
            if d > 6:
                reason = "NON_SQUAREFREE" if d % 2 else "ORDER_BOUND_EXHAUSTED"
                jobs.append(untame_certify_job(self.rng, d, "SEMICASCADE", reason))
        return jobs

    def _round_sweep_boxes(self, index: int):
        return [sweep_job(*box) for box in ROUND_BOXES]

    def _round_probes(self, index: int):
        # Nine simulate/frequencies jobs and two sidon jobs: the median lies
        # inside the simulate/frequencies cluster, and the odd count puts it
        # in the middle of one job type rather than between two.
        rng = self.rng
        shapes = [(2, True), (2, False), (3, True), (3, False)]
        jobs = [simulate_job(rng, d, finite) for d, finite in shapes + [(2, True)]]
        jobs += [frequencies_job(rng, d, finite) for d, finite in shapes]
        jobs += [sidon_job(rng, d) for d in (2, 3)]
        return jobs


# The fixed job each setup interpreter completes after importing the CLI:
# a small job of the workload's kind, so that setup_s is start-up cost
# (imports, first calls, order_bound) rather than the cost of a job.
def warmup_job(workload: str) -> Job:
    rng = random.Random("warmup:" + workload)
    if workload == "tame-long-period":
        return tame_job(rng, "semicascade", 6, (3, 4), 1)
    if workload == "untame-certify":
        return untame_certify_job(rng, 6, "SEMICASCADE", "ORDER_BOUND_EXHAUSTED")
    if workload == "sweep-boxes":
        return sweep_job(*WARMUP_BOX)
    return simulate_job(rng, 2, True)
