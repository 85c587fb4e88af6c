"""Tameness deciders for affine self-maps of the d-torus, with certificates.

A semicascade (iteration semigroup) of x -> Ax + b is tame exactly when
the power semigroup {A^n} is finite, i.e. A^p = A^q for some p < q; a
cascade (iteration group, requiring |det A| = 1) is tame exactly when
A^m = I for some m >= 1. Both conditions are decided here on integer
polynomials, without any polynomial factorization:

  1. compute the minimal polynomial mu of A and split mu = x^k * g,
  2. A is tame exactly when g divides x^s - 1 for some s, i.e. x has
     finite multiplicative order modulo g: by Kronecker, g is then a
     product of distinct cyclotomic polynomials Phi_n, found by exact
     trial division, and the order is their lcm, at most s_max(d),

which yields the least pair (k, k+s) respectively the least order m = s.
Step 2 is one derivation, _index_and_order, from mu and d alone; it backs
the deciders and every certificate check. For an untame A, a gcd(g, g')
test only names the witness: a repeated factor of g, or else the
exhausted order bound. _decided derives a decision and proves it, and
_certificate, the one builder of each certificate shape, turns it into a
certificate: both deciders go through the two, a cascade order m being
the pair (0, m). certificate_check derives (k, g, s) once, compares every
claim with the builder's certificate for that derivation, and then proves
it, by the power proof or the witness rule. The simulate probe reads
the decision alone, with no certificate and no witness, and so does
sweep_box, which decides a whole box of matrices through _decided, once
per symmetry orbit, into a verdict and a pair: every TAME orbit
representative runs the exact power proof. That proof builds one squaring
ladder A, A^2, A^4, ..., up to k + s, compares A^{k+s} with A^k, both
products of its rungs (A^0 = I the empty one), and proves its
inequalities by matrix-vector products through them, so it costs
O(log(k + s)) matrix products. A certificate re-checker makes every
verdict self-validating; an independent brute-force oracle,
oracle_semicascade_batch (exact power enumeration over a chunk of
matrices, in int64 for each matrix where a proven bound rules out
overflow, and in Python ints for the rest), backs sweep, and
oracle_semicascade is its batch of one. The tests hold both to their own
per-matrix reference loop.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from itertools import permutations, product

from .errors import DeterminantNotUnitError
from .exactalg import (_INT64_MAX, IntMatrix, IntPoly, _ladder, _norm, _power, _witnesses,
                       min_poly, poly_divmod, poly_gcd, strip_x_factor)

__all__ = [
    "TAME",
    "UNTAME",
    "SEMICASCADE",
    "CASCADE",
    "NON_SQUAREFREE",
    "ORDER_BOUND_EXHAUSTED",
    "ZERO_EIGENVALUE",
    "UntameWitness",
    "TamenessCertificate",
    "OrderBoundTable",
    "order_bound",
    "order_of_x_mod",
    "decide_semicascade",
    "sweep_box",
    "decide_cascade",
    "oracle_semicascade",
    "oracle_semicascade_batch",
    "certificate_check",
]

TAME = "TAME"
UNTAME = "UNTAME"
SEMICASCADE = "SEMICASCADE"
CASCADE = "CASCADE"

NON_SQUAREFREE = "NON_SQUAREFREE"
ORDER_BOUND_EXHAUSTED = "ORDER_BOUND_EXHAUSTED"
ZERO_EIGENVALUE = "ZERO_EIGENVALUE"


def _exact_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an integer, got %r" % (name, value))
    return value


def _required(data, key: str, owner: str):
    if isinstance(data, dict) and key in data:
        return data[key]
    raise TypeError("%s is missing %r" % (owner, key) if isinstance(data, dict)
                    else "%s must be a JSON object, got %r" % (owner, data))


def _optional_int(data: dict, key: str) -> int | None:
    value = data.get(key)
    return None if value is None else _exact_int(value, key)


def _fields_dict(record) -> dict:
    """The JSON object of a certificate or witness: every field that holds
    a value, 0 included, but neither None nor an empty detail; a pair as a
    list, a polynomial as its coefficients and a witness as its object."""
    out = {}
    for field in fields(record):
        value = getattr(record, field.name)
        if value is None or value == "":
            continue
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, IntPoly):
            value = list(value.int_coeffs())
        elif isinstance(value, UntameWitness):
            value = value.to_dict()
        out[field.name] = value
    return out


@dataclass(frozen=True)
class UntameWitness:
    """Proof data for an UNTAME verdict.

    reason NON_SQUAREFREE: the x-stripped minimal polynomial g has a
    repeated factor, which is impossible for a divisor of the squarefree
    x^s - 1. reason ORDER_BOUND_EXHAUSTED: x^s mod g != 1 for every
    1 <= s <= s_max, and no larger s can work because the order of x
    modulo a degree-<=d divisor of x^s - 1 is at most s_max(d). reason
    ZERO_EIGENVALUE: x divides the minimal polynomial; no decider emits
    it, and certificate_check accepts it only when A is also untame.
    Only an ORDER_BOUND_EXHAUSTED witness carries s_max; certificate_check
    rejects one of another reason that does. It re-derives each reason
    from the minimal polynomial alone, without matrix powers, and does
    not read detail.
    """

    reason: str
    stripped_min_poly: IntPoly
    s_max: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return _fields_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "UntameWitness":
        """Rebuild a witness; raises TypeError unless data is an object
        holding a reason and a polynomial, the polynomial a list of
        integers and s_max an integer or absent."""
        coeffs = _required(data, "stripped_min_poly", "witness")
        if not isinstance(coeffs, list):
            raise TypeError("stripped_min_poly must be a list of integers, got %r" % (coeffs,))
        return cls(
            reason=_required(data, "reason", "witness"),
            stripped_min_poly=IntPoly(_exact_int(c, "coefficient") for c in coeffs),
            s_max=_optional_int(data, "s_max"),
            detail=data.get("detail", ""),
        )


@dataclass(frozen=True)
class TamenessCertificate:
    """Verdict plus the data needed to re-verify it from scratch."""

    verdict: str
    kind: str
    index_k: int | None = None
    period_s: int | None = None
    minimal_pair: tuple[int, int] | None = None
    minimal_order_m: int | None = None
    witness: UntameWitness | None = None

    def to_dict(self) -> dict:
        return _fields_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TamenessCertificate":
        """Rebuild a certificate; raises TypeError or ValueError unless data
        is an object holding a verdict and a kind, each exponent field an
        integer or absent, the pair two integers and the witness well formed."""
        verdict = _required(data, "verdict", "certificate")
        pair = data.get("minimal_pair")
        if pair is not None:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError("minimal_pair must hold exactly two integers, got %r" % (pair,))
            pair = tuple(_exact_int(v, "minimal_pair entry") for v in pair)
        witness = data.get("witness")
        return cls(
            verdict=verdict,
            kind=_required(data, "kind", "certificate"),
            index_k=_optional_int(data, "index_k"),
            period_s=_optional_int(data, "period_s"),
            minimal_pair=pair,
            minimal_order_m=_optional_int(data, "minimal_order_m"),
            witness=UntameWitness.from_dict(witness) if witness is not None else None,
        )


@dataclass(frozen=True)
class OrderBoundTable:
    """Finite search bound for root-of-unity orders in dimension d.

    admissible_orders holds every n with phi(n) <= d; s_max is the
    largest lcm over subsets of distinct admissible orders whose phi
    values sum to at most d. Any squarefree monic integer divisor g of
    some x^s - 1 with deg g <= d is a product of distinct cyclotomic
    polynomials whose degrees phi(n_i) sum to deg g, so the order of x
    modulo g (the lcm of the n_i) is at most s_max.
    """

    d: int
    admissible_orders: frozenset[int]
    s_max: int


def _prime_divisors(n: int) -> list[int]:
    """Distinct primes dividing n >= 1, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def order_bound(d: int) -> OrderBoundTable:
    """Bound table for dimension d; s_max by a knapsack over prime powers.

    The cheapest set of distinct orders with lcm L = 2^e * prod p^f (p
    odd) costs sum phi(p^f) + c(e), where c(0) = 0, c(e) = 2^(e-1) for
    e >= 2, and c(1) = 0 when some odd p divides L (phi(2q) = phi(q))
    but 1 otherwise: every prime power of L divides some chosen order,
    and phi(ab) = phi(a) phi(b) >= phi(a) + phi(b) for coprime a, b
    with phi(a), phi(b) >= 2, so splitting an order into its prime
    powers never costs more, except that a factor 2 rides along with an
    odd one for free. s_max is therefore the largest such L with cost
    <= d: a knapsack over the odd primes p <= d + 1, taking at most one
    exponent per prime, followed by the best power of 2 for the rest of
    the budget.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    # phi(n) >= sqrt(n/2) for every n >= 1, so phi(n) <= d forces n <= 2*d*d.
    limit = 2 * d * d
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for n in range(p, limit + 1, p):
                phi[n] -= phi[n] // p
    admissible = frozenset(n for n in range(1, limit + 1) if phi[n] <= d)

    # odd[c]: largest odd L whose prime powers cost exactly c, 0 if none.
    odd = [1] + [0] * d
    for p in range(3, d + 2, 2):
        if phi[p] != p - 1:
            continue
        options = []
        power, cost = p, p - 1
        while cost <= d:
            options.append((power, cost))
            power, cost = power * p, cost * p
        odd = [
            max([odd[c]] + [odd[c - w] * v for v, w in options if w <= c and odd[c - w]])
            for c in range(d + 1)
        ]

    best = 1
    for c, value in enumerate(odd):
        if value:
            # A factor 2 is free next to an odd order and costs 1 <= d - c
            # alone (c = 0); doubling 2^e >= 2 costs phi(2^(e+1)) = 2^e.
            two = 2
            while two <= d - c:
                two *= 2
            best = max(best, value * two)
    return OrderBoundTable(d=d, admissible_orders=admissible, s_max=best)


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> IntPoly:
    """Phi_n: Phi_1 = x - 1, and for the least prime p of n = m*p,
    Phi_n(x) = Phi_m(x^p) if p | m, else Phi_m(x^p) / Phi_m(x)."""
    if n == 1:
        return IntPoly([-1, 1])
    p = _prime_divisors(n)[0]
    base = _cyclotomic(n // p)
    stretched = [0] * (p * base.degree + 1)
    stretched[::p] = base.coeffs
    if (n // p) % p == 0:
        return IntPoly(stretched)
    return poly_divmod(IntPoly(stretched), base)[0]


def order_of_x_mod(g: IntPoly, s_max: int):
    """Least s <= s_max with x^s = 1 in Q[x]/(g), or None.

    g must be nonzero with nonzero constant term. A monic divisor of
    x^s - 1 in Q[x] is integral (Gauss's lemma), so g has no order unless
    its leading coefficient divides the others. A monic g has an order
    exactly when it is a product of distinct cyclotomic polynomials Phi_n
    (Kronecker 1857; x^s - 1 is the product of the irreducible Phi_n over
    n | s), and the order is the lcm of those n.

    Two necessary conditions filter first. Such a product is self-reciprocal
    up to sign: Phi_n is palindromic, x^phi(n) Phi_n(1/x) = Phi_n, for
    n >= 2 (its roots are closed under z -> 1/z = conj(z), and
    Phi_n(0) = 1), while Phi_1 = x - 1 gives x Phi_1(1/x) = -Phi_1. The
    reversal x^deg g(1/x) is multiplicative, so for g = prod_{n in S} Phi_n
    it is (-1)^[1 in S] g, and the monic g's coefficient list reversed is
    itself or its negation; in particular |g(0)| = 1. All roots of g have
    modulus 1, so also |g_i| <= C(deg g, i). Then g is divided once by each
    Phi_n with phi(n) <= deg g, all exact monic integer divisions, and it is
    such a product exactly when the quotient ends at 1. This is trial
    division, not factorization.
    """
    if g.is_zero:
        raise ValueError("modulus polynomial must be nonzero")
    cs = g.coeffs
    if cs[0] == 0:
        raise ValueError("modulus polynomial must have nonzero constant term")
    deg = g.degree
    if deg == 0:
        # Quotient ring is trivial; every power of x equals 1 there.
        return 1
    lead = cs[-1]
    if any(c % lead for c in cs):
        return None
    monic = [c // lead for c in cs]
    reverse = monic[::-1]
    if reverse != monic and reverse != [-c for c in monic]:
        return None
    if any(abs(c) > math.comb(deg, i) for i, c in enumerate(monic)):
        return None
    rest, order = IntPoly(monic), 1
    for n in sorted(order_bound(deg).admissible_orders):
        phi_n = _cyclotomic(n)
        if phi_n.degree > rest.degree:
            continue
        quot, rem = poly_divmod(rest, phi_n)
        if rem.is_zero:
            rest, order = quot, math.lcm(order, n)
            if rest.degree == 0:
                return order if order <= s_max else None
    return None


def _index_and_order(mu: IntPoly, d: int) -> tuple[int, IntPoly, int | None]:
    """The decision from the minimal polynomial mu of a d x d matrix A:
    mu = x^k * g with g(0) != 0, and the order s of x modulo g, the least
    s <= s_max(d) with g | x^s - 1.

    s is None exactly when A is untame (see certificate_check); g = 1, a
    nilpotent A, gives s = 1. For a tame A, (k, k + s) is the least pair.
    """
    k, g = strip_x_factor(mu)
    return k, g, order_of_x_mod(g, order_bound(d).s_max)


def _untame_witness(g: IntPoly, d: int) -> UntameWitness:
    """Name why x has no order modulo g. Only a product of distinct Phi_n
    has one, so a squarefree g has exhausted the order bound. g is rendered
    before the squarefree test, so a g beyond CPython's int-to-str digit
    limit raises CapExceededError without that gcd."""
    rendered = str(g)
    if poly_gcd(g, g.derivative()).degree != 0:
        return UntameWitness(
            reason=NON_SQUAREFREE,
            stripped_min_poly=g,
            detail="x-stripped minimal polynomial %s has a repeated factor; "
            "a divisor of the squarefree x^s - 1 cannot" % rendered,
        )
    s_max = order_bound(d).s_max
    return UntameWitness(
        reason=ORDER_BOUND_EXHAUSTED,
        stripped_min_poly=g,
        s_max=s_max,
        detail="x^s mod %s != 1 for all 1 <= s <= %d, the complete order "
        "bound for dimension %d" % (rendered, s_max, d),
    )


def _decided(a: IntMatrix) -> tuple[int, IntPoly, int | None]:
    """_index_and_order of A's minimal polynomial, (k, g, s); a TAME
    decision (s not None) has passed the power proof of its pair (k, k + s),
    whose failure is a defect of the derivation, never of A."""
    k, g, s = _index_and_order(min_poly(a), a.d)
    if s is not None and not _has_index_and_period(a, k, s):
        raise AssertionError("internal error: power proof of (%d, %d) failed on %r" % (k, k + s, a))
    return k, g, s


def _certificate(kind: str, k: int, g: IntPoly, s: int | None, d: int) -> TamenessCertificate:
    """The certificate of a derivation (k, g, s) of a d x d matrix, the one
    place each shape is built: UNTAME with the witness of g when s is None;
    else TAME with the least pair (k, k + s), a CASCADE as its order m = s."""
    if s is None:
        return TamenessCertificate(verdict=UNTAME, kind=kind, witness=_untame_witness(g, d))
    if kind == CASCADE:
        return TamenessCertificate(verdict=TAME, kind=kind, period_s=s, minimal_order_m=s)
    return TamenessCertificate(verdict=TAME, kind=kind, index_k=k, period_s=s,
                               minimal_pair=(k, k + s))


def decide_semicascade(a: IntMatrix) -> TamenessCertificate:
    """Decide tameness of the iteration semigroup of x -> Ax + b.

    The translation part plays no role: tameness depends only on whether
    the powers of A form a finite semigroup. TAME certificates carry the
    least pair (p, q) = (k, k+s) with A^p = A^q, where k is the
    multiplicity of x in the minimal polynomial and s the order of x
    modulo the x-stripped part; they are re-verified against exact matrix
    powers (the power proof of certificate_check) before being returned.
    """
    return _certificate(SEMICASCADE, *_decided(a), a.d)


def decide_cascade(a: IntMatrix) -> TamenessCertificate:
    """Decide tameness of the iteration group of an invertible affine map.

    Requires |det A| = 1 (otherwise the inverse is not an integer matrix
    and the cascade is undefined). The cascade is tame exactly when
    A^m = I for some m >= 1, that is when the semicascade has the pair
    (0, m), so the verdict comes from decide_semicascade's derivation and
    power proof (_decided). An UNTAME witness depends only on mu and d and
    is the same; a TAME certificate carries the least order m = s.
    """
    det = abs(a.det())
    if det != 1:
        raise DeterminantNotUnitError("cascade undefined: |det A| = %d, need 1" % det)
    k, g, s = _decided(a)
    if k != 0:
        # |det A| = 1 keeps x out of the minimal polynomial.
        raise AssertionError("internal error: |det A| = 1 but %r has index %d" % (a, k))
    return _certificate(CASCADE, k, g, s, a.d)


def oracle_semicascade(a: IntMatrix):
    """Brute-force tameness check of one matrix: oracle_semicascade_batch
    on the batch of A alone. Returns (verdict, minimal_pair or None)."""
    return oracle_semicascade_batch([a])[0]


def oracle_semicascade_batch(matrices: Sequence[IntMatrix]) -> list:
    """Brute-force tameness check of each of a chunk of d x d matrices, in
    order, by exact power enumeration: (verdict, minimal_pair or None).

    It enumerates A^0, A^1, ..., A^Q with Q = d + s_max(d) and reports the
    first repetition. The bound is complete: a finite power semigroup has
    index at most d (the x-multiplicity of the minimal polynomial) and
    period at most s_max(d), so a repetition, if any, occurs by A^{d+s_max}.
    The chunk is enumerated at once: one enumeration in int64 and one in
    Python ints, each over the matrices of its dtype.

    Let ||A|| be the maximum absolute row sum. The bound ||A||^Q <= 2^63 - 1,
    checked on Python ints for each matrix, picks that matrix's dtype: when
    A meets it, int64, where no value formed on the way to A's powers
    overflows:
      1. No entry of a matrix exceeds its norm, and ||.|| is
         submultiplicative, so every entry of A^k is bounded by
         ||A^k|| <= ||A||^k (and A^0 = I by 1).
      2. Every partial sum of (A^k A)_ij = sum_l (A^k)_il a_lj is bounded
         by the sum of the absolute values of its terms, which is at most
         ||A^k|| * max |a_lj| <= ||A||^k * ||A|| = ||A||^(k+1).
      3. So for k + 1 <= Q every value, in whatever order numpy
         accumulates, is at most max(1, ||A||)^Q <= 2^63 - 1 in absolute
         value: int64 computes the same powers of A as bigints.
    The matrix products act on each stacked matrix alone, so the values of
    one matrix's powers never meet another's. A matrix beyond the bound goes
    to the enumeration whose arrays hold Python ints (numpy's object dtype),
    where nothing can overflow.

    Each enumeration stacks its powers as (Q + 1, n, d*d); for each matrix
    the first power index q equal to an earlier index p gives the pair
    (p, q). The powers before the first repetition are distinct, so p is
    unique.
    """
    if not matrices:
        return []
    d = matrices[0].d
    if any(a.d != d for a in matrices):
        raise ValueError("a batch needs matrices of one dimension")
    limit = d + order_bound(d).s_max

    import numpy as np

    by_dtype: dict = {}
    for i, a in enumerate(matrices):
        fits = _norm(a) ** limit <= _INT64_MAX
        by_dtype.setdefault(np.int64 if fits else object, []).append(i)
    answers = [None] * len(matrices)
    for dtype, indices in by_dtype.items():
        n = len(indices)
        a = np.array([matrices[i].entries for i in indices], dtype=dtype)
        powers = np.empty((limit + 1, n, d * d), dtype=dtype)
        powers[0] = np.eye(d, dtype=dtype).reshape(d * d)
        powers[1] = a.reshape(n, d * d)
        for q in range(2, limit + 1):
            powers[q] = (powers[q - 1].reshape(n, d, d) @ a).reshape(n, d * d)
        first_p = np.full(n, -1)
        first_q = np.full(n, -1)
        for q in range(1, limit + 1):
            equal = (powers[:q] == powers[q]).all(axis=2)
            hit = (first_q < 0) & equal.any(axis=0)
            first_p[hit] = equal.argmax(axis=0)[hit]
            first_q[hit] = q
        for i, p, q in zip(indices, first_p.tolist(), first_q.tolist()):
            answers[i] = (TAME, (p, q)) if q >= 0 else (UNTAME, None)
    return answers


# Representatives per oracle_semicascade_batch call in sweep_box. At d = 4
# their int64 powers take (4 + s_max(4) + 1) * 1024 * 16 * 8 bytes, about
# 2.2 MB. Those beyond the int64 bound are Python ints: entries of at most
# b bits give ||A|| < 2^(b + 2), so A^q's entries stay below 2^((b + 2) q),
# and a chunk's 17 powers hold about 136 (b + 2) bits per entry position,
# linear in b. With entries near 2^64, the sweep command's entry-bit cap,
# a chunk's oracle call peaked at 28 MB under tracemalloc (18.5 MB near
# 2^30); a library call beyond the cap grows with b, to 290 MB at 10^300.
_SWEEP_CHUNK = 1024


def _image_index_weights(d: int, width: int) -> set[tuple[int, ...]]:
    """For each of the 2 * d! maps A -> P A P^T and A -> (P A P^T)^T, P a
    permutation matrix, the weights w that give the box index of A's image
    as sum((a - lo) * w) over A's row-major entries a. The box index of B
    is sum((b - lo) * width^(d*d-1-k)) over its row-major entries b."""
    size = d * d
    places = [width ** (size - 1 - k) for k in range(size)]
    weights = set()
    for pi in permutations(range(d)):
        # B[i][j] = A[pi(i)][pi(j)] for B = P A P^T; B^T swaps i and j.
        conj, conj_t = [0] * size, [0] * size
        for i in range(d):
            for j in range(d):
                conj[pi[i] * d + pi[j]] = places[i * d + j]
                conj_t[pi[i] * d + pi[j]] = places[j * d + i]
        weights.update((tuple(conj), tuple(conj_t)))
    return weights


def sweep_box(d: int, lo: int, hi: int) -> tuple[array, list[tuple]]:
    """Decide every d x d matrix with entries in lo..hi, and check each
    verdict against the brute-force oracle, once per symmetry orbit.

    Returns (classes, outcomes). classes[i] is the class number of the
    i-th matrix of the box in itertools.product order over its row-major
    entries, and outcomes[c] is ((verdict, pair), (oracle_verdict,
    oracle_pair)) for the orbit of class c: the decided verdict and least
    pair, then the oracle's. Both pairs are None when UNTAME, so the two
    agree (the same verdict and, for TAME, the same pair) exactly when the
    halves are equal. Nothing is built per matrix beyond its class number,
    and no certificate is built at all.

    Lemma. Let B = P A P^T for a permutation matrix P, or B = (P A P^T)^T.
    Then B^n = P A^n P^T, or (P A^n P^T)^T, for every n >= 0, because
    P^T P = I and (A^T)^n = (A^n)^T; more generally f(B) is the same image
    of f(A) for every polynomial f. Both images are injective, so
    A^p = A^q <=> B^p = B^q: A and B have the same minimal pair, or none,
    and mu_B = mu_A. The decision depends on A only through mu and d, so
    it is the same for A and B, and so is the oracle's (verdict, pair).
    The TAME power proof, run on the representative of an orbit, together
    with this lemma proves every member's decision: a proof, not a sample.

    These 2 * d! maps only permute a matrix's entries, so every image of a
    box matrix lies in the box, and the box is a union of orbits. The walk
    takes the box in itertools.product order, which is lexicographic, so
    the first member of an orbit that it meets is the orbit's
    lexicographic minimum: that member is the representative. Each box
    index (its position in the walk) gets its class number in an
    array('i'), 4 bytes per matrix. Each representative is decided on its
    own by _decided, the derivation and power proof of decide_semicascade,
    and the oracle runs on the representatives in chunks of _SWEEP_CHUNK.
    """
    width = hi - lo + 1
    size = d * d
    weights = _image_index_weights(d, width)
    classes = array("i", [-1]) * width ** size
    representatives = []
    for index, digits in enumerate(product(range(width), repeat=size)):
        if classes[index] < 0:
            for w in weights:
                classes[sum(map(operator.mul, digits, w))] = len(representatives)
            representatives.append(digits)

    outcomes = []
    for start in range(0, len(representatives), _SWEEP_CHUNK):
        chunk = [IntMatrix._trusted(tuple(tuple([lo + x for x in digits[i * d : (i + 1) * d]])
                                          for i in range(d)))
                 for digits in representatives[start : start + _SWEEP_CHUNK]]
        for a, oracle in zip(chunk, oracle_semicascade_batch(chunk)):
            k, _, s = _decided(a)
            outcomes.append(((UNTAME, None) if s is None else (TAME, (k, k + s)), oracle))
    return classes, outcomes


def _has_index_and_period(a: IntMatrix, k: int, s: int) -> bool:
    """Whether the powers of A have index exactly k and period exactly s.

    A^k = A^{k+s} holds exactly when k is at least the index and s a
    multiple of the period; the two remaining checks, A^{k-1} != A^{k-1+s}
    if k > 0 and A^{k+s/r} != A^k for every prime r | s, exclude a smaller
    index and every proper divisor of s (see certificate_check).

    Every power comes from one squaring ladder A, A^2, A^4, ..., up to the
    top bit of k + s: A^n is the product of the rungs at the set bits of
    n, A^0 = I the empty one, the ladder and product of mat_pow
    (exactalg._ladder, _power). The equality is proved on whole matrices,
    as A^{k+s} = A^k. Each inequality states M != 0 for
    M = A^{j+t} - A^j, with (j, t) = (k - 1, s) or (k, s/r), and is proved
    by matrix-vector products through the ladder: A^t commutes with A^j,
    so Mv = A^t (A^j v) - A^j v. The vectors tried are (1, ..., d) and
    then the unit vectors e_1, ..., e_d (_witnesses). A v with Mv != 0
    proves M != 0, and M e_i is column i of M, so when every e_i gives 0,
    M = 0 and the inequality fails. Each check therefore decides exactly
    what comparing the whole matrices A^{j+t} and A^j decides, for every
    A, k and s: the accepted (k, s) are those of the whole-matrix proof.
    """
    ladder = _ladder(a, k + s)

    def apply_power(n: int, v: tuple[int, ...]) -> tuple[int, ...]:
        for i, rung in enumerate(ladder):
            if n >> i & 1:
                v = rung.apply(v)
        return v

    def moves_some_vector(j: int, t: int) -> bool:
        for v in _witnesses(a.d):
            u = apply_power(j, v)
            if apply_power(t, u) != u:
                return True
        return False

    return (_power(ladder, k + s) == _power(ladder, k)
            and (k == 0 or moves_some_vector(k - 1, s))
            and all(moves_some_vector(k, s // r) for r in _prime_divisors(s)))


def certificate_check(a: IntMatrix, cert: TamenessCertificate) -> bool:
    """Re-verify every claim in a certificate by exact computation.

    Every claim is compared with one derivation, _index_and_order: the
    minimal polynomial mu = x^k * g (g(0) != 0) and the order s of x
    modulo g, the least s <= s_max(d) with g | x^s - 1, or None.
      1. For i < j, A^i = A^j exactly when mu divides x^i (x^(j-i) - 1),
         exactly when i >= k and g divides x^(j-i) - 1 (g and x^t - 1 are
         coprime to x), exactly when i >= k and x has an order modulo g
         dividing j - i. So the powers of A repeat exactly when x has an
         order modulo g, and the least pair with A^p = A^q is then
         (k, k + order): the powers have the unique index k and period
         the order (the cyclic-monoid argument).
      2. That order is at most s_max(d): g then divides x^t - 1 =
         prod_{n | t} Phi_n (distinct irreducibles), so g is a product of
         distinct Phi_n whose degrees phi(n) sum to deg g <= d, and the
         order is their lcm (OrderBoundTable). So s is None exactly when A
         is untame, and otherwise (k, k + s) is the least pair, with
         k <= d and s <= s_max(d).

    Every claim is read in three steps: derive (k, g, s) once; compare the
    claim with the certificate the deciders build for that derivation
    (_certificate), before any power of A; then prove it, by the power
    proof for TAME and by the witness rule for UNTAME.

    Whatever its verdict, a claim needs a known kind, and a CASCADE one
    |det A| = 1. For an integer A that is mu(0) = +-1, i.e. k = 0 and
    |g(0)| = 1, so no determinant is computed: if mu(0) = +-1, then
    A q(A) = -+I for an integral q, so A^-1 is integral and
    det A det A^-1 = 1; if A^-1 is integral, each root of mu is a unit
    algebraic integer, so mu(0), a rational integer and a product of
    units, is +-1. This one rule also keeps a TAME cascade claim off a
    matrix with k > 0, whose built cascade shape would read s alone.

    A TAME claim needs s, and it must equal the built certificate: a
    SEMICASCADE one index_k = k, period_s = s and minimal_pair (k, k + s),
    a CASCADE one of order m, the pair (0, m) since A^m = I is A^0 = A^m,
    period_s = minimal_order_m = s, and it may add index_k = k = 0; no
    witness and no field of the other kind. Then the power proof
    (_has_index_and_period) must pass: A^k = A^{k+s}, A^{k-1} != A^{k-1+s}
    if k > 0, and A^{k+s/r} != A^k for every prime r | s. By 1 the power
    proof alone accepts exactly the pair (k, k + s), so the comparison
    changes no verdict; made before any power, it keeps a false claim
    from raising A, perhaps untame, to a large power, and no claimed field
    sets the size of a power. The proof takes A^{k+s} and A^k from one
    squaring ladder up to k + s, at most 3 floor(log2(k + s)) matrix
    products (2 floor(log2 s) when k = 0, A^0 = I being no product), and
    proves each inequality by matrix-vector products alone.

    An UNTAME claim must be the UNTAME shape: a witness and none of
    index_k, period_s, minimal_pair or minimal_order_m. Its witness may
    carry s_max only when its reason is ORDER_BOUND_EXHAUSTED, and its
    detail is not read. It is accepted exactly when s is None and the
    witness re-derives from mu: ZERO_EIGENVALUE when k > 0, NON_SQUAREFREE
    when the claimed g is the x-stripped part and has a repeated factor,
    ORDER_BOUND_EXHAUSTED when it is and the claimed s_max is s_max(d).
    A true witness that the deciders would not choose, such as
    ORDER_BOUND_EXHAUSTED on a g that is not squarefree, is accepted.
    Among claims of this shape, this accepts exactly the claims that the
    exhaustive check (oracle_semicascade reports UNTAME and the witness
    re-derives) accepts: the oracle enumerates A^0..A^{d+s_max} and
    reports UNTAME exactly when they hold no repetition, which by 2 is
    exactly when A is untame, that is when s is None. A re-derived
    NON_SQUAREFREE witness already implies s is None (any divisor of the
    squarefree x^s - 1 is squarefree), and an ORDER_BOUND_EXHAUSTED one is
    the statement itself; only a ZERO_EIGENVALUE one needs s on top. For a
    CASCADE claim the two kinds coincide: |det A| = 1 makes A^p = A^q
    imply A^{q-p} = I, so the cascade is untame exactly when the
    semicascade is. No power of A is computed for an UNTAME claim.

    An ORDER_BOUND_EXHAUSTED witness states x^s mod g != 1 for every
    1 <= s <= s_max, exactly when order_of_x_mod (Kronecker's criterion,
    not the residues) returns None: g divides x^s - 1 = prod_{n | s} Phi_n
    exactly when g = prod_{n in S} Phi_n for a set S of divisors of s, so
    the least such s is lcm S, returned when it is at most s_max.
    """
    k, g, s = _index_and_order(min_poly(a), a.d)
    if not (cert.kind == SEMICASCADE or cert.kind == CASCADE and k == 0 and abs(g.coeffs[0]) == 1):
        return False
    if cert.verdict == TAME:
        if s is None:
            return False
        built = _certificate(cert.kind, k, g, s, a.d)
        return cert in (built, replace(built, index_k=k)) and _has_index_and_period(a, k, s)

    witness = cert.witness
    if (witness is None or s is not None
            or cert != TamenessCertificate(verdict=UNTAME, kind=cert.kind, witness=witness)
            or witness.s_max is not None and witness.reason != ORDER_BOUND_EXHAUSTED):
        return False
    if witness.reason == ZERO_EIGENVALUE:
        return k > 0
    if witness.stripped_min_poly != g:
        return False
    if witness.reason == NON_SQUAREFREE:
        return poly_gcd(g, g.derivative()).degree != 0
    return witness.reason == ORDER_BOUND_EXHAUSTED and witness.s_max == order_bound(a.d).s_max
