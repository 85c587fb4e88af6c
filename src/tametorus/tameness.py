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
exhausted order bound. decide_semicascade_batch is the one place a
verdict is derived and proved: sweep calls it per chunk,
decide_semicascade per matrix, and decide_cascade and the simulate
probe go through decide_semicascade, a cascade order m being the pair
(0, m). It derives each certificate once per distinct mu in its batch,
while the exact power proof of a TAME certificate still runs on every
matrix. That proof builds one squaring ladder A, A^2, A^4, ..., takes
A^s from its rungs and proves its inequalities by matrix-vector
products through them, so it costs O(log(k + s)) matrix products. A
certificate re-checker makes every verdict self-validating; an
independent brute-force oracle (exact power enumeration, batched in
int64 under a proven overflow bound for sweep) backs sweep and the tests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

from .errors import DeterminantNotUnitError
from .exactalg import (IntMatrix, IntPoly, _witnesses, mat_mul, min_poly, poly_divmod, poly_gcd,
                       strip_x_factor)

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
    "decide_semicascade_batch",
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


def _optional_int(data: dict, key: str) -> int | None:
    value = data.get(key)
    return None if value is None else _exact_int(value, key)


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
    certificate_check re-derives each reason from the minimal polynomial
    alone, without matrix powers.
    """

    reason: str
    stripped_min_poly: IntPoly
    s_max: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        out = {
            "reason": self.reason,
            "stripped_min_poly": list(self.stripped_min_poly.int_coeffs()),
        }
        if self.s_max is not None:
            out["s_max"] = self.s_max
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "UntameWitness":
        """Rebuild a witness; raises TypeError unless the polynomial is a
        list of integers and s_max an integer or absent."""
        coeffs = data["stripped_min_poly"]
        if not isinstance(coeffs, list):
            raise TypeError("stripped_min_poly must be a list of integers, got %r" % (coeffs,))
        return cls(
            reason=data["reason"],
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
        out = {"verdict": self.verdict, "kind": self.kind}
        if self.index_k is not None:
            out["index_k"] = self.index_k
        if self.period_s is not None:
            out["period_s"] = self.period_s
        if self.minimal_pair is not None:
            out["minimal_pair"] = list(self.minimal_pair)
        if self.minimal_order_m is not None:
            out["minimal_order_m"] = self.minimal_order_m
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TamenessCertificate":
        """Rebuild a certificate; raises TypeError or ValueError when an
        exponent field is not an integer or the pair has not two entries."""
        pair = data.get("minimal_pair")
        if pair is not None:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError("minimal_pair must hold exactly two integers, got %r" % (pair,))
            pair = tuple(_exact_int(v, "minimal_pair entry") for v in pair)
        witness = data.get("witness")
        return cls(
            verdict=data["verdict"],
            kind=data["kind"],
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
    n | s), and the order is the lcm of those n. All roots of such a
    product have modulus 1, so |g(0)| = 1 and |g_i| <= C(deg g, i) filter
    first. Then g is divided once by each Phi_n with phi(n) <= deg g, all
    exact monic integer divisions, and it is such a product exactly when
    the quotient ends at 1. This is trial division, not factorization.
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
    if abs(monic[0]) != 1 or any(abs(c) > math.comb(deg, i) for i, c in enumerate(monic)):
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
    has one, so a squarefree g has exhausted the order bound."""
    if poly_gcd(g, g.derivative()).degree != 0:
        return UntameWitness(
            reason=NON_SQUAREFREE,
            stripped_min_poly=g,
            detail="x-stripped minimal polynomial %s has a repeated factor; "
            "a divisor of the squarefree x^s - 1 cannot" % g,
        )
    s_max = order_bound(d).s_max
    return UntameWitness(
        reason=ORDER_BOUND_EXHAUSTED,
        stripped_min_poly=g,
        s_max=s_max,
        detail="x^s mod %s != 1 for all 1 <= s <= %d, the complete order "
        "bound for dimension %d" % (g, s_max, d),
    )


def _semicascade_certificate(mu: IntPoly, d: int) -> TamenessCertificate:
    """The semicascade certificate of every d x d matrix with minimal
    polynomial mu, before any self-check."""
    k, g, s = _index_and_order(mu, d)
    if s is None:
        return TamenessCertificate(verdict=UNTAME, kind=SEMICASCADE, witness=_untame_witness(g, d))
    return TamenessCertificate(
        verdict=TAME, kind=SEMICASCADE, index_k=k, period_s=s, minimal_pair=(k, k + s)
    )


def decide_semicascade(a: IntMatrix) -> TamenessCertificate:
    """Decide tameness of the iteration semigroup of x -> Ax + b.

    The translation part plays no role: tameness depends only on whether
    the powers of A form a finite semigroup. TAME certificates carry the
    least pair (p, q) = (k, k+s) with A^p = A^q, where k is the
    multiplicity of x in the minimal polynomial and s the order of x
    modulo the x-stripped part; they are re-verified against exact matrix
    powers (the power proof of certificate_check) before being returned.
    """
    return decide_semicascade_batch([a])[0]


def decide_semicascade_batch(matrices: Sequence[IntMatrix]) -> list[TamenessCertificate]:
    """decide_semicascade for each of a batch of d x d matrices, in order.

    The certificate depends on A only through its minimal polynomial mu
    (and d): k, g, s and the UNTAME witness all follow from mu. Each
    matrix gets its own exact mu, and the certificate is derived once per
    distinct mu in the batch; the memo lives for this call only. The
    power proof of a TAME certificate depends on A itself, so it runs on
    every TAME matrix and each verdict stays self-validating.
    """
    if not matrices:
        return []
    d = matrices[0].d
    if any(a.d != d for a in matrices):
        raise ValueError("a batch needs matrices of one dimension")
    by_mu: dict[IntPoly, TamenessCertificate] = {}
    out = []
    for a in matrices:
        mu = min_poly(a)
        cert = by_mu.get(mu)
        if cert is None:
            cert = by_mu[mu] = _semicascade_certificate(mu, d)
        if cert.verdict == TAME and not _has_index_and_period(a, cert.index_k, cert.period_s):
            raise AssertionError("internal error: certificate failed self-check: %r" % (cert,))
        out.append(cert)
    return out


def decide_cascade(a: IntMatrix) -> TamenessCertificate:
    """Decide tameness of the iteration group of an invertible affine map.

    Requires |det A| = 1 (otherwise the inverse is not an integer matrix
    and the cascade is undefined). The cascade is tame exactly when
    A^m = I for some m >= 1, that is when the semicascade has the pair
    (0, m), so the verdict is decide_semicascade's, with its derivation
    and power proof. An UNTAME witness depends only on mu and d and is
    kept; a TAME certificate carries the least order m = s.
    """
    det = abs(a.det())
    if det != 1:
        raise DeterminantNotUnitError("cascade undefined: |det A| = %d, need 1" % det)
    cert = decide_semicascade(a)
    if cert.verdict == UNTAME:
        return replace(cert, kind=CASCADE)
    if cert.index_k != 0:
        # |det A| = 1 keeps x out of the minimal polynomial.
        raise AssertionError("internal error: |det A| = 1 but %r has an index" % (cert,))
    return TamenessCertificate(verdict=TAME, kind=CASCADE, period_s=cert.period_s,
                               minimal_order_m=cert.period_s)


def oracle_semicascade(a: IntMatrix):
    """Brute-force tameness check by exact power enumeration.

    Enumerates A^0, A^1, ..., A^Q with Q = d + s_max(d) and reports the
    first repetition. The bound is complete: a finite power semigroup has
    index at most d (the x-multiplicity of the minimal polynomial) and
    period at most s_max(d), so a repetition, if any, occurs by A^{d+s_max}.
    Returns (verdict, minimal_pair or None).
    """
    limit = a.d + order_bound(a.d).s_max
    seen: dict[tuple, int] = {}
    power = IntMatrix.identity(a.d)
    for n in range(limit + 1):
        key = power.entries
        if key in seen:
            return TAME, (seen[key], n)
        seen[key] = n
        power = mat_mul(power, a)
    return UNTAME, None


_INT64_MAX = 2 ** 63 - 1


def oracle_semicascade_batch(matrices: Sequence[IntMatrix]) -> list:
    """oracle_semicascade for each of a chunk of d x d matrices, in order.

    Let Q = d + s_max(d) and ||A|| the maximum absolute row sum. A matrix
    with ||A||^Q <= 2^63 - 1 (checked on Python ints, before any numpy
    conversion) has A^0..A^Q enumerated in int64 numpy products, and no
    value formed on the way overflows:
      1. No entry of a matrix exceeds its norm, and ||.|| is
         submultiplicative, so every entry of A^k is bounded by
         ||A^k|| <= ||A||^k (and A^0 = I by 1).
      2. Every partial sum of (A^k A)_ij = sum_l (A^k)_il a_lj is bounded
         by the sum of the absolute values of its terms, which is at most
         ||A^k|| * max |a_lj| <= ||A||^k * ||A|| = ||A||^(k+1).
      3. So for k + 1 <= Q every value, in whatever order numpy
         accumulates, is at most max(1, ||A||)^Q <= 2^63 - 1 in absolute
         value: int64 computes the same powers as bigints.
    Every other matrix goes through oracle_semicascade unchanged.

    The int64 powers are stacked as (Q + 1, n, d*d); for each matrix the
    first power index q equal to an earlier index p gives the pair (p, q).
    The powers before the first repetition are distinct, so p is unique.
    """
    results: list = [None] * len(matrices)
    if not matrices:
        return results
    d = matrices[0].d
    if any(a.d != d for a in matrices):
        raise ValueError("a batch needs matrices of one dimension")
    limit = d + order_bound(d).s_max
    fast = []
    for i, a in enumerate(matrices):
        norm = max(sum(map(abs, row)) for row in a.entries)
        if norm ** limit <= _INT64_MAX:
            fast.append(i)
        else:
            results[i] = oracle_semicascade(a)
    if not fast:
        return results

    import numpy as np

    n = len(fast)
    a = np.array([matrices[i].entries for i in fast], dtype=np.int64)
    powers = np.empty((limit + 1, n, d * d), dtype=np.int64)
    powers[0] = np.eye(d, dtype=np.int64).reshape(d * d)
    power = a
    powers[1] = power.reshape(n, d * d)
    for q in range(2, limit + 1):
        power = power @ a
        powers[q] = power.reshape(n, d * d)

    first_p = np.full(n, -1)
    first_q = np.full(n, -1)
    for q in range(1, limit + 1):
        equal = (powers[:q] == powers[q]).all(axis=2)
        hit = (first_q < 0) & equal.any(axis=0)
        first_p[hit] = equal.argmax(axis=0)[hit]
        first_q[hit] = q
    for i, p, q in zip(fast, first_p.tolist(), first_q.tolist()):
        results[i] = (TAME, (p, q)) if q >= 0 else (UNTAME, None)
    return results


def _has_index_and_period(a: IntMatrix, k: int, s: int) -> bool:
    """Whether the powers of A have index exactly k and period exactly s.

    A^k = A^{k+s} holds exactly when k is at least the index and s a
    multiple of the period; the two remaining checks, A^{k-1} != A^{k-1+s}
    if k > 0 and A^{k+s/r} != A^k for every prime r | s, exclude a smaller
    index and every proper divisor of s (see certificate_check).

    Every power comes from one squaring ladder A, A^2, A^4, ..., up to the
    top bit of max(k, s): A^n is the product of the rungs at the set bits
    of n. The equality is proved on whole matrices, as A^s = I when k = 0
    and as A^k A^s = A^k otherwise. Each inequality states M != 0 for
    M = A^{j+t} - A^j, with (j, t) = (k - 1, s) or (k, s/r), and is proved
    by matrix-vector products through the ladder: A^t commutes with A^j,
    so Mv = A^t (A^j v) - A^j v. The vectors tried are (1, ..., d) and
    then the unit vectors e_1, ..., e_d (_witnesses). A v with Mv != 0
    proves M != 0, and M e_i is column i of M, so when every e_i gives 0,
    M = 0 and the inequality fails. Each check therefore decides exactly
    what comparing the whole matrices A^{j+t} and A^j decides, for every
    A, k and s: the accepted (k, s) are those of the whole-matrix proof.
    """
    ladder = [a]
    for _ in range(max(k, s).bit_length() - 1):
        ladder.append(mat_mul(ladder[-1], ladder[-1]))

    def power(n: int) -> IntMatrix:
        return reduce(mat_mul, [rung for i, rung in enumerate(ladder) if n >> i & 1])

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

    period = power(s)
    if k == 0:
        if period != IntMatrix.identity(a.d):
            return False
    else:
        head = power(k)
        if mat_mul(head, period) != head or not moves_some_vector(k - 1, s):
            return False
    return all(moves_some_vector(k, s // r) for r in _prime_divisors(s))


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

    A TAME claim states a pair (p, q): a SEMICASCADE one its minimal_pair,
    with index_k = p and period_s = q - p, and a CASCADE one of order m the
    pair (0, m), with period_s = m, since A^m = I is A^0 = A^m. The claim
    is accepted exactly when 0 <= p < q <= d + s_max(d), (p, q) = (k, k + s)
    and the power proof passes: A^k = A^{k+s}, A^{k-1} != A^{k-1+s} if
    k > 0, and A^{k+s/r} != A^k for every prime r | s. By 1 the power
    proof alone accepts exactly the least pair of a tame A, which by 2 is
    the derived pair and lies within the bound; so the bound, checked
    before mu, and the comparison, made before any power, change no
    verdict. They keep a false claim from raising A, perhaps untame, to a
    power near s_max. The power proof (_has_index_and_period) builds one
    squaring ladder A, A^2, A^4, ... and takes A^s, and A^k, from its
    rungs: at most 2 floor(log2 s) matrix products when k = 0 and
    3 floor(log2 max(k, s)) + 1 otherwise. Its inequalities, one per
    prime of s and one more when k > 0, cost matrix-vector products
    only, at most 2 (d + 1) bit_length(max(k, s)) each, and decide
    exactly what the whole-matrix comparisons decide.

    An UNTAME claim needs a witness and a known kind, and a CASCADE one
    |det A| = 1 (a TAME one implies it through A^m = I). Beyond that it is
    accepted exactly when s is None and the witness re-derives from mu:
    ZERO_EIGENVALUE when k > 0, NON_SQUAREFREE when the claimed g is the
    x-stripped part and has a repeated factor, ORDER_BOUND_EXHAUSTED when
    it is and the claimed s_max is s_max(d). This accepts exactly the
    claims that the exhaustive check (oracle_semicascade reports UNTAME and
    the witness re-derives) accepts: the oracle enumerates A^0..A^{d+s_max}
    and reports UNTAME exactly when they hold no repetition, which by 2 is
    exactly when A is untame, that is when s is None. A re-derived
    NON_SQUAREFREE witness already implies s is None (any divisor of the
    squarefree x^s - 1 is squarefree), and an ORDER_BOUND_EXHAUSTED one
    is the statement itself; only a ZERO_EIGENVALUE one needs s on top.
    For a CASCADE claim the two kinds coincide: |det A| = 1 makes
    A^p = A^q imply A^{q-p} = I, so the cascade is untame exactly when the
    semicascade is. No power of A is computed for an UNTAME claim.

    An ORDER_BOUND_EXHAUSTED witness states x^s mod g != 1 for every
    1 <= s <= s_max, and it holds exactly when order_of_x_mod, which uses
    Kronecker's criterion instead of the residues, returns None: g divides
    x^s - 1 = prod_{n | s} Phi_n exactly when g is prod_{n in S} Phi_n for
    some set S of divisors of s, so the least such s is lcm S, which
    order_of_x_mod returns when it is at most s_max.
    """
    if cert.verdict == TAME:
        pair = _claimed_pair(cert)
        if pair is None or not 0 <= pair[0] < pair[1] <= a.d + order_bound(a.d).s_max:
            return False
        k, _, s = _index_and_order(min_poly(a), a.d)
        return s is not None and pair == (k, k + s) and _has_index_and_period(a, k, s)

    if cert.verdict == UNTAME:
        if cert.witness is None or cert.kind not in (SEMICASCADE, CASCADE):
            return False
        if cert.kind == CASCADE and abs(a.det()) != 1:
            return False
        k, g, s = _index_and_order(min_poly(a), a.d)
        if s is not None:
            return False
        witness = cert.witness
        if witness.reason == ZERO_EIGENVALUE:
            return k > 0
        if witness.stripped_min_poly != g:
            return False
        if witness.reason == NON_SQUAREFREE:
            return poly_gcd(g, g.derivative()).degree != 0
        return witness.reason == ORDER_BOUND_EXHAUSTED and witness.s_max == order_bound(a.d).s_max

    return False


def _claimed_pair(cert: TamenessCertificate) -> tuple[int, int] | None:
    """The pair (p, q) a TAME claim states, (0, m) for a cascade order m;
    None when its fields disagree or its kind is unknown."""
    if cert.kind == SEMICASCADE:
        if cert.minimal_pair is None or cert.witness is not None:
            return None
        p, q = cert.minimal_pair
        if cert.minimal_order_m is not None or cert.index_k != p or cert.period_s != q - p:
            return None
        return p, q
    if cert.kind == CASCADE:
        m = cert.minimal_order_m
        if m is None or cert.period_s != m:
            return None
        if cert.minimal_pair is not None or cert.index_k not in (None, 0):
            return None
        return 0, m
    return None
