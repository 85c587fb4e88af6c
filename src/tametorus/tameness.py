"""Tameness deciders for affine self-maps of the d-torus, with certificates.

A semicascade (iteration semigroup) of x -> Ax + b is tame exactly when
the power semigroup {A^n} is finite, i.e. A^p = A^q for some p < q; a
cascade (iteration group, requiring |det A| = 1) is tame exactly when
A^m = I for some m >= 1. Both conditions are decided here on integer
polynomials, without any polynomial factorization:

  1. compute the minimal polynomial mu of A and split mu = x^k * g,
  2. g must be squarefree (gcd(g, g') constant), otherwise untame,
  3. g must divide x^s - 1 for some s, i.e. x must have finite
     multiplicative order modulo g: by Kronecker, g is then a product of
     distinct cyclotomic polynomials Phi_n, found by exact trial division,
     and the order is their lcm, at most s_max(d),

which yields the least pair (k, k+s) respectively the least order m = s.
A certificate re-checker makes every verdict self-validating; an
independent brute-force oracle (exact power enumeration) backs sweep and
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DeterminantNotUnitError
from .exactalg import (IntMatrix, IntPoly, mat_mul, mat_pow, min_poly, poly_divmod, poly_gcd,
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
    "decide_cascade",
    "oracle_semicascade",
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


def _semicascade_certificate(a: IntMatrix) -> TamenessCertificate:
    mu = min_poly(a)
    k, g = strip_x_factor(mu)
    table = order_bound(a.d)
    if g.degree == 0:
        # Nilpotent linear part: A^k = A^{k+1} = 0; period 1 by convention.
        return TamenessCertificate(
            verdict=TAME,
            kind=SEMICASCADE,
            index_k=k,
            period_s=1,
            minimal_pair=(k, k + 1),
        )
    if poly_gcd(g, g.derivative()).degree != 0:
        witness = UntameWitness(
            reason=NON_SQUAREFREE,
            stripped_min_poly=g,
            detail="x-stripped minimal polynomial %s has a repeated factor; "
            "a divisor of the squarefree x^s - 1 cannot" % g,
        )
        return TamenessCertificate(verdict=UNTAME, kind=SEMICASCADE, witness=witness)
    s = order_of_x_mod(g, table.s_max)
    if s is None:
        witness = UntameWitness(
            reason=ORDER_BOUND_EXHAUSTED,
            stripped_min_poly=g,
            s_max=table.s_max,
            detail="x^s mod %s != 1 for all 1 <= s <= %d, the complete order "
            "bound for dimension %d" % (g, table.s_max, a.d),
        )
        return TamenessCertificate(verdict=UNTAME, kind=SEMICASCADE, witness=witness)
    return TamenessCertificate(
        verdict=TAME,
        kind=SEMICASCADE,
        index_k=k,
        period_s=s,
        minimal_pair=(k, k + s),
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
    cert = _semicascade_certificate(a)
    if cert.verdict == TAME and not _has_index_and_period(a, cert.index_k, cert.period_s):
        raise AssertionError("internal error: certificate failed self-check: %r" % (cert,))
    return cert


def decide_cascade(a: IntMatrix) -> TamenessCertificate:
    """Decide tameness of the iteration group of an invertible affine map.

    Requires |det A| = 1 (otherwise the inverse is not an integer matrix
    and the cascade is undefined). TAME certificates carry the least
    m >= 1 with A^m = I.
    """
    det = abs(a.det())
    if det != 1:
        raise DeterminantNotUnitError("cascade undefined: |det A| = %d, need 1" % det)
    semi = _semicascade_certificate(a)
    if semi.verdict == UNTAME:
        return TamenessCertificate(verdict=UNTAME, kind=CASCADE, witness=semi.witness)
    # |det A| = 1, so x does not divide the minimal polynomial and the
    # index is 0; the self-check below would catch a violation.
    cert = TamenessCertificate(
        verdict=TAME,
        kind=CASCADE,
        period_s=semi.period_s,
        minimal_order_m=semi.period_s,
    )
    if not _has_index_and_period(a, 0, cert.minimal_order_m):
        raise AssertionError("internal error: certificate failed self-check: %r" % (cert,))
    return cert


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


def _has_index_and_period(a: IntMatrix, k: int, s: int) -> bool:
    """Whether the powers of A have index exactly k and period exactly s.

    A^k = A^{k+s} holds exactly when k is at least the index and s a
    multiple of the period; the two remaining checks exclude a smaller
    index and every proper divisor of s (see certificate_check).
    """
    head = mat_pow(a, k)
    if mat_pow(a, k + s) != head:
        return False
    if k > 0 and mat_pow(a, k - 1 + s) == mat_pow(a, k - 1):
        return False
    return all(mat_pow(a, k + s // r) != head for r in _prime_divisors(s))


def certificate_check(a: IntMatrix, cert: TamenessCertificate) -> bool:
    """Re-verify every claim in a certificate by exact computation.

    A TAME claim is proved by the cyclic-monoid argument: the powers of A
    have a unique index k and period s (A^i = A^j for i < j exactly when
    i >= k and s | j - i), and the least pair (p, q) with A^p = A^q is
    (k, k + s). A semicascade pair (k, k + s) therefore holds and is
    minimal exactly when A^k = A^{k+s}, A^{k-1} != A^{k-1+s} if k > 0, and
    A^{k+s/r} != A^k for every prime r | s; a cascade order m exactly when
    A^m = I and A^{m/r} != I for every prime r | m. Each power comes from
    binary exponentiation, so a claim costs O(log q) matrix products per
    prime of s instead of q products and a quadratic scan.

    A finite power semigroup has index at most d and period at most
    s_max(d), so a claim with q > d + s_max(d), or m > s_max(d), is
    rejected before any power is computed. So is a claim on an untame A
    (x has no order <= s_max(d) modulo g, step 2 below): the power proof
    accepts only a tame A, so this changes no verdict, but it keeps a
    false claim from raising an untame A to a power near s_max.

    An UNTAME claim needs a witness and a known kind, and a CASCADE one
    |det A| = 1 (a TAME one implies it through A^m = I). Beyond that it is
    accepted exactly when the witness re-derives from mu = x^k * g (g(0)
    != 0) and x has no order <= s_max(d) modulo g. This accepts exactly
    the claims that the exhaustive check (oracle_semicascade reports
    UNTAME and the witness re-derives) accepts:
      1. The oracle reports UNTAME exactly when A^0..A^{d+s_max} hold no
         repetition, exactly when A is untame: a finite power semigroup
         has index at most d and period at most s_max(d), so its first
         repetition lies within that range.
      2. A is untame exactly when x has no order <= s_max modulo g. If
         A^k' = A^{k'+s}, mu divides x^k' (x^s - 1), so g, being coprime
         to x, divides x^s - 1 and x has order at most s modulo g; that
         order is at most s_max(d), since a squarefree divisor of x^s - 1
         of degree <= d is a product of distinct Phi_n with sum phi(n) <= d
         (OrderBoundTable). Conversely, if g divides x^s - 1, mu divides
         x^k (x^s - 1) and A^k = A^{k+s}.
      3. So the two accept sets agree on every claim.
    A re-derived NON_SQUAREFREE witness already rules out an order (any
    divisor of the squarefree x^s - 1 is squarefree), and a re-derived
    ORDER_BOUND_EXHAUSTED witness is the statement itself; only a
    ZERO_EIGENVALUE witness (k > 0) needs the order search on top. For a
    CASCADE claim the two kinds coincide: |det A| = 1 makes A^p = A^q
    imply A^{q-p} = I, so the cascade is untame exactly when the
    semicascade is. No power of A is computed for an UNTAME claim.

    An ORDER_BOUND_EXHAUSTED witness states x^s mod g != 1 for every
    1 <= s <= s_max, and it holds exactly when order_of_x_mod, which uses
    Kronecker's criterion instead of the residues, returns None: g divides
    x^s - 1 = prod_{n | s} Phi_n (distinct irreducibles) exactly when g is
    prod_{n in S} Phi_n for some set S of divisors of s, so the least such
    s is lcm S, which order_of_x_mod returns when it is at most s_max.
    """
    if cert.verdict == TAME and cert.kind == SEMICASCADE:
        if cert.minimal_pair is None or cert.witness is not None:
            return False
        if cert.minimal_order_m is not None:
            return False
        p, q = cert.minimal_pair
        if not (0 <= p < q):
            return False
        if cert.index_k != p or cert.period_s != q - p:
            return False
        if q > a.d + order_bound(a.d).s_max:
            return False
        return _is_tame(a) and _has_index_and_period(a, p, q - p)

    if cert.verdict == TAME and cert.kind == CASCADE:
        m = cert.minimal_order_m
        if m is None or m < 1 or cert.period_s != m:
            return False
        if cert.minimal_pair is not None or cert.index_k not in (None, 0):
            return False
        if m > order_bound(a.d).s_max:
            return False
        return _is_tame(a) and _has_index_and_period(a, 0, m)

    if cert.verdict == UNTAME:
        if cert.witness is None or cert.kind not in (SEMICASCADE, CASCADE):
            return False
        if cert.kind == CASCADE and abs(a.det()) != 1:
            return False
        return _untame_witness_check(a, cert.witness)

    return False


def _is_tame(a: IntMatrix) -> bool:
    """Whether x has an order <= s_max(d) modulo the x-stripped minimal
    polynomial g, i.e. whether A is tame (see certificate_check)."""
    g = strip_x_factor(min_poly(a))[1]
    return order_of_x_mod(g, order_bound(a.d).s_max) is not None


def _untame_witness_check(a: IntMatrix, witness: UntameWitness) -> bool:
    """Whether the witness re-derives from mu and A is untame.

    A is untame exactly when x has no order <= s_max modulo g (see
    certificate_check). A NON_SQUAREFREE or ORDER_BOUND_EXHAUSTED witness
    that re-derives implies that already; a ZERO_EIGENVALUE one does not.
    """
    k, g = strip_x_factor(min_poly(a))
    s_max = order_bound(a.d).s_max
    if witness.reason == ZERO_EIGENVALUE:
        return k > 0 and order_of_x_mod(g, s_max) is None
    if witness.stripped_min_poly != g:
        return False
    if witness.reason == NON_SQUAREFREE:
        return poly_gcd(g, g.derivative()).degree != 0
    if witness.reason == ORDER_BOUND_EXHAUSTED:
        return witness.s_max == s_max and order_of_x_mod(g, s_max) is None
    return False
