"""Exact integer matrix and rational polynomial algebra.

Matrices and the minimal polynomial are computed over Python ints;
RatPoly and its divmod/gcd use fractions.Fraction. No operation ever
rounds. Arbitrary precision is mandatory, not a nicety: powers of
expanding integer matrices grow geometrically (hyperbolic 2x2 matrices
produce golden-ratio-like entry growth) and overflow fixed-width
integers within a few dozen steps.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import DimensionMismatchError

__all__ = [
    "IntMatrix",
    "RatPoly",
    "mat_mul",
    "mat_pow",
    "min_poly",
    "poly_gcd",
    "poly_divmod",
    "strip_x_factor",
]


class IntMatrix:
    """Immutable square matrix with arbitrary-precision integer entries."""

    __slots__ = ("d", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(operator.index(e) for e in row) for row in entries)
        if not rows:
            raise ValueError("dimension must be at least 1")
        if any(len(row) != len(rows) for row in rows):
            raise DimensionMismatchError(
                "expected a square matrix, got row lengths %s for %d rows"
                % ([len(r) for r in rows], len(rows))
            )
        self.d = len(rows)
        self.entries = rows

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap a nonempty square tuple of int tuples without validating it."""
        m = object.__new__(cls)
        m.d = len(rows)
        m.entries = rows
        return m

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    @classmethod
    def zero(cls, d: int) -> "IntMatrix":
        return cls([[0] * d for _ in range(d)])

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.d))

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination (exact)."""
        n = self.d
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # Bareiss update: division by the previous pivot is exact.
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def apply(self, vector) -> tuple[int, ...]:
        """Exact matrix-vector product over the integers."""
        v = tuple(operator.index(x) for x in vector)
        if len(v) != self.d:
            raise DimensionMismatchError(
                "vector of length %d does not match dimension %d" % (len(v), self.d)
            )
        return tuple(sum(row[j] * v[j] for j in range(self.d)) for row in self.entries)

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.d)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            return mat_mul(self, other)
        return NotImplemented

    def __pow__(self, n):
        return mat_pow(self, n)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "IntMatrix(%s)" % (self.to_lists(),)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product of two square integer matrices of equal dimension."""
    if a.d != b.d:
        raise DimensionMismatchError("cannot multiply %dx%d by %dx%d" % (a.d, a.d, b.d, b.d))
    cols = tuple(zip(*b.entries))
    return IntMatrix._trusted(
        tuple(tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a.entries)
    )


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    """Exact n-th power by binary exponentiation; a**0 is the identity."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("exponent must be nonnegative, got %d" % n)
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return IntMatrix.identity(a.d) if result is None else result


class RatPoly:
    """Univariate polynomial with exact rational coefficients.

    Coefficients are stored in ascending degree order with no trailing
    zeros. The zero polynomial has an empty coefficient tuple and its
    ``degree`` is None (a sentinel, never a number).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls([])

    @classmethod
    def one(cls) -> "RatPoly":
        return cls([1])

    @classmethod
    def x_power(cls, k: int, coeff=1) -> "RatPoly":
        return cls([0] * k + [coeff])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        return RatPoly([c / lead for c in self.coeffs])

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def has_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def int_coeffs(self) -> tuple[int, ...]:
        if not self.has_integer_coeffs():
            raise ValueError("polynomial has non-integer coefficients: %r" % (self,))
        return tuple(int(c) for c in self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner's rule (exact for Fraction/int arguments)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __sub__(self, other):
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        if not isinstance(other, RatPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "RatPoly(%s)" % (list(self.coeffs),)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                term = str(mag)
            else:
                xpart = "x" if power == 1 else "x^%d" % power
                term = xpart if mag == 1 else "%s*%s" % (mag, xpart)
            if not parts:
                parts.append(term if sign == "+" else "-" + term)
            else:
                parts.append("%s %s" % (sign, term))
        return " ".join(parts)


def poly_divmod(f: RatPoly, g: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Exact division with remainder: f = q*g + r, deg r < deg g."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if f.is_zero or f.degree < g.degree:
        return RatPoly.zero(), f
    rem = list(f.coeffs)
    gcs = g.coeffs
    dg = len(gcs) - 1
    lead = gcs[-1]
    quot = [Fraction(0)] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = c / lead
        quot[i - dg] = q
        for j in range(dg + 1):
            rem[i - dg + j] -= q * gcs[j]
    return RatPoly(quot), RatPoly(rem)


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    while not g.is_zero:
        f, g = g, poly_divmod(f, g)[1]
    return f.monic()


def strip_x_factor(f: RatPoly) -> tuple[int, RatPoly]:
    """Write f = x^k * g with g(0) != 0 and k maximal; return (k, g)."""
    if f.is_zero:
        raise ValueError("cannot strip x factors from the zero polynomial")
    k = 0
    while f.coeffs[k] == 0:
        k += 1
    return k, RatPoly(f.coeffs[k:])


def min_poly(a: IntMatrix) -> RatPoly:
    """Monic minimal polynomial of an integer matrix.

    mu is the first linear dependency among vec(A^0), vec(A^1), ..., which
    Cayley-Hamilton guarantees by vec(A^d). Each new power is reduced
    against the stored independent ones by fraction-free elimination
    (Bareiss 1968): cross-multiply by the stored pivot, carry the same
    combination of powers along, and divide the reduced vector and its
    combination by their common gcd, so everything stays in integers.
    The first power that reduces to zero gives c_0 I + ... + c_k A^k = 0
    with c_k != 0. Since I, ..., A^{k-1} are independent this relation is
    c_k * mu, and mu is monic and integral, so dividing by c_k is exact.
    No factorization is ever performed.
    """
    d = a.d
    # (pivot index, reduced vec(A^i), its combination of I, A, ..., A^d)
    rows: list[tuple[int, list[int], list[int]]] = []
    power = IntMatrix.identity(d)
    for k in range(d + 1):
        vec = [x for row in power.entries for x in row]
        comb = [0] * (d + 1)
        comb[k] = 1
        for pivot, rvec, rcomb in rows:
            c = vec[pivot]
            if c:
                p = rvec[pivot]
                vec = [p * x - c * y for x, y in zip(vec, rvec)]
                comb = [p * x - c * y for x, y in zip(comb, rcomb)]
        if not any(vec):
            lead = comb[k]
            if any(c % lead for c in comb):
                raise ArithmeticError(
                    "dependency %s of the powers of %r is not a multiple of a "
                    "monic integer polynomial" % (comb, a)
                )
            return RatPoly([c // lead for c in comb])
        content = math.gcd(*vec, *comb)
        vec = [x // content for x in vec]
        comb = [x // content for x in comb]
        rows.append((next(i for i, x in enumerate(vec) if x), vec, comb))
        power = mat_mul(power, a)
    raise ArithmeticError("no dependency among I, A, ..., A^d of %r" % (a,))
