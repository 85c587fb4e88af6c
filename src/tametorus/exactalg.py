"""Exact integer matrix and polynomial algebra.

Matrices, polynomials and the minimal polynomial all live over Python
ints: IntPoly has integer coefficients, poly_gcd runs a primitive
pseudo-remainder sequence and poly_divmod divides only by monic
polynomials, so no quotient leaves the integers and no operation ever
rounds. Arbitrary precision is mandatory, not a nicety: powers of
expanding integer matrices grow geometrically (hyperbolic 2x2 matrices
produce golden-ratio-like entry growth) and overflow fixed-width
integers within a few dozen steps.
"""

from __future__ import annotations

import math
import operator
import sys

from .errors import CapExceededError, DimensionMismatchError

__all__ = [
    "IntMatrix",
    "IntPoly",
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

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

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


class IntPoly:
    """Univariate polynomial with integer coefficients.

    Coefficients are stored in ascending degree order with no trailing
    zeros. The zero polynomial has an empty coefficient tuple and its
    ``degree`` is None (a sentinel, never a number).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls([])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def int_coeffs(self) -> tuple[int, ...]:
        return self.coeffs

    def __mul__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "IntPoly(%s)" % (list(self.coeffs),)

    def __str__(self):
        """Render as "x^2 - 2*x + 1"; a coefficient beyond CPython's
        int-to-str digit limit raises CapExceededError."""
        if self.is_zero:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            try:
                mag = str(abs(c))
            except ValueError as exc:
                raise CapExceededError(
                    "polynomial coefficient beyond the %d-digit limit of int-to-str conversion"
                    % sys.get_int_max_str_digits()
                ) from exc
            if power == 0:
                term = mag
            else:
                xpart = "x" if power == 1 else "x^%d" % power
                term = xpart if mag == "1" else "%s*%s" % (mag, xpart)
            if not parts:
                parts.append(term if sign == "+" else "-" + term)
            else:
                parts.append("%s %s" % (sign, term))
        return " ".join(parts)


def poly_divmod(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Division with remainder by a monic g: f = q*g + r, deg r < deg g.

    A monic divisor keeps q and r integral, so no rational arithmetic
    is needed.
    """
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if not g.is_monic:
        raise ValueError("divisor %s is not monic" % g)
    rem = list(f.coeffs)
    gcs = g.coeffs
    dg = len(gcs) - 1
    quot = [0] * max(len(rem) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        q = rem[i]
        if q:
            quot[i - dg] = q
            for j, c in enumerate(gcs):
                rem[i - dg + j] -= q * c
    return IntPoly(quot), IntPoly(rem)


def _primitive(cs) -> list[int]:
    """The coefficients of a nonzero polynomial over their content, with
    the sign that makes the leading one positive."""
    content = math.gcd(*cs)
    if cs[-1] < 0:
        content = -content
    return [c // content for c in cs]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lead(b)^e * a mod b for some e >= 0, without trailing zeros."""
    r = list(a)
    while len(r) >= len(b):
        c, shift = r[-1], len(r) - len(b)
        if c % b[-1]:
            r = [b[-1] * x for x in r]
        else:
            c //= b[-1]
        for j, y in enumerate(b):
            r[shift + j] -= c * y
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive greatest common divisor, with a positive leading coefficient.

    The primitive pseudo-remainder sequence: each remainder is scaled to
    stay integral, then divided by its content. Nonzero integer factors
    change no common divisor over Q, so the result is the gcd over Q made
    primitive, and it is 1 exactly when f and g are coprime over Q.
    """
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    a = _primitive(a)
    while b:
        b = _primitive(b)
        a, b = b, _pseudo_remainder(a, b)
    return IntPoly(a)


def strip_x_factor(f: IntPoly) -> tuple[int, IntPoly]:
    """Write f = x^k * g with g(0) != 0 and k maximal; return (k, g)."""
    if f.is_zero:
        raise ValueError("cannot strip x factors from the zero polynomial")
    k = 0
    while f.coeffs[k] == 0:
        k += 1
    return k, IntPoly(f.coeffs[k:])


def min_poly(a: IntMatrix) -> IntPoly:
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
            return IntPoly([c // lead for c in comb])
        content = math.gcd(*vec, *comb)
        vec = [x // content for x in vec]
        comb = [x // content for x in comb]
        rows.append((next(i for i, x in enumerate(vec) if x), vec, comb))
        power = mat_mul(power, a)
    raise ArithmeticError("no dependency among I, A, ..., A^d of %r" % (a,))
