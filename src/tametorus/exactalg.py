"""Exact integer matrix and polynomial algebra.

Matrices, polynomials and the minimal polynomial all live over Python
ints: IntPoly has integer coefficients, poly_gcd runs a primitive
pseudo-remainder sequence and poly_divmod divides only by monic
polynomials, so no quotient leaves the integers and no operation ever
rounds. Arbitrary precision is mandatory, not a nicety: powers of
expanding integer matrices grow geometrically (hyperbolic 2x2 matrices
produce golden-ratio-like entry growth) and overflow fixed-width
integers within a few dozen steps.

Fixed width still pays where a proof bounds it. mat_mul multiplies in
signed 64-bit slots whenever max(1, ||A||) * max(1, ||B||) <= 2^63 - 1,
with ||.|| the maximum absolute row sum: each row of B is packed into one
Python int, 64 bits per entry, and each row of AB is one sum of bigint
products, read back slot by slot. The bound proves that every slot holds
its entry exactly (the lemma is in mat_mul's docstring), so the packed
product equals the entrywise one. Beyond the bound the entrywise loop
runs, where nothing can overflow.
"""

from __future__ import annotations

import functools
import math
import operator
import struct

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

    # Two caches of mat_mul's, None until filled: _row_norm is ||M||
    # (_norm), and _packed the rows packed into 64-bit slots, which the
    # packed kernel keeps on each product it makes.
    __slots__ = ("d", "entries", "_row_norm", "_packed")

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
        self._row_norm = self._packed = None

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap a nonempty square tuple of int tuples without validating it."""
        m = object.__new__(cls)
        m.d = len(rows)
        m.entries = rows
        m._row_norm = m._packed = None
        return m

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)])

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
        return tuple([sum(map(operator.mul, row, v)) for row in self.entries])

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "IntMatrix(%s)" % (self.to_lists(),)


# The largest value of a signed 64-bit integer.
_INT64_MAX = 2 ** 63 - 1
# One little-endian 64-bit slot with only its top bit set.
_SLOT_BIAS = (1 << 63).to_bytes(8, "little")


def _norm(m: IntMatrix) -> int:
    """||M||, the maximum absolute row sum, computed once per matrix: it
    bounds every entry of M and is submultiplicative."""
    if m._row_norm is None:
        m._row_norm = max(sum(map(abs, row)) for row in m.entries)
    return m._row_norm


@functools.cache
def _slot_layout(d: int) -> tuple[struct.Struct, int]:
    """The layout of a row of d signed 64-bit little-endian slots, and its
    bias sum_j 2^(64 j + 63)."""
    return struct.Struct("<%dq" % d), int.from_bytes(_SLOT_BIAS * d, "little")


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product of two square integer matrices of equal dimension.

    When max(1, ||A||) * max(1, ||B||) <= 2^63 - 1 (||.|| the maximum
    absolute row sum, _norm), the product runs in packed 64-bit slots;
    otherwise entry by entry over Python ints. Both give the same matrix:

    Lemma. Let M = max(1, ||A||) * max(1, ||B||) <= 2^63 - 1, and pack row
    l of B as the integer P_l = sum_j b_lj 2^(64 j). Then row i of AB is
    read exactly from N_i = sum_l a_il P_l.
      1. Every |b_lj| <= ||B|| <= M, and every entry of AB obeys
         |c_ij| <= sum_l |a_il| |b_lj| <= ||A|| max_l |b_lj| <= ||A|| ||B||
         <= M. So every b_lj and c_ij lies in [-(2^63 - 1), 2^63 - 1], the
         range of a two's-complement 64-bit slot. (Without the max(1, .)
         a zero A would admit a B of any size, whose rows cannot pack.)
      2. N_i = sum_j c_ij 2^(64 j) is an identity of integers (substitute
         x = 2^64 in the row polynomials, Kronecker substitution); the
         sum of bigint products is exact in whatever order it runs.
      3. With the bias beta = sum_j 2^(64 j + 63), N_i + beta =
         sum_j (c_ij + 2^63) 2^(64 j), and every digit c_ij + 2^63 lies in
         [1, 2^64 - 1] by 1. So these are the base-2^64 digits of
         N_i + beta: no slot carries into the next, and 0 <= N_i + beta <
         2^(64 d) fits 8 d bytes.
      4. XOR with beta flips bit 63 of each digit and turns c + 2^63 into
         c mod 2^64, the two's-complement slot of c, which struct reads
         back as the signed c. Packing is the same map run backwards:
         struct writes b mod 2^64 into each slot, the XOR with beta turns
         it into b + 2^63, and subtracting beta leaves P_l.
    N_i is also row i of AB packed, so the product keeps N_1, ..., N_d and
    a later product with AB on the right packs nothing (a squaring
    ladder's next rung). Beyond the bound the entrywise loop below runs,
    where nothing can overflow.
    """
    if a.d != b.d:
        raise DimensionMismatchError("cannot multiply %dx%d by %dx%d" % (a.d, a.d, b.d, b.d))
    if max(1, _norm(a)) * max(1, _norm(b)) > _INT64_MAX:
        cols = tuple(zip(*b.entries))
        return IntMatrix._trusted(
            tuple(tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a.entries)
        )
    slots, bias = _slot_layout(a.d)
    packed = b._packed or [(int.from_bytes(slots.pack(*row), "little") ^ bias) - bias
                           for row in b.entries]
    rows = [sum(map(operator.mul, row, packed)) for row in a.entries]
    product = IntMatrix._trusted(tuple([
        slots.unpack(((n + bias) ^ bias).to_bytes(slots.size, "little")) for n in rows]))
    product._packed = rows
    return product


def _ladder(a: IntMatrix, top: int) -> list[IntMatrix]:
    """The squaring ladder A, A^2, A^4, ..., up to the top bit of top; for
    top <= 1 it is A alone."""
    rungs = [a]
    for _ in range(top.bit_length() - 1):
        rungs.append(mat_mul(rungs[-1], rungs[-1]))
    return rungs


def _power(rungs: list[IntMatrix], n: int) -> IntMatrix:
    """A^n for 0 <= n < 2^len(rungs): the product of the rungs of A's
    ladder at the set bits of n, lowest bit first; A^0 is the empty
    product, the identity."""
    factors = [rung for i, rung in enumerate(rungs) if n >> i & 1]
    return functools.reduce(mat_mul, factors) if factors else IntMatrix.identity(rungs[0].d)


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    """Exact n-th power by binary exponentiation: the product of the rungs
    of the squaring ladder at the set bits of n (_power): a**0 is the
    identity, built with no product, and a**n for n >= 1 costs
    floor(log2 n) + popcount(n) - 1 products."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("exponent must be nonnegative, got %d" % n)
    return _power(_ladder(a, n), n)


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
                raise CapExceededError.digit_limit("polynomial coefficient") from exc
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


def _first_dependency(vectors, n: int) -> IntPoly:
    """The monic c of least degree with c_0 u_0 + ... + c_k u_k = 0, where
    u_0, u_1, ... are the first vectors of an iterable of integer vectors.

    Each u_k enters as one augmented row: u_k, then its combination e_k of
    u_0, ..., u_{n-1}. The row is reduced against the stored rows by
    fraction-free elimination (Bareiss 1968): cross-multiply by a stored
    row's pivot, so the vector part and the combination part change as one
    list and everything stays in integers. The pivot is the row's first
    nonzero entry. The combination part is never zero, since its entry k
    is a product of nonzero pivots, so the pivot falls in the combination
    part exactly when the vector part has reduced to zero. That row gives a
    relation with c_k != 0, and dividing by c_k makes it monic. The callers
    pass sequences whose least relation is a monic integer polynomial, so
    that division is exact; a remainder raises ArithmeticError. Any other
    row is divided by its content and stored with its pivot, which lies in
    the vector part. The first n vectors must be dependent.
    """
    rows: list[tuple[int, list[int]]] = []  # (pivot index, reduced augmented row)
    for k, vec in zip(range(n), vectors):
        m = len(vec)
        row = [*vec, *[0] * k, 1, *[0] * (n - k - 1)]
        for pivot, stored in rows:
            c = row[pivot]
            if c:
                p = stored[pivot]
                row = [p * x - c * y for x, y in zip(row, stored)]
        pivot = next(i for i, x in enumerate(row) if x)
        if pivot >= m:
            comb, lead = row[m:], row[m + k]
            if any(c % lead for c in comb):
                raise ArithmeticError(
                    "dependency %s is not a multiple of a monic integer polynomial" % (comb,)
                )
            return IntPoly([c // lead for c in comb])
        content = math.gcd(*row)
        rows.append((pivot, [x // content for x in row]))
    raise ArithmeticError("no dependency among the first %d vectors" % n)


def _witnesses(d: int):
    """(1, ..., d), then the unit vectors e_1, ..., e_d: the start vectors
    of min_poly's Krylov sequences and the vectors the power proof tries.

    Small entries keep the elimination's integers short: at d = 30 and 36
    the start vector (1, 2, 4, ..., 2^(d-1)) made the search 2.5 to 3
    times slower.
    """
    yield tuple(range(1, d + 1))
    for j in range(d):
        yield tuple(int(i == j) for i in range(d))


def _krylov_vectors(a: IntMatrix, vec):
    """vec, A vec, A^2 vec, ..."""
    while True:
        yield vec
        vec = [sum(map(operator.mul, row, vec)) for row in a.entries]


def min_poly(a: IntMatrix) -> IntPoly:
    """Monic minimal polynomial mu of an integer matrix, by exact Krylov
    elimination on d-vectors, with no factorization and no matrix product.

    mu_u, the least monic polynomial with mu_u(A) u = 0, generates the
    ideal of the f with f(A) u = 0, so it divides mu. The loop keeps a
    monic divisor P of mu, from P = 1, and for u = (1, ..., d), e_1, ...,
    e_d in turn (_witnesses) forms w = P(A) u by Horner's rule, deg P
    matrix-vector products. If w != 0, P becomes P * mu_w, mu_w the first
    dependency of w, Aw, A^2 w, ... (_first_dependency):
      * f(A) w = 0 exactly when mu_u divides f P, so mu_w = mu_u /
        gcd(mu_u, P) and P * mu_w = lcm(P, mu_u) still divides mu; the
        first d + 1 - deg P vectors of w's sequence are dependent.
      * Each mu_w divides the monic integer mu, so by Gauss's lemma it is
        integral, and dividing the dependency by its lead is exact.
      * At the end P(A) e_i = 0 for every i, so P(A) = 0 and P = mu.
      * deg mu <= d (Cayley-Hamilton), so deg P = d stops the loop early;
        a cyclic v = (1, ..., d) stops it after the first step.
    """
    d = a.d
    mu = IntPoly([1])
    for u in _witnesses(d):
        w = u
        for c in reversed(mu.coeffs[:-1]):
            w = [sum(map(operator.mul, row, w)) + c * x for row, x in zip(a.entries, u)]
        if any(w):
            mu = mu * _first_dependency(_krylov_vectors(a, w), d + 1 - mu.degree)
            if mu.degree == d:
                break
    return mu
