import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tametorus import (
    DimensionMismatchError,
    IntMatrix,
    IntPoly,
    mat_mul,
    mat_pow,
    min_poly,
    poly_divmod,
    poly_gcd,
    strip_x_factor,
)
import tametorus.exactalg
from tametorus.exactalg import _first_dependency, _krylov_vectors


def square_matrices(max_d=4, lo=-3, hi=3):
    return st.integers(1, max_d).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(lo, hi), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        )
    ).map(IntMatrix)


def _char_poly(a):
    """Monic characteristic polynomial by the Faddeev-LeVerrier recurrence.

    A reference independent of min_poly: M_k = A M_{k-1} + c_{d-k+1} I and
    c_{d-k} = -tr(A M_k) / k, where every division is exact over the
    integers.
    """
    d = a.d
    coeffs = [0] * d + [1]
    m = IntMatrix([[0] * d] * d)
    for k in range(1, d + 1):
        m = mat_mul(a, m)
        ck = coeffs[d - k + 1]
        m = IntMatrix([[x + (ck if i == j else 0) for j, x in enumerate(row)]
                       for i, row in enumerate(m.entries)])
        trace = sum(row[i] for i, row in enumerate(mat_mul(a, m).entries))
        assert trace % k == 0
        coeffs[d - k] = -trace // k
    return IntPoly(coeffs)


def _eval_at_matrix(f, a):
    """sum c_i A^i over the integers, for a polynomial with integer coefficients."""
    total = [[0] * a.d for _ in range(a.d)]
    for i, c in enumerate(f.int_coeffs()):
        for row, prow in zip(total, mat_pow(a, i).entries):
            for j, x in enumerate(prow):
                row[j] += c * x
    return IntMatrix(total)


class TestIntMatrix:
    def test_identity_product(self):
        i2 = IntMatrix.identity(2)
        assert mat_mul(i2, i2) == i2

    def test_rotation_square(self):
        rot = IntMatrix([[0, -1], [1, 0]])
        assert mat_mul(rot, rot) == IntMatrix([[-1, 0], [0, -1]])

    def test_shear_product(self):
        shear = IntMatrix([[1, 1], [0, 1]])
        assert mat_mul(shear, shear) == IntMatrix([[1, 2], [0, 1]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mat_mul(IntMatrix.identity(2), IntMatrix.identity(3))
        with pytest.raises(DimensionMismatchError):
            IntMatrix([[1, 2], [3]])

    def test_pow_zero_is_identity(self):
        for a in (IntMatrix([[2, 1], [1, 1]]), IntMatrix([[0] * 3] * 3), IntMatrix([[5]])):
            assert mat_pow(a, 0) == IntMatrix.identity(a.d)

    def test_pow_shear(self):
        assert mat_pow(IntMatrix([[1, 1], [0, 1]]), 5) == IntMatrix([[1, 5], [0, 1]])

    def test_pow_catmap(self):
        assert mat_pow(IntMatrix([[2, 1], [1, 1]]), 3) == IntMatrix([[13, 8], [8, 5]])

    @pytest.mark.parametrize("a", [
        IntMatrix([[2, 1], [1, 1]]),                    # hyperbolic
        IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),   # nilpotent
        IntMatrix([[0, -1], [1, 1]]),                   # rotation of order 6
    ])
    def test_pow_equals_repeated_product(self, a, monkeypatch):
        products = [IntMatrix.identity(a.d)]
        for _ in range(64):
            products.append(mat_mul(products[-1], a))
        calls = []
        real_mul = tametorus.exactalg.mat_mul

        def counting_mul(x, y):
            calls.append(1)
            return real_mul(x, y)

        monkeypatch.setattr(tametorus.exactalg, "mat_mul", counting_mul)
        for n, expected in enumerate(products):
            calls.clear()
            assert mat_pow(a, n) == expected, n
            # one squaring per bit below the top one, one product per further set bit
            assert len(calls) == max(n.bit_length() - 1, 0) + max(bin(n).count("1") - 1, 0)

    def test_power_takes_every_exponent_below_the_ladder_from_its_rungs(self, monkeypatch):
        # one ladder A, ..., A^32 serves every exponent 0..63, A^0 = I the empty product
        a = IntMatrix([[2, 1], [1, 1]])
        rungs = tametorus.exactalg._ladder(a, 40)
        assert len(rungs) == 6
        expected = IntMatrix.identity(2)
        calls = []
        real_mul = tametorus.exactalg.mat_mul

        def counting_mul(x, y):
            calls.append(1)
            return real_mul(x, y)

        monkeypatch.setattr(tametorus.exactalg, "mat_mul", counting_mul)
        for n in range(64):
            calls.clear()
            assert tametorus.exactalg._power(rungs, n) == expected, n
            assert len(calls) == max(bin(n).count("1") - 1, 0), n
            expected = real_mul(expected, a)

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(IntMatrix.identity(2), -1)

    def test_entries_stay_exact_for_large_powers(self):
        # hyperbolic growth blows through 64 bits quickly
        big = mat_pow(IntMatrix([[2, 1], [1, 1]]), 200)
        assert big.entries[0][0] > 2 ** 190

    def test_det(self):
        assert IntMatrix([[2, 1], [1, 1]]).det() == 1
        assert IntMatrix([[1, 0], [0, 0]]).det() == 0
        assert IntMatrix([[0, -1], [1, 0]]).det() == 1
        assert IntMatrix([[3]]).det() == 3
        assert IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]]).det() == -3

    @settings(max_examples=60)
    @given(square_matrices(max_d=3), st.integers(0, 5), st.integers(0, 5))
    def test_pow_addition_law(self, a, m, n):
        assert mat_pow(a, m + n) == mat_mul(mat_pow(a, m), mat_pow(a, n))

    @settings(max_examples=40)
    @given(square_matrices(max_d=4))
    def test_det_equals_charpoly_constant(self, a):
        # two independent exact routes to the determinant
        poly = _char_poly(a)
        assert a.det() == (-1) ** a.d * poly.coeffs[0]


def _reference_product(a, b):
    """AB by the plain triple loop over Python ints, for lists of rows."""
    d = len(a)
    return [[sum(a[i][l] * b[l][j] for l in range(d)) for j in range(d)] for i in range(d)]


def _rows_up_to_bits(d):
    """d x d lists of rows whose entries have at most some bit length 0..70."""
    return st.integers(0, 70).flatmap(lambda bits: st.lists(
        st.lists(st.integers(-2 ** bits, 2 ** bits), min_size=d, max_size=d),
        min_size=d, max_size=d))


INT64_MAX = 2 ** 63 - 1
SEVENTH = INT64_MAX // 7   # 2^63 - 1 = 7 * SEVENTH


class TestPackedProduct:
    """mat_mul's packed 64-bit-slot kernel, which runs exactly when
    max(1, ||A||) * max(1, ||B||) <= 2^63 - 1 and keeps the product's
    packed rows (_packed), against the plain loop."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(_rows_up_to_bits(d),
                                                         _rows_up_to_bits(d))))
    def test_equals_the_reference_loop(self, pair):
        a, b = pair
        ab = mat_mul(IntMatrix(a), IntMatrix(b))
        assert ab.to_lists() == _reference_product(a, b)
        # AB on the right reads the rows the kernel kept, when it kept them
        assert mat_mul(IntMatrix(a), ab).to_lists() == _reference_product(a, ab.to_lists())

    @pytest.mark.parametrize("a, b, packed", [
        # norm product exactly 2^63 - 1, with entries of +-(2^63 - 1)
        ([[7]], [[SEVENTH]], True),
        ([[-1]], [[INT64_MAX]], True),
        ([[3, 4], [-7, 0]], [[SEVENTH, 0], [0, -SEVENTH]], True),
        ([[1, 0], [0, -1]], [[INT64_MAX, 0], [0, -INT64_MAX]], True),
        ([[INT64_MAX, 0], [0, -INT64_MAX]], [[0, 1], [1, 0]], True),
        # norm product 2^63: an entry of AB is +-2^63, which a slot cannot
        # hold, and in a row of two it would carry into the next slot
        ([[2]], [[2 ** 62]], False),
        ([[1, 1], [0, 1]], [[2 ** 62, 0], [2 ** 62, 0]], False),
        ([[-1, -1], [0, 1]], [[2 ** 62, 1], [2 ** 62, -1]], False),
        # a zero or identity factor beside entries far beyond 2^63
        ([[0, 0], [0, 0]], [[2 ** 100, -3], [5, -2 ** 90]], False),
        ([[2 ** 100, -3], [5, -2 ** 90]], [[0, 0], [0, 0]], False),
        ([[1, 0], [0, 1]], [[2 ** 100, -3], [5, -2 ** 90]], False),
        ([[2 ** 100, -3], [5, -2 ** 90]], [[1, 0], [0, 1]], False),
    ])
    def test_boundary_cases(self, a, b, packed):
        ab = mat_mul(IntMatrix(a), IntMatrix(b))
        assert ab.to_lists() == _reference_product(a, b)
        assert (ab._packed is not None) is packed

    def test_just_inside_and_just_outside_the_bound(self):
        # ||A|| = 2, and ||B|| = 2^62 - 1 inside the bound, 2^62 outside it
        a = [[1, 1], [1, -1]]
        inside = [[2 ** 61, 2 ** 61 - 1], [-(2 ** 62 - 1), 0]]
        outside = [[2 ** 61, 2 ** 61], [-(2 ** 62), 0]]
        for b, packed in ((inside, True), (outside, False)):
            ab = mat_mul(IntMatrix(a), IntMatrix(b))
            assert ab.to_lists() == _reference_product(a, b)
            assert (ab._packed is not None) is packed

    def test_kept_rows_are_the_packed_rows_of_the_product(self):
        a = IntMatrix([[3, -1, 0], [2, 2, -5], [0, 1, 4]])
        ab = mat_mul(a, mat_mul(a, a))
        # the identity times a fresh copy packs the copy's rows anew
        fresh = mat_mul(IntMatrix.identity(3), IntMatrix(ab.entries))
        assert ab._packed == fresh._packed
        assert ab.entries[0] == (11, -12, 45)
        assert ab._packed[0] == 45 * 2 ** 128 - 12 * 2 ** 64 + 11

    @pytest.mark.parametrize("a", [
        [[2, 1], [1, 1]],                                  # hyperbolic: powers leave the bound
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0]],   # order 8
        [[3, -2, 0, 1, 5], [1, 0, -4, 2, 2], [0, 1, 1, -3, 0], [2, 2, 0, 1, -1],
         [-5, 0, 1, 0, 3]],
    ])
    def test_powers_across_the_bound_equal_repeated_reference_products(self, a):
        power = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
        for n in range(130):
            assert mat_pow(IntMatrix(a), n).to_lists() == power, n
            power = _reference_product(power, a)


class TestRatPoly:
    """The polynomial type, IntPoly since its coefficients became integers."""

    def test_zero_degree_sentinel(self):
        assert IntPoly([]).degree is None
        assert IntPoly([0, 0]).degree is None
        assert IntPoly([5]).degree == 0

    def test_canonical_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])

    def test_arithmetic(self):
        f = IntPoly([1, 1])
        assert f * f == IntPoly([1, 2, 1])
        assert f * IntPoly([-1, 0, 2]) == IntPoly([-1, -1, 2, 2])
        assert f * IntPoly([]) == IntPoly([]) * f == IntPoly([]) * IntPoly([]) == IntPoly([])

    def test_str(self):
        assert str(IntPoly([1, -3, 1])) == "x^2 - 3*x + 1"
        assert str(IntPoly([0, 0, 1])) == "x^2"
        assert str(IntPoly([])) == "0"
        assert str(IntPoly([-2, 2])) == "2*x - 2"

    def test_rejects_non_integer_coefficients(self):
        for bad in ([Fraction(1, 2)], [1.0, 1], ["1"]):
            with pytest.raises(TypeError):
                IntPoly(bad)


class TestPolyDivGcd:
    def test_divmod_exact(self):
        q, r = poly_divmod(IntPoly([-1, 0, 1]), IntPoly([-1, 1]))
        assert (q, r) == (IntPoly([1, 1]), IntPoly([]))

    def test_divmod_x3_by_x2(self):
        q, r = poly_divmod(IntPoly([0, 0, 0, 1]), IntPoly([0, 0, 1]))
        assert (q, r) == (IntPoly([0, 1]), IntPoly([]))

    def test_divmod_with_remainder(self):
        q, r = poly_divmod(IntPoly([1, 0, 0, 1]), IntPoly([1, 0, 1]))
        assert (q, r) == (IntPoly([0, 1]), IntPoly([1, -1]))

    def test_divmod_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(IntPoly([1]), IntPoly([]))

    def test_divmod_rejects_non_monic_divisor(self):
        with pytest.raises(ValueError):
            poly_divmod(IntPoly([1, 0, 1]), IntPoly([1, 2]))

    def test_gcd_self(self):
        f = IntPoly([2, -4, 2])
        assert poly_gcd(f, f) == IntPoly([1, -2, 1])

    def test_gcd_shear_minpoly(self):
        assert poly_gcd(IntPoly([1, -2, 1]), IntPoly([-2, 2])) == IntPoly([-1, 1])

    def test_gcd_coprime(self):
        assert poly_gcd(IntPoly([1, 0, 1]), IntPoly([-1, 0, 1])) == IntPoly([1])

    def test_gcd_is_primitive_with_positive_leading_coefficient(self):
        # gcd(-6x^2 + 6, 4x + 4) = x + 1 over Q, whatever the contents and signs
        assert poly_gcd(IntPoly([6, 0, -6]), IntPoly([4, 4])) == IntPoly([1, 1])
        assert poly_gcd(IntPoly([]), IntPoly([-4, -6])) == IntPoly([2, 3])

    def test_gcd_both_zero(self):
        with pytest.raises(ValueError):
            poly_gcd(IntPoly([]), IntPoly([]))

    def test_gcd_against_bruteforce_divisors(self):
        # all degree <= 2 candidates over a fixed small coefficient set
        candidates = [
            IntPoly(c)
            for c in product(range(-2, 3), repeat=3)
            if any(c)
        ]
        rng = random.Random(6021023)
        small = [IntPoly([rng.randint(-2, 2), 1]) for _ in range(40)]
        for _ in range(25):
            f = rng.choice(small) * rng.choice(small)
            g = rng.choice(small) * rng.choice(small)
            gcd = poly_gcd(f, g)
            assert _divides(gcd, f) and _divides(gcd, g)
            for cand in candidates:
                if _divides(cand, f) and _divides(cand, g):
                    assert _divides(cand, gcd)


class TestStripXFactor:
    def test_pure_power(self):
        assert strip_x_factor(IntPoly([0, 0, 1])) == (2, IntPoly([1]))

    def test_nonzero_constant_term(self):
        f = IntPoly([1, -3, 1])
        assert strip_x_factor(f) == (0, f)

    def test_mixed(self):
        assert strip_x_factor(IntPoly([0, 0, -1, 1])) == (2, IntPoly([-1, 1]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            strip_x_factor(IntPoly([]))


class TestCharPoly:
    """The test-only reference _char_poly, checked on its own."""

    def test_identity(self):
        assert _char_poly(IntMatrix.identity(2)) == IntPoly([1, -2, 1])

    def test_catmap(self):
        assert _char_poly(IntMatrix([[2, 1], [1, 1]])) == IntPoly([1, -3, 1])

    def test_order_six(self):
        assert _char_poly(IntMatrix([[0, -1], [1, 1]])) == IntPoly([1, -1, 1])

    @settings(max_examples=60)
    @given(square_matrices())
    def test_monic_integer_degree_d(self, a):
        poly = _char_poly(a)
        assert poly.degree == a.d
        assert poly.is_monic
        assert all(type(c) is int for c in poly.coeffs)

    @settings(max_examples=40)
    @given(square_matrices(max_d=3))
    def test_cayley_hamilton(self, a):
        assert _eval_at_matrix(_char_poly(a), a) == IntMatrix([[0] * a.d] * a.d)


class TestMinPoly:
    def test_identity(self):
        assert min_poly(IntMatrix.identity(3)) == IntPoly([-1, 1])

    def test_nilpotent(self):
        assert min_poly(IntMatrix([[0, 1], [0, 0]])) == IntPoly([0, 0, 1])

    def test_shear(self):
        assert min_poly(IntMatrix([[1, 1], [0, 1]])) == IntPoly([1, -2, 1])

    def test_scalar(self):
        assert min_poly(IntMatrix([[7]])) == IntPoly([-7, 1])

    def test_derogatory_matrix(self):
        # diag(1, 1, 2): minimal polynomial is (x-1)(x-2), degree < d
        a = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert min_poly(a) == IntPoly([2, -3, 1])

    @settings(max_examples=60)
    @given(square_matrices())
    def test_divides_charpoly(self, a):
        _, r = poly_divmod(_char_poly(a), min_poly(a))
        assert r.is_zero

    @settings(max_examples=60)
    @given(square_matrices())
    def test_annihilates_matrix(self, a):
        assert _eval_at_matrix(min_poly(a), a) == IntMatrix([[0] * a.d] * a.d)

    @settings(max_examples=30)
    @given(square_matrices(max_d=3))
    def test_minimality_of_degree(self, a):
        # no polynomial of lower degree annihilates A: the flattened powers
        # I, A, ..., A^(deg mu - 1) must be linearly independent
        mu = min_poly(a)
        assert mu.is_monic
        flattened = []
        for n in range(mu.degree):
            power = mat_pow(a, n)
            flattened.append([Fraction(e) for row in power.entries for e in row])
        assert _rectangular_rank(flattened) == mu.degree

    def test_agrees_with_sympy(self):
        # sympy has no minimal polynomial of a matrix; check the defining
        # properties instead: monic, divides charpoly, annihilates A, and no
        # proper divisor mu/f (f an irreducible factor) annihilates A
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(8400)
        derogatory = 0
        for case in range(100):
            a = _random_test_matrix(rng, derogatory=case % 3 == 0)
            mu = min_poly(a)
            assert mu.is_monic
            derogatory += mu.degree < a.d
            m = sympy.Matrix(a.entries)
            mu_poly = sympy.Poly(list(reversed(mu.coeffs)), x)
            assert sympy.rem(m.charpoly(x).as_expr(), mu_poly.as_expr(), x) == 0, a
            assert _sympy_eval(mu_poly, m).is_zero_matrix, a
            for f, _ in sympy.factor_list(mu_poly)[1]:
                assert not _sympy_eval(sympy.quo(mu_poly, f), m).is_zero_matrix, (a, f)
        assert derogatory >= 30


def _power_vectors(a):
    """vec(I), vec(A), vec(A^2), ..., each power flattened row by row."""
    power = IntMatrix.identity(a.d)
    while True:
        yield [x for row in power.entries for x in row]
        power = mat_mul(power, a)


def _power_search(a):
    """The reference for min_poly: the first dependency among vec(I),
    vec(A), ..., vec(A^d). A relation among the powers is a polynomial
    that annihilates A, so the first one is mu by definition, and
    Cayley-Hamilton guarantees it by vec(A^d)."""
    return _first_dependency(_power_vectors(a), a.d + 1)


def _krylov_search(a):
    """mu_v for min_poly's first start vector v = (1, 2, ..., d)."""
    return _first_dependency(_krylov_vectors(a, tuple(range(1, a.d + 1))), a.d + 1)


def _shear_conjugated(rng, blocks, steps):
    """U * diag(blocks) * U^-1 for U a product of `steps` elementary shears
    I + c E_ij, c = +-1, whose inverses are I - c E_ij."""
    d = sum(len(b) for b in blocks)
    entries = [[0] * d for _ in range(d)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            entries[at + i][at:at + len(row)] = row
        at += len(b)
    a = IntMatrix(entries)
    for _ in range(steps if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        u = [[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(d)] for r in range(d)]
        u_inv = [[int(r == s) - (c if (r, s) == (i, j) else 0) for s in range(d)] for r in range(d)]
        a = mat_mul(mat_mul(IntMatrix(u), a), IntMatrix(u_inv))
    return a


def _eigenvector_start(rng, d):
    """U * diag(1, B) * U^-1 with U = I + (v - e_1) e_1^T, whose first
    column is v = (1, ..., d) and whose inverse is I - (v - e_1) e_1^T, so
    that A v = v. B is the conjugated companion matrix of a random monic h
    with h(1) != 0, so A is non-derogatory with mu = (x - 1) h."""
    h = [rng.randint(-2, 2) for _ in range(d - 1)] + [1]
    h[0] += sum(h) == 0
    b = _shear_conjugated(rng, [_companion(IntPoly(h))], 2 * (d - 1)).entries
    u = [[i + 1 if j == 0 else int(i == j) for j in range(d)] for i in range(d)]
    u_inv = [[-(i + 1) if j == 0 and i else int(i == j) for j in range(d)] for i in range(d)]
    m = [[int(i == j == 0) if i == 0 or j == 0 else b[i - 1][j - 1] for j in range(d)]
         for i in range(d)]
    a = mat_mul(mat_mul(IntMatrix(u), IntMatrix(m)), IntMatrix(u_inv))
    assert a.apply(range(1, d + 1)) == tuple(range(1, d + 1))
    return a


def _companion(g):
    """Companion matrix of a monic integer polynomial of degree >= 1."""
    c = g.coeffs
    m = len(c) - 1
    return [[1 if i == j + 1 else 0 for j in range(m - 1)] + [-c[i]] for i in range(m)]


def _companion_plus_one(rng, d):
    """U * diag(C((x - 1) g), 1) * U^-1 for a random monic g of degree
    d - 2: mu = (x - 1) g has degree d - 1, so min_poly never stops early
    and folds every e_i."""
    g = IntPoly([rng.randint(-2, 2) for _ in range(d - 2)] + [1])
    return _shear_conjugated(rng, [_companion(IntPoly([-1, 1]) * g), [[1]]], 2 * d)


def _repeated_blocks(rng, d):
    """U * diag(C(Phi_n), C(Phi_n) for n in (3, 4, 6), J_2(0), J_2(0),
    1, ..., 1) * U^-1, cut to dimension d >= 8: every block is repeated."""
    phis = {3: [1, 1, 1], 4: [1, 0, 1], 6: [1, -1, 1]}
    blocks = [[[0, 1], [0, 0]]] * 2
    for n in rng.sample(sorted(phis), 3):
        if sum(map(len, blocks)) + 4 <= d:
            blocks += [_companion(IntPoly(phis[n]))] * 2
    blocks += [[[1]]] * (d - sum(map(len, blocks)))
    return _shear_conjugated(rng, blocks, 2 * d)


def _krylov_determinants(a):
    """det [v, Av, ..., A^(d-1) v] for a stack of int64 matrices, by the
    Leibniz formula; exact while the products fit in int64."""
    d = a.shape[1]
    vecs = [np.broadcast_to(np.arange(1, d + 1), a.shape[:2])]
    for _ in range(d - 1):
        vecs.append(np.einsum("nij,nj->ni", a, vecs[-1]))
    k = np.stack(vecs, axis=1)
    return sum(
        (-1) ** sum(p[i] > p[j] for i in range(d) for j in range(i + 1, d))
        * np.prod(k[:, range(d), p], axis=1)
        for p in permutations(range(d))
    )


_SMALL_CASES = pytest.mark.parametrize(
    "entries, mu, krylov_degree",
    [
        ([[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]], [-5, 1], 1),
        ([[0] * 3] * 3, [0, 1], 1),
        ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]], [0, 0, 0, 0, 1], 4),
        ([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], [0, 0, 1], 2),
        ([[2, 1, 0], [0, 2, 0], [0, 0, 2]], [4, -4, 1], 2),
        ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], [1, 0, 1], 2),
    ],
    ids=["scalar", "zero", "nilpotent-jordan", "nilpotent-derogatory",
         "derogatory-jordan", "derogatory-rotations"],
)


class TestMinPolyPaths:
    """min_poly's one Krylov loop: mu_v of v = (1, ..., d), proved equal to
    mu when its degree is d, and otherwise folded with the local minimal
    polynomials of mu(A) e_i, against the full vec(A^k) search."""

    @pytest.mark.parametrize("d", range(2, 7))
    def test_eigenvector_start_falls_back_to_char_poly(self, d):
        # non-derogatory, but v is an eigenvector: mu_v = x - 1, so the
        # unit vectors must still find mu = chi
        a = _eigenvector_start(random.Random(d), d)
        assert _krylov_search(a) == IntPoly([-1, 1])
        assert min_poly(a) == _char_poly(a)
        assert min_poly(a).degree == d

    @_SMALL_CASES
    def test_scalar_nilpotent_derogatory(self, entries, mu, krylov_degree):
        a = IntMatrix(entries)
        assert _krylov_search(a).degree == krylov_degree
        assert min_poly(a) == IntPoly(mu)
        assert _power_search(a) == IntPoly(mu)

    @settings(max_examples=60)
    @given(st.randoms(use_true_random=False), st.integers(0, 2))
    def test_equals_power_search(self, rng, kind):
        a = _random_test_matrix(rng, derogatory=kind == 0)
        assert min_poly(a) == _power_search(a)

    @pytest.mark.parametrize(
        "d, lo, hi", [(2, -2, 2), (3, -1, 0), (3, 0, 1), (3, -1, 1)]
    )
    def test_equals_power_search_on_box(self, d, lo, hi):
        for combo in product(range(lo, hi + 1), repeat=d * d):
            a = IntMatrix([combo[i * d:(i + 1) * d] for i in range(d)])
            assert min_poly(a) == _power_search(a), a

    def test_equals_power_search_where_the_start_vector_is_not_cyclic(self):
        # the d=4 {0,1} matrices whose Krylov matrix of v is singular
        box = np.array(list(product((0, 1), repeat=16)), dtype=np.int64).reshape(-1, 4, 4)
        singular = box[_krylov_determinants(box) == 0]
        assert len(singular) == 13711
        for entries in singular.tolist():
            a = IntMatrix(entries)
            assert min_poly(a) == _power_search(a), a

    @pytest.mark.parametrize("d", range(8, 25, 4))
    def test_equals_power_search_on_conjugated_families(self, d):
        rng = random.Random(17000 + d)
        eigen, plus_one, repeated = (
            _eigenvector_start(rng, d), _companion_plus_one(rng, d), _repeated_blocks(rng, d))
        assert _krylov_search(eigen) == IntPoly([-1, 1])
        assert min_poly(plus_one).degree == d - 1
        for a in (eigen, plus_one, repeated):
            assert min_poly(a) == _power_search(a), a

    @pytest.mark.parametrize("d", range(4, 17))
    def test_eigenvector_start_makes_no_matrix_product(self, monkeypatch, d):
        a = _eigenvector_start(random.Random(17100 + d), d)
        products = _count_mat_mul(monkeypatch)
        assert min_poly(a).degree == d
        assert products == []

    @_SMALL_CASES
    def test_small_cases_make_no_matrix_product(self, monkeypatch, entries, mu, krylov_degree):
        products = _count_mat_mul(monkeypatch)
        assert min_poly(IntMatrix(entries)) == IntPoly(mu)
        assert products == []


_ENTRIES = st.integers(-9, 9) | st.integers(-2 ** 64, 2 ** 64)


class TestFirstDependency:
    """_first_dependency on planted relations: k independent integer vectors
    u_0, ..., u_{k-1}, then u_k = -(c_0 u_0 + ... + c_{k-1} u_{k-1}). The
    least relation among them is x^k + c_{k-1} x^(k-1) + ... + c_0: a relation
    of lower degree would make the first k vectors dependent, and two monic
    relations of degree k would differ by one of lower degree."""

    @pytest.mark.parametrize("longer", [False, True],
                             ids=["vectors-shorter-than-n", "vectors-longer-than-n"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_returns_the_planted_relation(self, longer, data):
        k = data.draw(st.integers(0, 5), label="k")
        if longer:
            n = data.draw(st.integers(k + 1, k + 3), label="n")
            m = data.draw(st.integers(max(k, n + 1), n + 3), label="vector length")
        else:
            m = data.draw(st.integers(max(k, 1), k + 2), label="vector length")
            n = data.draw(st.integers(m + 1, m + 3), label="n")
        vectors = [tuple(data.draw(st.lists(_ENTRIES, min_size=m, max_size=m)))
                   for _ in range(k)]
        assume(_rectangular_rank(vectors) == k)
        c = data.draw(st.lists(_ENTRIES, min_size=k, max_size=k), label="c")
        planted = tuple(-sum(ci * u[j] for ci, u in zip(c, vectors)) for j in range(m))
        junk = tuple(range(m))
        stream = iter([*vectors, planted, junk])
        assert _first_dependency(stream, n) == IntPoly([*c, 1])
        # the relation ends the search: the vector after u_k is never read
        assert next(stream) == junk

    def test_a_relation_that_is_not_monic_over_the_integers_raises(self):
        # 2 u_1 = u_0: the least relation is x - 1/2, not integral
        with pytest.raises(ArithmeticError, match="not a multiple"):
            _first_dependency(iter([(2, 4), (1, 2)]), 3)

    def test_independent_first_n_vectors_raise(self):
        with pytest.raises(ArithmeticError, match="no dependency"):
            _first_dependency(iter([(1, 0), (0, 1), (1, 1)]), 2)


def _count_mat_mul(monkeypatch):
    """Record every mat_mul that exactalg makes from now on."""
    calls = []
    real_mul = tametorus.exactalg.mat_mul

    def counting_mul(a, b):
        calls.append(a.d)
        return real_mul(a, b)

    monkeypatch.setattr(tametorus.exactalg, "mat_mul", counting_mul)
    return calls


def _sympy_eval(poly, m):
    """poly(M) by Horner's rule on sympy matrices."""
    total = m.zeros(m.rows)
    for c in poly.all_coeffs():
        total = total * m + c * m.eye(m.rows)
    return total


def _random_test_matrix(rng, derogatory):
    """A random integer matrix of size 1..8. A derogatory one repeats a
    diagonal block, so deg mu < d, and hides the blocks by conjugating with
    a unimodular matrix U made of elementary row operations."""
    d = rng.randint(1, 8)
    if not derogatory:
        return IntMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
    d = max(d, 2)
    k = rng.randint(1, d // 2)
    block = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
    rest = d - 2 * k
    tail = [[rng.randint(-2, 2) for _ in range(rest)] for _ in range(rest)]
    return _shear_conjugated(rng, [block, block, tail], 3)


def _divides(g, f):
    """Whether g divides f over Q, by long division over Fractions."""
    rem = [Fraction(c) for c in f.coeffs]
    dg = g.degree
    while len(rem) > dg:
        q = rem[-1] / g.coeffs[-1]
        for j, c in enumerate(g.coeffs):
            rem[len(rem) - 1 - dg + j] -= q * c
        rem.pop()
    return not any(rem)


def _rectangular_rank(rows):
    """Plain exact elimination over Fractions, any shape."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                factor = rows[i][c] / rows[r][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r

