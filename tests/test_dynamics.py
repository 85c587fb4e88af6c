import itertools
import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from tametorus import (
    AffineMap,
    CapExceededError,
    DimensionMismatchError,
    IndependenceQuery,
    IntMatrix,
    convergence_probe,
    decide_semicascade,
    escape_probe,
    exp_grid_average,
    frequency_orbit,
    independence_check,
    mat_mul,
    mat_pow,
    reduce_angles,
    torus_dist,
    torus_grid,
)
import tametorus.dynamics
import tametorus.exactalg
import tametorus.tameness
from tametorus.dynamics import GRID_DIMENSION_CAP, TWO_PI


class TestApply:
    def test_identity_map_fixes_points(self):
        phi = AffineMap(IntMatrix.identity(2))
        x = np.array([1.0, 2.5])
        assert np.allclose(phi.apply(x), x)

    def test_full_turn_wraps(self):
        phi = AffineMap(IntMatrix.identity(2), [np.pi, 0.0])
        assert np.allclose(phi.apply([np.pi, 0.0]), [0.0, 0.0])

    def test_shear_no_wrap(self):
        phi = AffineMap(IntMatrix([[1, 1], [0, 1]]))
        assert np.allclose(phi.apply([1.0, 2.0]), [3.0, 2.0])

    def test_dimension_mismatch(self):
        phi = AffineMap(IntMatrix.identity(2))
        with pytest.raises(DimensionMismatchError):
            phi.apply([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError):
            AffineMap(IntMatrix.identity(2), [0.1])

    def test_matches_exact_rational_evaluation(self):
        # double-precision contract against exact Fraction arithmetic
        rng = random.Random(4242)
        a = IntMatrix([[1, 1], [1, 2]])
        for _ in range(50):
            rx = [Fraction(rng.randint(0, 63), 64) for _ in range(2)]
            rb = [Fraction(rng.randint(0, 31), 32) for _ in range(2)]
            phi = AffineMap(a, [float(v) * TWO_PI for v in rb])
            x = np.array([float(v) * TWO_PI for v in rx])
            exact = [
                float((sum(Fraction(a.entries[i][j]) * rx[j] for j in range(2)) + rb[i]) % 1)
                * TWO_PI
                for i in range(2)
            ]
            assert torus_dist(phi.apply(x), exact) < 1e-12

    def test_image_beyond_double_range_raises_without_warning(self):
        phi = AffineMap(IntMatrix([[10 ** 308]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapExceededError):
                phi.apply([2.0])

    def test_reduce_angles_range(self):
        out = reduce_angles(np.array([-1e-18, TWO_PI, 3 * np.pi, -np.pi]))
        assert np.all(out >= 0.0) and np.all(out < TWO_PI)


class TestOrbit:
    def test_identity_constant(self):
        phi = AffineMap(IntMatrix.identity(2))
        orb = phi.orbit([1.0, 2.0], 5)
        assert orb.shape == (6, 2)
        assert np.allclose(orb, orb[0])

    def test_negation_period_two(self):
        phi = AffineMap(IntMatrix([[-1]]))
        orb = phi.orbit([1.0], 2)
        assert np.allclose(orb[:, 0], [1.0, TWO_PI - 1.0, 1.0])

    def test_rotation_period_four(self):
        phi = AffineMap(IntMatrix([[0, -1], [1, 0]]))
        orb = phi.orbit([1.0, 0.0], 8)
        assert np.allclose(orb[0], orb[4])
        assert np.allclose(orb[4], orb[8])
        assert not np.allclose(orb[0], orb[1])

    def test_length_validation(self):
        with pytest.raises(ValueError):
            AffineMap(IntMatrix.identity(2)).orbit([0.0, 0.0], 0)

    def test_start_point_of_wrong_length_raises(self):
        # the shape check of apply: no broadcast of [0.5] to [0.5, 0.5]
        phi = AffineMap(IntMatrix.identity(2))
        for x0 in ([0.5], [1, 2, 3], [[0.5, 0.5]]):
            with pytest.raises(DimensionMismatchError, match="point of shape"):
                phi.orbit(x0, 2)

    def test_equals_iterated_apply(self):
        phi = AffineMap(IntMatrix([[2, 1, 0], [1, 1, -3], [0, 5, 1]]), [0.3, 6.0, 1.5])
        orb = phi.orbit([1.0, 2.0, 4.0], 30)
        for i in range(30):
            assert np.array_equal(orb[i + 1], phi.apply(orb[i]))

    def test_point_beyond_double_range_raises_without_warning(self):
        # 1e308 * 6.148... (the second point) overflows to inf
        phi = AffineMap(IntMatrix([[10 ** 308]]), [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapExceededError):
                phi.orbit([0.0], 3)


class TestFrequencyOrbit:
    def test_identity_constant(self):
        fo = frequency_orbit(IntMatrix.identity(2), (3, -4), 5)
        assert set(fo.terms) == {(3, -4)}

    def test_shear_marches_linearly(self):
        fo = frequency_orbit(IntMatrix([[1, 1], [0, 1]]), (1, 0), 3)
        assert fo.terms == ((1, 0), (1, 1), (1, 2), (1, 3))

    def test_rotation_cycles(self):
        fo = frequency_orbit(IntMatrix([[0, -1], [1, 0]]), (1, 0), 4)
        assert fo.terms[4] == fo.terms[0]
        assert len(set(fo.terms)) == 4

    def test_cross_check_against_mat_pow(self, named):
        for a in named.values():
            fo = frequency_orbit(a, (1, -2), 10)
            at = a.transpose()
            for n, term in enumerate(fo.terms):
                assert term == mat_pow(at, n).apply((1, -2))

    def test_stops_at_the_first_term_beyond_the_digit_limit(self):
        # 10^640 is the first power of ten of 641 digits, one more than the
        # smallest limit CPython accepts; a limit of 0 lifts the limit
        limit = sys.get_int_max_str_digits()
        ten = IntMatrix([[10]])
        try:
            sys.set_int_max_str_digits(640)
            assert frequency_orbit(ten, (-1,), 639).terms[-1] == (-10 ** 639,)
            with pytest.raises(CapExceededError, match="beyond the 640-digit limit"):
                frequency_orbit(ten, (-1,), 640)
            # caught in the middle of the orbit, although the last term is 0
            nilpotent = IntMatrix([[0, 10 ** 400], [0, 0]])
            assert frequency_orbit(nilpotent, (10 ** 200, 0), 2).terms[-1] == (0, 0)
            with pytest.raises(CapExceededError):
                frequency_orbit(nilpotent, (10 ** 300, 0), 2)
            sys.set_int_max_str_digits(0)
            assert frequency_orbit(ten, (1,), 700).terms[-1] == (10 ** 700,)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_terms_beyond_the_bit_bound_that_all_print(self):
        # every term is checked against the limit, yet none trips: -I keeps
        # |u|, and the shear's terms grow linearly
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            fo = frequency_orbit(IntMatrix([[-1]]), (5,), 1920)
            assert fo.terms == tuple(((-1) ** j * 5,) for j in range(1921))
            fo = frequency_orbit(IntMatrix([[1, 1], [0, 1]]), (1, 0), 1000)
            assert fo.terms == tuple((1, j) for j in range(1001))
        finally:
            sys.set_int_max_str_digits(limit)

    def test_eventual_periodicity_for_tame(self, tame_examples):
        for a in tame_examples:
            cert = decide_semicascade(a)
            p, q = cert.minimal_pair
            fo = frequency_orbit(a, (1, 1), q + 2 * (q - p) + 3)
            for n in range(p, len(fo.terms) - (q - p)):
                assert fo.terms[n + q - p] == fo.terms[n]


class TestEscapeProbe:
    def test_constant_never_escapes(self):
        fo = frequency_orbit(IntMatrix.identity(2), (1, 0), 10)
        assert escape_probe(fo, 1) == (False, None)

    def test_shear_escapes_linearly(self):
        fo = frequency_orbit(IntMatrix([[1, 1], [0, 1]]), (1, 0), 20)
        assert escape_probe(fo, 10) == (True, 11)

    def test_catmap_escapes_geometrically(self, named):
        fo = frequency_orbit(named["catmap"], (1, 0), 20)
        escaped, idx = escape_probe(fo, 1000)
        assert escaped and idx == 8
        assert fo.terms[8] == (1597, 987)

    def test_untame_examples_escape_basis_bound(self, named):
        # contrapositive probe: some basis frequency orbit escapes within
        # 200 steps; the shear grows linearly (term (1, n)), so its bound
        # is 150, while the cat map's geometric growth clears 10**6
        for a, bound in ((named["shear"], 150), (named["catmap"], 10 ** 6)):
            hit = False
            for j in range(a.d):
                u = tuple(1 if i == j else 0 for i in range(a.d))
                fo = frequency_orbit(a, u, 200)
                escaped, _ = escape_probe(fo, bound)
                hit = hit or escaped
            assert hit


class TestConvergenceProbe:
    def test_identity_full_list(self):
        phi = AffineMap(IntMatrix.identity(2))
        grid = torus_grid(2, 8)
        sub, dev = convergence_probe(phi, list(range(9)), grid, 1e-9)
        assert sub == list(range(9))
        assert dev == 0.0

    def test_rotation_residue_classes(self):
        phi = AffineMap(IntMatrix([[0, -1], [1, 0]]))
        grid = torus_grid(2, 8)
        sub, dev = convergence_probe(phi, list(range(9)), grid, 1e-9)
        assert sub == [0, 4, 8]
        assert dev == 0.0

    def test_shear_only_singletons(self):
        phi = AffineMap(IntMatrix([[1, 1], [0, 1]]))
        grid = torus_grid(2, 8)
        sub, dev = convergence_probe(phi, list(range(9)), grid, 1e-9)
        assert len(sub) == 1
        assert dev == 0.0

    def test_translation_chain_with_rational_b(self):
        # order-4 rotation with quarter-turn translation: iterates repeat
        # exactly with period 4
        phi = AffineMap(IntMatrix([[0, -1], [1, 0]]), [np.pi / 2, 0.0])
        grid = torus_grid(2, 16)
        sub, dev = convergence_probe(phi, list(range(21)), grid, 1e-9)
        assert len(sub) >= 5
        assert dev <= 1e-12

    def test_index_zero_alone(self):
        # the translation orbit needs a length of at least 1
        phi = AffineMap(IntMatrix([[0, -1], [1, 0]]), [1.0, 2.0])
        assert convergence_probe(phi, [0], torus_grid(2, 2), 1e-9) == ([0], 0.0)

    def test_validation(self):
        phi = AffineMap(IntMatrix.identity(2))
        grid = torus_grid(2, 4)
        with pytest.raises(ValueError):
            convergence_probe(phi, [], grid, 1e-9)
        with pytest.raises(ValueError):
            convergence_probe(phi, [0, 1], grid, 0.0)
        with pytest.raises(DimensionMismatchError):
            convergence_probe(phi, [0, 1], torus_grid(3, 4), 1e-9)


def _reference_probe(phi, indices, grid, tol):
    """convergence_probe with its groups taken from brute-force exact
    power equality: every A^n is built and the indices are grouped by its
    entries. The rest is the probe's documented strategy, step by step."""
    groups = {}
    for n in sorted(set(indices)):
        groups.setdefault(mat_pow(phi.a, n).entries, []).append(n)
    group = max(groups.values(), key=lambda g: (len(g), -g[0]))
    translations = phi.orbit((0.0,) * phi.d, max(indices))
    keyed = []
    for n in group:
        t = translations[n].copy()
        t[TWO_PI - t < min(1e-12, tol / 2)] = 0.0
        keyed.append((tuple(t), n))
    keyed.sort()
    best_start, best_len, run_start = 0, 1, 0
    for i in range(1, len(keyed)):
        if torus_dist(keyed[i - 1][0], keyed[i][0]) < tol:
            if i - run_start + 1 > best_len:
                best_start, best_len = run_start, i - run_start + 1
        else:
            run_start = i
    chain = [n for _, n in keyed[best_start : best_start + best_len]]
    moved = grid @ np.array(mat_pow(phi.a, chain[0]).entries, dtype=float).T
    images = [reduce_angles(moved + translations[n]) for n in chain]
    return sorted(chain), max([0.0] + [torus_dist(p, c) for p, c in zip(images, images[1:])])


# Index lists beyond range(n + 1): sparse, unsorted and with duplicates.
_INDEX_LISTS = (
    list(range(13)),
    [12, 3, 7, 3, 0, 9, 21, 15, 7, 26],
    [5, 5, 5],
    [28, 1, 16, 4, 16, 10],
)

_CYCLOTOMIC_COMPANIONS = {
    1: [[1]],
    2: [[-1]],
    3: [[0, -1], [1, -1]],
    4: [[0, -1], [1, 0]],
    5: [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]],
    6: [[0, -1], [1, 1]],
}


def _block_diag(blocks):
    d = sum(len(b) for b in blocks)
    out = [[0] * d for _ in range(d)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return IntMatrix(out)


def _unimodular_pair(rng, d):
    """A product of random integer shears, and its inverse."""
    u = u_inv = IntMatrix.identity(d)
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        shear = [[int(p == q) for q in range(d)] for p in range(d)]
        shear[i][j] = c
        u = mat_mul(u, IntMatrix(shear))
        shear[i][j] = -c
        u_inv = mat_mul(IntMatrix(shear), u_inv)
    return u, u_inv


class TestConvergenceProbeGrouping:
    """convergence_probe groups the indices by the index and period that
    decide_semicascade would certify; brute-force power equality must give
    the same report."""

    def test_all_d2_matrices(self):
        grid = torus_grid(2, 4)
        for entries in itertools.product(range(-2, 3), repeat=4):
            a = IntMatrix([entries[:2], entries[2:]])
            for b in ((0.0, 0.0), (TWO_PI / 3, 2 * TWO_PI / 5)):
                phi = AffineMap(a, b)
                for indices in _INDEX_LISTS:
                    expected = _reference_probe(phi, indices, grid, 1e-9)
                    assert convergence_probe(phi, indices, grid, 1e-9) == expected, (a, b, indices)

    def test_seeded_blocks_d3_to_d6(self):
        # nilpotent J_k(0), repeated cyclotomic blocks and an untame block,
        # conjugated by a unimodular matrix
        rng = random.Random(614)
        untame = ([[1, 1], [0, 1]], [[2, 1], [1, 1]])
        seen_tame = seen_untame = 0
        for _ in range(60):
            d = rng.randint(3, 6)
            blocks = []
            k = rng.randint(0, 3)
            if k:
                blocks.append([[int(j == i + 1) for j in range(k)] for i in range(k)])
            while sum(len(b) for b in blocks) < d:
                room = d - sum(len(b) for b in blocks)
                choices = [c for c in _CYCLOTOMIC_COMPANIONS.values() if len(c) <= room]
                if room >= 2 and rng.random() < 0.15:
                    choices = list(untame)
                blocks.append(rng.choice(choices))
            rng.shuffle(blocks)
            u, u_inv = _unimodular_pair(rng, d)
            a = mat_mul(mat_mul(u, _block_diag(blocks)), u_inv)
            cert = decide_semicascade(a)
            seen_tame += cert.verdict == "TAME"
            seen_untame += cert.verdict == "UNTAME"
            grid = torus_grid(d, 2)
            b = [rng.choice((0, 1, 2)) * TWO_PI / 3 for _ in range(d)]
            phi = AffineMap(a, b)
            for indices in (*_INDEX_LISTS, list(range(cert.index_k + 2 * cert.period_s + 1))
                            if cert.verdict == "TAME" else [0, 1, 2]):
                expected = _reference_probe(phi, indices, grid, 1e-9)
                assert convergence_probe(phi, indices, grid, 1e-9) == expected, (a, indices)
        assert seen_tame and seen_untame

    def test_cat_map_builds_no_power_chain(self, monkeypatch):
        products = []
        real_mul = tametorus.exactalg.mat_mul

        def counting_mul(a, b):
            products.append(1)
            return real_mul(a, b)

        monkeypatch.setattr(tametorus.exactalg, "mat_mul", counting_mul)
        # also count products made through a name imported into dynamics
        monkeypatch.setattr(tametorus.dynamics, "mat_mul", counting_mul, raising=False)
        phi = AffineMap(IntMatrix([[2, 1], [1, 1]]))
        sub, dev = convergence_probe(phi, range(5001), torus_grid(2, 2), 1e-9)
        assert (sub, dev) == ([0], 0.0)
        assert len(products) <= 2 * (5000).bit_length()

    @pytest.mark.parametrize("a", [[[2, 1], [1, 1]], [[2, 1, 0], [1, 0, 1], [0, 1, -3]]],
                             ids=["catmap", "untame_d3"])
    def test_untame_probe_builds_no_witness(self, monkeypatch, a):
        calls = []
        for name in ("_untame_witness", "poly_gcd"):
            monkeypatch.setattr(tametorus.tameness, name,
                                lambda *args, name=name: calls.append(name))
        phi = AffineMap(IntMatrix(a), [0.5] * len(a))
        sub, _ = convergence_probe(phi, range(6), torus_grid(len(a), 2), 1e-9)
        assert sub == [0] and calls == []

    # Chains whose translations repeat exactly: the probe builds one image
    # per change of translation, and must still match the reference bit for
    # bit, float.hex telling 0.0 from -0.0.
    def _assert_matches_reference(self, phi, index_lists, grid, tol):
        for indices in index_lists:
            sub, dev = convergence_probe(phi, indices, grid, tol)
            ref_sub, ref_dev = _reference_probe(phi, indices, grid, tol)
            assert (sub, dev.hex()) == (ref_sub, ref_dev.hex()), (phi, indices, tol)

    def test_minus_identity_with_nonzero_b(self):
        for b in ((1.0, 2.0), (1.0, 2.0, 3.0), (TWO_PI - 1e-13, 0.5)):
            d = len(b)
            phi = AffineMap(_block_diag([[[-1]]] * d), b)
            translations = phi.orbit((0.0,) * d, 12)
            assert not translations[0::2].any()  # the even indices: exactly 0
            assert (translations[1::2] == phi.b).all()  # the odd ones: exactly b
            self._assert_matches_reference(
                phi, (*_INDEX_LISTS, [1, 3, 5, 7, 0, 2]), torus_grid(d, 4), 1e-9)

    def test_finite_order_with_zero_b(self):
        for a, grid in ((IntMatrix(_CYCLOTOMIC_COMPANIONS[6]), torus_grid(2, 16)),
                        (IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), torus_grid(3, 16)),
                        (_block_diag([_CYCLOTOMIC_COMPANIONS[4], [[1]]]), torus_grid(3, 16))):
            self._assert_matches_reference(AffineMap(a), _INDEX_LISTS, grid, 1e-9)

    def test_repeating_translations_inside_a_chain(self):
        # order 3 with b = (1, 0): the translations repeat (0,0), (1,0),
        # (1,1) exactly; under the identity, b = pi flips a coordinate
        # between exactly 0 and pi, and tol = 4 joins both in one chain;
        # the idempotent [[0, 0], [0, 1]] holds 0.5 fixed beside the flip
        cases = ((IntMatrix(_CYCLOTOMIC_COMPANIONS[3]), (1.0, 0.0), 1e-9),
                 (IntMatrix.identity(2), (math.pi, 0.0), 4.0),
                 (IntMatrix.identity(2), (0.0, math.pi), 4.0),
                 (IntMatrix([[0, 0], [0, 1]]), (0.5, math.pi), 4.0))
        for a, b, tol in cases:
            self._assert_matches_reference(AffineMap(a, b), _INDEX_LISTS, torus_grid(2, 8), tol)

    def test_seam_translation_beside_exact_zeros(self):
        # 2*pi - 1e-13 snaps to the key of 0.0, yet its image is 1e-13 away
        seam = TWO_PI - 1e-13
        phi = AffineMap(IntMatrix([[1]]), [seam])
        assert phi.orbit([0.0], 1).tolist() == [[0.0], [seam]]
        sub, dev = convergence_probe(phi, [0, 1], torus_grid(1, 8), 1e-9)
        assert sub == [0, 1] and 0.0 < dev < 1e-12
        self._assert_matches_reference(phi, ([0, 1], [1, 0, 2]), torus_grid(1, 8), 1e-9)
        # exact zeros in the second coordinate at even indices, a seam
        # drifting by 1e-13 per step in the first
        phi = AffineMap(IntMatrix.identity(2), [seam, math.pi])
        self._assert_matches_reference(phi, _INDEX_LISTS, torus_grid(2, 8), 1e-9)
        self._assert_matches_reference(phi, _INDEX_LISTS, torus_grid(2, 8), 4.0)

    def test_one_grid_image_per_change_of_translation(self, monkeypatch):
        built = []
        real_reduce = tametorus.dynamics.reduce_angles

        def counting_reduce(x):
            out = real_reduce(x)
            if out.ndim == 2:  # an image of the grid, not a translation
                built.append(1)
            return out

        monkeypatch.setattr(tametorus.dynamics, "reduce_angles", counting_reduce)
        cases = (
            # b = 0: no image
            (IntMatrix(_CYCLOTOMIC_COMPANIONS[6]), (0.0, 0.0), range(13), 1e-9, 0),
            (IntMatrix.identity(3), (0.0, 0.0, 0.0), range(13), 1e-9, 0),
            # one nonzero translation along the whole chain: no image
            (IntMatrix(_CYCLOTOMIC_COMPANIONS[3]), (1.0, 0.0), [1, 4, 7, 10], 1e-9, 0),
            (_block_diag([[[-1]]] * 2), (1.0, 2.0), [1, 3, 5, 7, 0], 1e-9, 0),
            # the evens at 0 and the odds at pi, in either coordinate: one change
            (IntMatrix.identity(2), (math.pi, 0.0), range(13), 4.0, 2),
            (IntMatrix.identity(2), (0.0, math.pi), range(13), 4.0, 2),
            # 0.0 and 2*pi - 1e-13 share a key: one change
            (IntMatrix([[1]]), (TWO_PI - 1e-13,), [0, 1], 1e-9, 2),
            # 13 translations 1e-12 apart: 12 changes
            (IntMatrix.identity(2), (1e-12, 2e-12), range(13), 1e-9, 13),
        )
        for a, b, indices, tol, images in cases:
            phi = AffineMap(a, b)
            built.clear()
            convergence_probe(phi, indices, torus_grid(a.d, 4), tol)
            assert len(built) == images, (a, b, indices)


class TestIndependenceCheck:
    def test_constant_function_fails(self):
        q = IndependenceQuery([np.zeros(16)], a=-1.0, b=1.0)
        assert independence_check(q) is False

    def test_empty_family_vacuous(self):
        assert independence_check(IndependenceQuery([], a=-1.0, b=1.0)) is True

    def test_rademacher_family_passes(self):
        n, g = 8, 256
        fns = [
            np.array([1.0 if (j >> k) & 1 else -1.0 for j in range(g)])
            for k in range(n)
        ]
        q = IndependenceQuery(fns, a=-0.5, b=0.5)
        assert independence_check(q) is True

    def test_missing_pattern_fails(self):
        # two identical functions can never realize P={1}, Q={2}
        f = np.array([-1.0, 1.0])
        q = IndependenceQuery([f, f], a=-0.5, b=0.5)
        assert independence_check(q) is False

    def test_monotone_under_removal(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            fns = [rng.choice([-1.0, 1.0], size=32) for _ in range(5)]
            q = IndependenceQuery(fns, a=-0.5, b=0.5)
            if independence_check(q):
                for skip in range(5):
                    sub = [f for i, f in enumerate(fns) if i != skip]
                    assert independence_check(IndependenceQuery(sub, a=-0.5, b=0.5))

    def test_cap(self):
        fns = [np.zeros(4) for _ in range(13)]
        with pytest.raises(CapExceededError):
            independence_check(IndependenceQuery(fns, a=-1.0, b=1.0))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            IndependenceQuery([np.zeros(4)], a=1.0, b=-1.0)


class TestGridAverage:
    def test_zero_frequency_gives_one(self):
        assert abs(exp_grid_average((0, 0), 32) - 1.0) < 1e-12

    def test_multiples_of_grid_give_one(self):
        assert abs(exp_grid_average((32, -64), 32) - 1.0) < 1e-12
        assert abs(exp_grid_average((96,), 32) - 1.0) < 1e-12

    def test_other_frequencies_vanish(self):
        for lam in [(1, 0), (0, 1), (1, 2), (5, -3), (31, 33)]:
            assert abs(exp_grid_average(lam, 32)) < 1e-12

    def test_torus_grid_shape(self):
        g = torus_grid(2, 8)
        assert g.shape == (64, 2)
        assert g.min() == 0.0 and g.max() < TWO_PI
        # default per-axis count shrinks for high dimension
        assert torus_grid(4).shape[0] <= 32 ** 3

    @pytest.mark.parametrize("d,per_axis", [(5, 32), (4, 14), (5, 10 ** 6), (16, None)])
    def test_torus_grid_beyond_cap_raises(self, d, per_axis):
        # checked by arithmetic: a 10^30-point grid would never allocate
        with pytest.raises(CapExceededError):
            torus_grid(d, per_axis)

    def test_torus_grid_at_cap_runs(self):
        for d in (1, 2, 3):
            assert torus_grid(d, 32).shape == (32 ** d, d)
            assert torus_grid(d).shape == (32 ** d, d)
        assert torus_grid(15).shape == (2 ** 15, 15)
        assert torus_grid(GRID_DIMENSION_CAP, 1).shape == (1, GRID_DIMENSION_CAP)

    def test_torus_grid_beyond_dimension_cap_raises(self):
        # np.meshgrid takes at most 32 axes; one point per axis is no exception
        assert GRID_DIMENSION_CAP == 32
        with pytest.raises(CapExceededError):
            torus_grid(33, 1)
