import math
import operator
import random
from array import array
from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tametorus.tameness
from tametorus import (
    CASCADE,
    NON_SQUAREFREE,
    ORDER_BOUND_EXHAUSTED,
    SEMICASCADE,
    TAME,
    UNTAME,
    ZERO_EIGENVALUE,
    DeterminantNotUnitError,
    IntMatrix,
    IntPoly,
    OrderBoundTable,
    TamenessCertificate,
    UntameWitness,
    certificate_check,
    decide_cascade,
    decide_semicascade,
    mat_mul,
    mat_pow,
    min_poly,
    oracle_semicascade,
    oracle_semicascade_batch,
    order_bound,
    order_of_x_mod,
    poly_divmod,
    poly_gcd,
    strip_x_factor,
    sweep_box,
)
from tametorus.cli import MAX_DECIDE_DIMENSION

from conftest import permutation_images, reference_oracle


def euler_phi(n):
    """Euler's totient by trial-division factorization."""
    result, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            result -= result // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def inverse_phi(m):
    """All n with euler_phi(n) = m.

    phi(n) >= sqrt(n/2) for every n >= 1, so phi(n) = m forces
    n <= 2*m*m; an exhaustive scan of that range is complete.
    """
    if m < 1:
        raise ValueError("totient values are positive")
    return {n for n in range(1, 2 * m * m + 1) if euler_phi(n) == m}


def _residue_order(g, s_max):
    """Test-only reference for order_of_x_mod on a monic g with g(0) != 0:
    steps x^s mod g for s = 1..s_max over the integers."""
    deg = g.degree
    if deg == 0:
        return 1
    low = g.int_coeffs()[:-1]
    # residue[i] is the coefficient of x^i of x^s mod g
    one = [1] + [0] * (deg - 1)
    residue = one
    for s in range(1, s_max + 1):
        lead = residue[-1]
        residue = [0] + residue[:-1]
        if lead:
            residue = [r - lead * c for r, c in zip(residue, low)]
        if residue == one:
            return s
    return None


class TestInversePhi:
    def test_phi_one(self):
        assert inverse_phi(1) == {1, 2}

    def test_phi_two(self):
        assert inverse_phi(2) == {3, 4, 6}

    def test_phi_odd_above_one_empty(self):
        # phi(n) is even for n >= 3
        assert inverse_phi(3) == set()
        assert inverse_phi(5) == set()

    def test_consistency_with_phi(self):
        for m in range(1, 9):
            for n in inverse_phi(m):
                assert euler_phi(n) == m

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            inverse_phi(0)


class TestOrderBound:
    @pytest.mark.parametrize("d,s_max", [(1, 2), (2, 6), (3, 6), (4, 12), (6, 30)])
    def test_known_values(self, d, s_max):
        assert order_bound(d).s_max == s_max

    def test_one_is_admissible(self):
        for d in range(1, 7):
            table = order_bound(d)
            assert 1 in table.admissible_orders
            assert table.s_max >= 1

    def test_monotone_in_d(self):
        values = [order_bound(d).s_max for d in range(1, 11)]
        assert values == sorted(values)

    def test_admissible_orders_by_phi(self):
        table = order_bound(2)
        assert table.admissible_orders == frozenset({1, 2, 3, 4, 6})

    def test_admissible_orders_equal_totient_scan(self):
        # the per-n scan with euler_phi by trial division, up to 2 d^2
        phis = [0] + [euler_phi(n) for n in range(1, 2 * 40 * 40 + 1)]
        for d in range(1, 41):
            scan = frozenset(n for n in range(1, 2 * d * d + 1) if phis[n] <= d)
            assert order_bound(d).admissible_orders == scan, d

    @pytest.mark.parametrize("d", range(1, 31))
    def test_equals_exhaustive_subset_walk(self, d):
        assert order_bound(d) == _walk_order_bound(d)

    def test_large_dimension(self):
        # lcm(5, 7, 8, 9) and lcm(5, 7, 8, 9, 11, 13), as in the subset walk
        assert order_bound(20).s_max == 2520
        assert order_bound(42).s_max == 360360


def _walk_order_bound(d):
    """Test-only reference for order_bound: a depth-first walk over every
    subset of distinct admissible orders whose phi values fit in d."""
    admissible = sorted(n for m in range(1, d + 1) for n in inverse_phi(m))
    phis = [euler_phi(n) for n in admissible]
    best = 1

    def walk(start, budget, acc_lcm):
        nonlocal best
        best = max(best, acc_lcm)
        for i in range(start, len(admissible)):
            if phis[i] <= budget:
                walk(i + 1, budget - phis[i], math.lcm(acc_lcm, admissible[i]))

    walk(0, d, 1)
    return OrderBoundTable(d=d, admissible_orders=frozenset(admissible), s_max=best)


class TestOrderOfXMod:
    def test_x_minus_one(self):
        assert order_of_x_mod(IntPoly([-1, 1]), 6) == 1

    def test_x_squared_plus_one(self):
        assert order_of_x_mod(IntPoly([1, 0, 1]), 6) == 4

    def test_catmap_poly_has_no_order(self):
        assert order_of_x_mod(IntPoly([1, -3, 1]), 6) is None

    def test_sixth_cyclotomic(self):
        assert order_of_x_mod(IntPoly([1, -1, 1]), 6) == 6

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            order_of_x_mod(IntPoly([0, 1]), 6)

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            order_of_x_mod(IntPoly([]), 6)

    def test_non_integral_poly_has_no_order(self):
        # 2x + 1 ~ x + 1/2 divides no x^s - 1: a monic divisor would be
        # integral; 2x - 2 ~ x - 1 does
        assert order_of_x_mod(IntPoly([1, 2]), 6) is None
        assert order_of_x_mod(IntPoly([-2, 2]), 6) == 1

    def test_equals_oracle_period_of_companion(self):
        # every monic g of degree 1..4 with g(0) != 0 and coefficients in
        # {-1, 0, 1}: C(g) is invertible with minimal polynomial g, so its
        # powers repeat from A^0 with period exactly the order of x mod g
        s_max = order_bound(4).s_max
        for deg in range(1, 5):
            for low in product((-1, 0, 1), repeat=deg):
                if low[0] == 0:
                    continue
                g = IntPoly(low + (1,))
                s = order_of_x_mod(g, s_max)
                verdict, pair = reference_oracle(IntMatrix(_companion(g)))
                expected = (TAME, (0, s)) if s is not None else (UNTAME, None)
                assert (verdict, pair) == expected, g

    def test_equals_residue_loop_on_small_squarefree(self):
        # every squarefree monic g of degree 1..6 with coefficients in
        # {-1, 0, 1} and g(0) != 0
        count = 0
        for deg in range(1, 7):
            s_max = order_bound(deg).s_max
            for low in product((-1, 0, 1), repeat=deg):
                g = IntPoly(low + (1,))
                if low[0] == 0 or poly_gcd(g, g.derivative()).degree != 0:
                    continue
                count += 1
                assert order_of_x_mod(g, s_max) == _residue_order(g, s_max), g
        assert count == 708

    def test_equals_residue_loop_on_random_polynomials(self):
        # products of cyclotomic polynomials (repeats allowed), times a
        # random factor half of the time, up to degree 12, with the full
        # bound and with a small one
        rng = random.Random(8100)
        found = 0
        for _ in range(400):
            g = _random_cyclotomic_product(rng, rng.randint(1, 12))
            if rng.random() < 0.5:
                extra = rng.randint(1, 12 - g.degree) if g.degree < 12 else 0
                if extra:
                    g = g * IntPoly([rng.choice((-1, 1))]
                                    + [rng.randint(-2, 2) for _ in range(extra - 1)] + [1])
            for s_max in (order_bound(g.degree).s_max, rng.randint(1, 12)):
                s = order_of_x_mod(g, s_max)
                assert s == _residue_order(g, s_max), (g, s_max)
                found += s is not None
        assert found > 100

    def test_agrees_with_sympy_factorization(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        cyclotomic = {sympy.Poly(sympy.cyclotomic_poly(n, x), x): n
                      for n in range(1, 2 * 10 * 10 + 1) if euler_phi(n) <= 10}
        rng = random.Random(8200)
        for _ in range(120):
            g = _random_cyclotomic_product(rng, rng.randint(1, 10))
            if rng.random() < 0.3 and g.degree < 10:
                g = g * IntPoly([rng.randint(-3, 3) or 1, 1])
            poly = sympy.Poly(list(reversed(g.coeffs)), x)
            assert (poly_gcd(g, g.derivative()).degree == 0) == (sympy.discriminant(poly) != 0), g
            _, factors = sympy.factor_list(poly)
            orders = [cyclotomic.get(f) if m == 1 else None for f, m in factors]
            expected = None if None in orders else math.lcm(*orders)
            assert order_of_x_mod(g, order_bound(g.degree).s_max) == expected, g


def _random_cyclotomic_product(rng, degree):
    """A product of Phi_n (repeats allowed) of degree exactly `degree`."""
    g = IntPoly([1])
    while g.degree < degree:
        left = degree - g.degree
        g = g * _cyclotomic(rng.choice([n for n in range(1, 2 * left * left + 1)
                                        if euler_phi(n) <= left]))
    return g


class TestDecideSemicascade:
    def test_identity(self, named):
        cert = decide_semicascade(named["identity"])
        assert cert.verdict == TAME
        assert cert.minimal_pair == (0, 1)
        assert (cert.index_k, cert.period_s) == (0, 1)

    def test_shear_untame_non_squarefree(self, named):
        cert = decide_semicascade(named["shear"])
        assert cert.verdict == UNTAME
        assert cert.witness.reason == NON_SQUAREFREE
        assert cert.witness.stripped_min_poly == IntPoly([1, -2, 1])

    def test_nilpotent(self, named):
        cert = decide_semicascade(named["nilpotent"])
        assert cert.verdict == TAME
        assert cert.minimal_pair == (2, 3)

    def test_catmap_untame_exhausted(self, named):
        cert = decide_semicascade(named["catmap"])
        assert cert.verdict == UNTAME
        assert cert.witness.reason == ORDER_BOUND_EXHAUSTED
        assert cert.witness.s_max == 6

    def test_projector(self, named):
        cert = decide_semicascade(named["projector"])
        assert cert.verdict == TAME
        assert cert.minimal_pair == (1, 2)

    def test_zero_matrix(self):
        cert = decide_semicascade(IntMatrix([[0] * 2] * 2))
        assert cert.minimal_pair == (1, 2)

    def test_d1_scalars(self):
        assert decide_semicascade(IntMatrix([[1]])).minimal_pair == (0, 1)
        assert decide_semicascade(IntMatrix([[-1]])).minimal_pair == (0, 2)
        assert decide_semicascade(IntMatrix([[0]])).minimal_pair == (1, 2)
        assert decide_semicascade(IntMatrix([[2]])).verdict == UNTAME

    def test_d3_mixed_index_and_period(self):
        # nilpotent 2x2 block plus a -1 block: A^2 = A^4, nothing smaller
        a = IntMatrix([[0, 1, 0], [0, 0, 0], [0, 0, -1]])
        cert = decide_semicascade(a)
        assert cert.verdict == TAME
        assert (cert.index_k, cert.period_s) == (2, 2)
        assert cert.minimal_pair == (2, 4)
        assert oracle_semicascade(a) == (TAME, (2, 4))

    def test_d3_cyclic_permutation(self):
        perm = IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        cert = decide_cascade(perm)
        assert cert.verdict == TAME and cert.minimal_order_m == 3
        semi = decide_semicascade(perm)
        assert semi.minimal_pair == (0, 3)

    def test_d3_companion_untame(self):
        # companion of x^3 - x - 1 (the plastic number): unimodular, but the
        # spectrum leaves the unit circle, so powers never repeat
        a = IntMatrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
        cert = decide_semicascade(a)
        assert cert.verdict == UNTAME
        assert oracle_semicascade(a) == (UNTAME, None)


def _representatives(d, lo, hi):
    """The least member of each orbit of the box under A -> P A P^T and
    A -> (P A P^T)^T, P a permutation matrix, in product order."""
    least = {min(permutation_images([combo[i * d : (i + 1) * d] for i in range(d)]))
             for combo in product(range(lo, hi + 1), repeat=d * d)}
    return [IntMatrix(rows) for rows in sorted(least)]


def _swept(d, lo, hi):
    """sweep_box's (classes, outcomes) expanded to one (rows, decided,
    oracle) per matrix of the box, in itertools.product order."""
    classes, outcomes = sweep_box(d, lo, hi)
    rows = product(product(range(lo, hi + 1), repeat=d), repeat=d)
    return [(r, *outcomes[c]) for r, c in zip(rows, classes, strict=True)]


class TestSweepBox:
    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(tametorus.tameness, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tametorus.tameness, name, counting)
        return calls

    def test_decides_each_representative_with_its_power_proof(self, monkeypatch):
        # all 625 2x2 matrices over {-2..2}, 225 orbit representatives; fewer
        # distinct mu, yet each representative is decided on its own
        representatives = _representatives(2, -2, 2)
        assert len(representatives) == 225
        assert len({min_poly(a) for a in representatives}) < len(representatives)
        expected = [decide_semicascade(a) for a in representatives]
        proofs = self._count(monkeypatch, "_has_index_and_period")
        orders = self._count(monkeypatch, "order_of_x_mod")
        swept = _swept(2, -2, 2)
        assert len(swept) == 625
        assert len(orders) == len(representatives)
        tame = [(a, cert.index_k, cert.period_s)
                for a, cert in zip(representatives, expected) if cert.verdict == TAME]
        assert proofs == tame
        by_rows = {rows: decided for rows, decided, _ in swept}
        assert [by_rows[a.entries] for a in representatives] == [
            (cert.verdict, cert.minimal_pair) for cert in expected]
        # a second call decides and proves every representative again, alike
        assert _swept(2, -2, 2) == swept
        assert len(orders) == 2 * len(representatives)
        assert proofs == tame * 2

    @pytest.mark.parametrize("d, lo, hi", [(2, 117, 118), (3, 10 ** 9, 10 ** 9 + 1)])
    def test_boxes_beyond_the_int64_bound_match_per_matrix_decisions(self, d, lo, hi):
        # The matrix of all hi has norm d * hi, and ||A||^(d + s_max(d)) > 2^63 - 1.
        assert (d * hi) ** (d + order_bound(d).s_max) > 2 ** 63 - 1
        matrices = [IntMatrix([c[i * d : (i + 1) * d] for i in range(d)])
                    for c in product(range(lo, hi + 1), repeat=d * d)]
        swept = _swept(d, lo, hi)
        assert [IntMatrix(rows) for rows, _, _ in swept] == matrices
        for a, (_, decided, oracle) in zip(matrices, swept, strict=True):
            cert = decide_semicascade(a)
            assert decided == (cert.verdict, cert.minimal_pair), a
            assert oracle == reference_oracle(a), a
            assert decided == oracle, a

    @pytest.mark.parametrize("d, lo, hi", [(2, -2, 2), (3, -1, 1)])
    def test_builds_no_certificate_and_names_no_witness(self, monkeypatch, box_reference,
                                                        d, lo, hi):
        # Both boxes hold UNTAME matrices of both witness reasons, yet a sweep
        # prints no witness, so it makes none and runs no squarefree test.
        _, certs, _ = box_reference(d, lo, hi)
        reasons = {cert.witness.reason for cert in certs if cert.verdict == UNTAME}
        assert reasons == {NON_SQUAREFREE, ORDER_BOUND_EXHAUSTED}
        names = ("_untame_witness", "poly_gcd", "TamenessCertificate", "UntameWitness")
        calls = {name: self._count(monkeypatch, name) for name in names}
        swept = _swept(d, lo, hi)
        assert calls == {name: [] for name in names}
        assert [decided for _, decided, _ in swept] == [
            (cert.verdict, cert.minimal_pair) for cert in certs]

    def test_a_failing_power_proof_raises(self, monkeypatch):
        monkeypatch.setattr(tametorus.tameness, "_has_index_and_period", lambda a, k, s: False)
        with pytest.raises(AssertionError, match="power proof"):
            sweep_box(2, -1, 1)
        # The proof runs on TAME decisions only: x - 2 and x - 3 have no order.
        assert sweep_box(1, 2, 3)[1] == [((UNTAME, None), (UNTAME, None))] * 2


def _signed_image_maps(d, width):
    """(offsets, weights) for the maps A -> Q A Q^T and A -> (Q A Q^T)^T,
    Q = D P a signed permutation matrix (P a permutation matrix,
    D = diag(+-1)), one row per map: the box index of A's image is
    offsets + weights @ x for A's row-major digits x = a - lo, in a box
    lo..hi with lo = -hi. (Q A Q^T)_ij = s_i s_j a_{pi(i) pi(j)}, and the
    negated entry -a = lo + (width - 1 - x) has digit width - 1 - x.
    D and -D give the same map, so there are 2 * d! * 2^(d-1) of them."""
    size = d * d
    places = [width ** (size - 1 - k) for k in range(size)]
    maps = set()
    for pi in permutations(range(d)):
        for signs in product((1, -1), repeat=d):
            for transposed in (False, True):
                offset, weights = 0, [0] * size
                for i, j in product(range(d), repeat=2):
                    place = places[j * d + i if transposed else i * d + j]
                    if signs[i] == signs[j]:
                        weights[pi[i] * d + pi[j]] = place
                    else:
                        weights[pi[i] * d + pi[j]] = -place
                        offset += (width - 1) * place
                maps.add((offset, *weights))
    assert len(maps) == 2 * math.factorial(d) * 2 ** (d - 1)
    table = np.array(sorted(maps), dtype=np.int64)
    return table[:, 0], table[:, 1:]


class TestSignedPermutationBox:
    """The d = 3 {-2..2} box, 5^9 = 1,953,125 matrices, beyond the sweep cap,
    walked under the signed permutations as sweep_box walks a box under the
    permutations.

    Lemma. For a signed permutation matrix Q, Q^T = Q^-1, so
    (Q A Q^T)^n = Q A^n Q^T, and (A^T)^n = (A^n)^T, for every n >= 0. Both
    images are injective, so A^p = A^q exactly when B^p = B^q for an image B:
    the verdict and least pair, and the oracle's answer, are the same on a
    whole orbit. The maps only permute and negate entries, so they keep a box
    with lo = -hi."""

    def test_every_representative_against_the_oracle(self):
        d, lo, hi = 3, -2, 2
        width, size = hi - lo + 1, d * d
        places = [width ** (size - 1 - k) for k in range(size)]
        offsets, weights = _signed_image_maps(d, width)
        classes = array("i", [-1]) * width ** size
        representatives, sizes = [], []
        index = 0
        while True:
            # the next matrix, in product order, that no orbit has reached
            try:
                index = classes.index(-1, index)
            except ValueError:
                break
            digits = [index // place % width for place in places]
            orbit = set((offsets + weights @ digits).tolist())
            for image in orbit:
                classes[image] = len(representatives)
            representatives.append(IntMatrix([[lo + x for x in digits[i * d : (i + 1) * d]]
                                              for i in range(d)]))
            sizes.append(len(orbit))
        # A walk whose maps were no group would give some matrix two orbits,
        # and the sizes would then sum to more than the box.
        assert sum(sizes) == width ** size
        decided = []
        for a in representatives:
            k, _, s = tametorus.tameness._decided(a)
            decided.append((UNTAME, None) if s is None else (TAME, (k, k + s)))
        assert decided == [reference_oracle(a) for a in representatives]
        assert len(representatives) == 44575
        assert sum(verdict == TAME for verdict, _ in decided) == 1139
        # members of an orbit, each decided on its own, take its outcome
        rng = random.Random(3225)
        for index in rng.sample(range(width ** size), 400):
            digits = [index // place % width for place in places]
            a = IntMatrix([[lo + x for x in digits[i * d : (i + 1) * d]] for i in range(d)])
            if a != representatives[classes[index]]:
                cert = decide_semicascade(a)
                assert (cert.verdict, cert.minimal_pair) == decided[classes[index]], a


class TestDecideCascade:
    def test_rotation_order_four(self, named):
        cert = decide_cascade(named["rot4"])
        assert cert.verdict == TAME
        assert cert.minimal_order_m == 4
        assert cert.kind == CASCADE

    def test_order_six(self, named):
        cert = decide_cascade(named["rot6"])
        assert cert.minimal_order_m == 6

    def test_shear_untame(self, named):
        cert = decide_cascade(named["shear"])
        assert cert.verdict == UNTAME
        assert cert.kind == CASCADE

    def test_determinant_not_unit(self, named):
        with pytest.raises(DeterminantNotUnitError):
            decide_cascade(named["projector"])

    def test_consistency_with_semicascade(self):
        # over all |det| = 1 3x3 matrices with entries in {-1, 0, 1}
        for a in _box(3, (-1, 0, 1)):
            if abs(a.det()) != 1:
                continue
            casc = decide_cascade(a)
            semi = decide_semicascade(a)
            if casc.verdict == TAME:
                assert semi.verdict == TAME
                assert semi.index_k == 0
                assert semi.period_s == casc.minimal_order_m
            else:
                assert semi.verdict == UNTAME


class TestOracle:
    def test_identity(self, named):
        assert oracle_semicascade(named["identity"]) == (TAME, (0, 1))

    def test_rotation(self, named):
        assert oracle_semicascade(named["rot4"]) == (TAME, (0, 4))

    def test_catmap(self, named):
        assert oracle_semicascade(named["catmap"]) == (UNTAME, None)

    def test_exhaustive_agreement_d3(self, box_reference):
        # all 19,683 3x3 matrices with entries in {-1, 0, 1}, each decided
        # with decide_semicascade, run through the reference on its own and
        # batched by oracle_semicascade_batch
        matrices, certs, oracle = box_reference(3, -1, 1)
        assert matrices == [IntMatrix([c[:3], c[3:6], c[6:]])
                            for c in product((-1, 0, 1), repeat=9)]
        tame = 0
        for a, cert, by_orbit in zip(matrices, certs, oracle, strict=True):
            verdict, pair = reference_oracle(a)
            assert (cert.verdict, cert.minimal_pair) == (verdict, pair), a
            assert by_orbit == (verdict, pair), a
            tame += verdict == TAME
        assert tame == 5383
        # every entry of oracle now equals reference_oracle of its matrix
        assert oracle_semicascade_batch(matrices) == oracle
        # verdicts and least pairs from the orbit walk
        swept = _swept(3, -1, 1)
        assert [IntMatrix(rows) for rows, _, _ in swept] == matrices
        assert [decided for _, decided, _ in swept] == [
            (cert.verdict, cert.minimal_pair) for cert in certs]
        assert [batched for _, _, batched in swept] == oracle
        assert all(decided == oracle for _, decided, oracle in swept)

    def test_batch_equals_bigint_oracle_d4_sample(self):
        rng = random.Random(4)
        matrices = [IntMatrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
                    for _ in range(2000)]
        assert oracle_semicascade_batch(matrices) == [reference_oracle(a) for a in matrices]
        assert oracle_semicascade_batch([]) == []

    @staticmethod
    def _record_oracle_calls(monkeypatch):
        """Record every call the batch makes to the per-matrix oracle."""
        calls = []

        def recording(a):
            calls.append(a)
            return reference_oracle(a)

        monkeypatch.setattr(tametorus.tameness, "oracle_semicascade", recording)
        return calls

    def test_batch_guard_boundary_d1(self, monkeypatch):
        # d = 1: Q = 1 + s_max(1) = 3, so a chunk is int64 only when |a|^3 <= 2^63 - 1
        assert 1 + order_bound(1).s_max == 3
        calls = self._record_oracle_calls(monkeypatch)
        inside, outside = IntMatrix([[2 ** 21 - 1]]), IntMatrix([[2 ** 21]])
        assert oracle_semicascade_batch([inside]) == [reference_oracle(inside)]
        assert oracle_semicascade_batch([outside]) == [reference_oracle(outside)]
        assert oracle_semicascade_batch([inside, outside]) == [reference_oracle(inside),
                                                               reference_oracle(outside)]
        assert calls == []

    def test_batch_guard_keeps_wrapping_values_out_of_int64(self):
        # Unguarded, int64 wraps (2^32)^2 to 0 and A^2 = A^3 would read as TAME (2, 3).
        wide = np.array([[2 ** 32]], dtype=np.int64)
        assert (wide @ wide)[0, 0] == 0
        assert oracle_semicascade_batch([IntMatrix([[2 ** 32]])]) == [(UNTAME, None)]

    def test_batch_mixed_guard_keeps_input_order(self, monkeypatch):
        big = 2 ** 40
        wide = [IntMatrix([[1, big], [0, 0]]),    # idempotent: TAME (1, 2)
                IntMatrix([[0, big], [0, 0]]),    # nilpotent: TAME (2, 3)
                IntMatrix([[1, big], [0, 1]]),    # shear: UNTAME
                IntMatrix([[0, -big], [1, 0]])]   # A^2 = -big I: UNTAME
        small = [IntMatrix([c[:2], c[2:]]) for c in product((-1, 0, 1), repeat=4)]
        rng = random.Random(5)
        matrices = small + wide * 3
        rng.shuffle(matrices)
        expected = [reference_oracle(a) for a in matrices]
        calls = self._record_oracle_calls(monkeypatch)
        assert oracle_semicascade_batch(matrices) == expected
        assert calls == []
        assert {result for a, result in zip(matrices, expected) if a in wide} == {
            (TAME, (1, 2)), (TAME, (2, 3)), (UNTAME, None)}

    def test_batch_straddling_the_bound_d2(self, monkeypatch):
        # d = 2: Q = 2 + s_max(2) = 8, and 234^8 <= 2^63 - 1 < 235^8
        assert 2 + order_bound(2).s_max == 8
        assert 234 ** 8 <= 2 ** 63 - 1 < 235 ** 8
        box = [IntMatrix([c[:2], c[2:]]) for c in product((117, 118), repeat=4)]
        norms = [max(sum(map(abs, row)) for row in a.entries) for a in box]
        assert sorted(set(norms)) == [234, 235, 236] and norms.count(234) == 1
        beyond = [IntMatrix([[1, 235], [0, 0]]),   # idempotent: TAME (1, 2)
                  IntMatrix([[0, 236], [0, 0]])]   # nilpotent: TAME (2, 3)
        small = [IntMatrix([c[:2], c[2:]]) for c in product((-1, 0, 1), repeat=4)]
        matrices = box + beyond + small
        random.Random(22).shuffle(matrices)
        expected = [reference_oracle(a) for a in matrices]
        calls = self._record_oracle_calls(monkeypatch)
        assert oracle_semicascade_batch(matrices) == expected
        assert oracle_semicascade_batch(box) == [reference_oracle(a) for a in box]
        assert calls == []
        assert [reference_oracle(a) for a in beyond] == [(TAME, (1, 2)), (TAME, (2, 3))]

    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    def test_batch_runs_the_matrices_within_the_bound_in_int64(self, monkeypatch, place):
        # d = 2: Q = 8, and each of these has ||A|| >= 235 > 234, beyond the bound
        wide = [IntMatrix([[1, 235], [0, 0]]),    # idempotent: TAME (1, 2)
                IntMatrix([[0, 236], [0, 0]]),    # nilpotent: TAME (2, 3)
                IntMatrix([[1, 235], [0, 1]]),    # shear: UNTAME
                IntMatrix([[0, -235], [1, 0]])]   # A^2 = -235 I: UNTAME
        small = [IntMatrix([c[:2], c[2:]]) for c in product((-1, 0, 1), repeat=4)]
        cut = {"first": 0, "middle": 40, "last": len(small)}[place]
        matrices = small[:cut] + wide + small[cut:]
        expected = [reference_oracle(a) for a in matrices]
        assert [reference_oracle(a) for a in wide] == [
            (TAME, (1, 2)), (TAME, (2, 3)), (UNTAME, None), (UNTAME, None)]
        calls = self._record_oracle_calls(monkeypatch)
        stacks = []
        real_empty = np.empty

        def recording_empty(shape, dtype=float, *args, **kwargs):
            stacks.append((shape, np.dtype(dtype)))
            return real_empty(shape, dtype, *args, **kwargs)

        monkeypatch.setattr(np, "empty", recording_empty)
        assert oracle_semicascade_batch(matrices) == expected
        assert calls == []
        assert sorted(stacks, key=str) == [((9, 4, 4), np.dtype(object)),
                                           ((9, 81, 4), np.dtype(np.int64))]

    def test_batch_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            oracle_semicascade_batch([IntMatrix([[1]]), IntMatrix([[1, 0], [0, 1]])])

    def test_exhaustive_agreement_small_range(self):
        for combo in product((-1, 0, 1), repeat=4):
            a = IntMatrix([combo[:2], combo[2:]])
            cert = decide_semicascade(a)
            verdict, pair = reference_oracle(a)
            assert cert.verdict == verdict, a
            if verdict == TAME:
                assert cert.minimal_pair == pair, a


class TestCertificateCheck:
    def test_accepts_decider_output(self, named, tame_examples):
        for a in tame_examples:
            assert certificate_check(a, decide_semicascade(a))
        for a in (named["shear"], named["catmap"]):
            assert certificate_check(a, decide_semicascade(a))

    def test_rejects_wrong_order(self, named):
        claimed = TamenessCertificate(
            verdict=TAME, kind=CASCADE, period_s=2, minimal_order_m=2
        )
        assert certificate_check(named["rot4"], claimed) is False

    def test_rejects_non_minimal_pair(self, named):
        claimed = TamenessCertificate(
            verdict=TAME, kind=SEMICASCADE, index_k=0, period_s=8, minimal_pair=(0, 8)
        )
        assert certificate_check(named["rot4"], claimed) is False

    def test_rejects_wrong_verdict(self, named):
        cert = decide_semicascade(named["catmap"])
        assert certificate_check(named["identity"], cert) is False

    def test_rejects_malformed(self, named):
        assert certificate_check(
            named["identity"],
            TamenessCertificate(verdict=TAME, kind=SEMICASCADE),
        ) is False

    @pytest.mark.parametrize("kind", [SEMICASCADE, CASCADE])
    @pytest.mark.parametrize("field, value", [
        ("minimal_pair", (0, 4)), ("index_k", 0), ("period_s", 4), ("minimal_order_m", 4)])
    def test_untame_claim_with_an_exponent_field_is_invalid(self, named, kind, field, value):
        # the claim must be the UNTAME shape: a witness and nothing else
        a = named["catmap"]
        claim = TamenessCertificate(verdict=UNTAME, kind=kind,
                                    witness=decide_semicascade(a).witness)
        assert certificate_check(a, claim)
        assert certificate_check(a, replace(claim, **{field: value})) is False

    def test_roundtrip_dict(self, named):
        for a in (named["identity"], named["rot4"], named["shear"], named["catmap"]):
            cert = decide_semicascade(a)
            again = TamenessCertificate.from_dict(cert.to_dict())
            assert again == cert
            assert certificate_check(a, again) == certificate_check(a, cert)

    def test_to_dict_keeps_zero_and_drops_none(self, named):
        # 0 is a value (index_k, the pair's p); None and an empty detail are not
        assert decide_semicascade(named["rot4"]).to_dict() == {
            "verdict": TAME, "kind": SEMICASCADE, "index_k": 0, "period_s": 4,
            "minimal_pair": [0, 4]}
        assert decide_cascade(named["rot4"]).to_dict() == {
            "verdict": TAME, "kind": CASCADE, "period_s": 4, "minimal_order_m": 4}
        witness = decide_semicascade(named["catmap"]).witness
        assert decide_cascade(named["catmap"]).to_dict() == {
            "verdict": UNTAME, "kind": CASCADE, "witness": {
                "reason": ORDER_BOUND_EXHAUSTED, "stripped_min_poly": [1, -3, 1], "s_max": 6,
                "detail": witness.detail}}
        bare = UntameWitness(reason=ZERO_EIGENVALUE, stripped_min_poly=IntPoly([0]), s_max=0)
        assert bare.to_dict() == {"reason": ZERO_EIGENVALUE, "stripped_min_poly": [], "s_max": 0}


def _reference_claimed_pair(cert):
    """The claim rule of certificate_check that states each field: the pair
    (p, q) a TAME claim states, (0, m) for a cascade order m; None when its
    fields disagree or its kind is unknown. Unlike certificate_check, it
    accepts a cascade claim that carries a witness."""
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


_CLAIM_EXPONENTS = st.sampled_from([None, 0, 1, 2, 4])
_CLAIM_WITNESS = UntameWitness(reason=ORDER_BOUND_EXHAUSTED, stripped_min_poly=IntPoly([1, -3, 1]),
                               s_max=6)


# Named matrices with their least pair (k, k + s); the claimed minimal_pair
# values below include each of these pairs.
_KNOWN_PAIRS = [("rot4", (0, 4)), ("projector", (1, 2)), ("nilpotent", (2, 3)),
                ("identity", (0, 1))]


class TestClaimedPair:
    @settings(max_examples=400, deadline=None)
    @given(known=st.sampled_from(_KNOWN_PAIRS),
           kind=st.sampled_from([SEMICASCADE, CASCADE, "GROUP"]), index_k=_CLAIM_EXPONENTS,
           period_s=_CLAIM_EXPONENTS, minimal_order_m=_CLAIM_EXPONENTS,
           minimal_pair=st.sampled_from([None, (0, 4), (1, 3), (0, 2), (1, 2), (2, 3), (0, 1)]),
           witness=st.sampled_from([None, _CLAIM_WITNESS]))
    def test_certificate_check_equals_the_field_rule_on_a_known_pair(
            self, named, known, kind, index_k, period_s, minimal_order_m, minimal_pair, witness):
        # a cascade needs k = 0, and its claim no witness
        name, pair = known
        cert = TamenessCertificate(verdict=TAME, kind=kind, index_k=index_k, period_s=period_s,
                                   minimal_order_m=minimal_order_m, minimal_pair=minimal_pair,
                                   witness=witness)
        expected = _reference_claimed_pair(cert) == pair and (
            kind != CASCADE or pair[0] == 0 and witness is None)
        assert certificate_check(named[name], cert) is expected, (name, cert)


def _random_unimodular(rng, d, steps=8):
    """Product of elementary integer matrices together with its inverse."""
    u = IntMatrix.identity(d)
    u_inv = IntMatrix.identity(d)
    for _ in range(steps):
        kind = rng.choice(("shear", "swap", "flip")) if d > 1 else "flip"
        if kind == "shear":
            i, j = rng.sample(range(d), 2)
            c = rng.randint(-2, 2)
            e = [[1 if p == q else 0 for q in range(d)] for p in range(d)]
            e[i][j] = c
            e_inv = [row[:] for row in e]
            e_inv[i][j] = -c
        elif kind == "swap":
            i, j = rng.sample(range(d), 2)
            e = [[1 if p == q else 0 for q in range(d)] for p in range(d)]
            e[i][i] = e[j][j] = 0
            e[i][j] = e[j][i] = 1
            e_inv = e
        else:
            i = rng.randrange(d)
            e = [[1 if p == q else 0 for q in range(d)] for p in range(d)]
            e[i][i] = -1
            e_inv = e
        u = mat_mul(u, IntMatrix(e))
        u_inv = mat_mul(IntMatrix(e_inv), u_inv)
    assert mat_mul(u, u_inv) == IntMatrix.identity(d)
    return u, u_inv


class TestInvariance:
    def test_conjugation_invariance(self, named):
        rng = random.Random(97)
        for name in ("identity", "shear", "rot4", "rot6", "nilpotent", "projector", "catmap"):
            a = named[name]
            base = decide_semicascade(a)
            for _ in range(5):
                u, u_inv = _random_unimodular(rng, a.d)
                conj = mat_mul(mat_mul(u, a), u_inv)
                cert = decide_semicascade(conj)
                assert cert.verdict == base.verdict, name
                assert cert.minimal_pair == base.minimal_pair, name

    def test_transpose_invariance(self, named):
        for a in named.values():
            semi_a = decide_semicascade(a)
            semi_t = decide_semicascade(a.transpose())
            assert semi_a.verdict == semi_t.verdict
            assert semi_a.minimal_pair == semi_t.minimal_pair

    def test_tame_power_count_bounded(self, tame_examples):
        # powers of a tame matrix take at most q distinct values, ever
        for a in tame_examples:
            cert = decide_semicascade(a)
            _, q = cert.minimal_pair
            distinct = {mat_pow(a, n).entries for n in range(q + 10)}
            assert len(distinct) == q


def _exhaustive_certificate_check(a, cert):
    """Test-only reference for certificate_check, by direct scan.

    Builds A^0..A^q by sequential products and scans every smaller pair
    for minimality; an UNTAME cascade claim scans A^1..A^{s_max} for I.
    CASCADE claims need |det A| = 1. UNTAME claims are decided by the
    power enumeration and _reference_witness_check.
    """
    if cert.kind == CASCADE and abs(a.det()) != 1:
        return False

    def powers_up_to(q):
        powers = [IntMatrix.identity(a.d)]
        for _ in range(q):
            powers.append(mat_mul(powers[-1], a))
        return powers

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
        powers = powers_up_to(q)
        if powers[p] != powers[q]:
            return False
        for q2 in range(1, q):
            for p2 in range(q2):
                if powers[p2] == powers[q2]:
                    return False
        return all(powers[p2] != powers[q] for p2 in range(p))

    if cert.verdict == TAME and cert.kind == CASCADE:
        m = cert.minimal_order_m
        if m is None or m < 1 or cert.period_s != m:
            return False
        if cert.minimal_pair is not None or cert.index_k not in (None, 0):
            return False
        powers = powers_up_to(m)
        if powers[m] != powers[0]:
            return False
        return all(powers[m2] != powers[0] for m2 in range(1, m))

    if cert.verdict == UNTAME:
        if cert.witness is None:
            return False
        if cert.kind == SEMICASCADE:
            if reference_oracle(a)[0] != UNTAME:
                return False
        else:
            s_max = order_bound(a.d).s_max
            powers = powers_up_to(s_max)
            if any(powers[m] == powers[0] for m in range(1, s_max + 1)):
                return False
        return _reference_witness_check(a, cert.witness)

    return False


def _reference_witness_check(a, witness):
    """The witness re-derivation that backed the oracle's UNTAME verdict:
    ZERO_EIGENVALUE only needs x to divide mu; the other reasons need the
    claimed g to be the x-stripped minimal polynomial."""
    k, g = strip_x_factor(min_poly(a))
    if witness.reason == ZERO_EIGENVALUE:
        return k > 0
    if witness.stripped_min_poly != g:
        return False
    if witness.reason == NON_SQUAREFREE:
        return poly_gcd(g, g.derivative()).degree != 0
    if witness.reason == ORDER_BOUND_EXHAUSTED:
        s_max = order_bound(a.d).s_max
        return witness.s_max == s_max and _residue_order(g, s_max) is None
    return False


def _pair_claim(p, q):
    return TamenessCertificate(
        verdict=TAME, kind=SEMICASCADE, index_k=p, period_s=q - p, minimal_pair=(p, q)
    )


def _claims(a):
    """TAME pairs (p, q) with p < 4 and p < q < 16, TAME orders m < 16, and
    the UNTAME claims of _untame_claims."""
    for p in range(4):
        for q in range(p + 1, 16):
            yield _pair_claim(p, q)
    for m in range(16):
        yield TamenessCertificate(verdict=TAME, kind=CASCADE, period_s=m, minimal_order_m=m)
    yield from _untame_claims(a)


def _untame_claims(a):
    """UNTAME claims of both kinds for each witness reason with the true
    x-stripped minimal polynomial g, with g times (x - 1), and with a
    wrong s_max."""
    g = strip_x_factor(min_poly(a))[1]
    s_max = order_bound(a.d).s_max
    witnesses = [
        UntameWitness(reason=reason, stripped_min_poly=poly,
                      s_max=s_max if reason == ORDER_BOUND_EXHAUSTED else None)
        for poly in (g, g * IntPoly([-1, 1]))
        for reason in (NON_SQUAREFREE, ORDER_BOUND_EXHAUSTED, ZERO_EIGENVALUE)
    ]
    witnesses.append(UntameWitness(reason=ORDER_BOUND_EXHAUSTED, stripped_min_poly=g,
                                   s_max=s_max + 1))
    for kind in (SEMICASCADE, CASCADE):
        for witness in witnesses:
            yield TamenessCertificate(verdict=UNTAME, kind=kind, witness=witness)


def _primes_dividing(n):
    return [r for r in range(2, n + 1) if n % r == 0 and all(r % t for t in range(2, r))]


def _cyclotomic(n):
    """Phi_n as a IntPoly, by dividing x^n - 1 by Phi_m for m | n, m < n."""
    f = IntPoly([-1] + [0] * (n - 1) + [1])
    for m in range(1, n):
        if n % m == 0:
            f, rem = poly_divmod(f, _cyclotomic(m))
            assert rem.is_zero
    return f


def _companion(g):
    """Companion matrix of a monic integer polynomial of degree >= 1."""
    c = g.int_coeffs()
    m = len(c) - 1
    return [[1 if i == j + 1 else 0 for j in range(m - 1)] + [-c[i]] for i in range(m)]


def _block_diag(blocks):
    d = sum(len(b) for b in blocks)
    out = [[0] * d for _ in range(d)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def _conjugated(rng, blocks):
    d = sum(len(b) for b in blocks)
    u, u_inv = _random_unimodular(rng, d)
    return mat_mul(mat_mul(u, IntMatrix(_block_diag(blocks))), u_inv)


def _nilpotent_block(k):
    return [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k)]


def _tame_with_known_pair(rng, d):
    """U * diag(C(Phi_n) for distinct n, C(Phi_1) padding, J_k(0)) * U^-1,
    whose minimal pair is (k, lcm n) and whose minimal polynomial is
    x^k * (Phi_1 if padded) * prod Phi_n; returns (A, k, lcm n, mu)."""
    k = rng.randint(0, min(2, d - 1))
    choices = [n for n in range(2, 31) if euler_phi(n) <= d - k]
    orders, budget = [], d - k
    for n in rng.sample(choices, len(choices)):
        if euler_phi(n) <= budget:
            orders.append(n)
            budget -= euler_phi(n)
    blocks = [_companion(_cyclotomic(n)) for n in orders]
    blocks += [[[1]]] * budget
    if k:
        blocks.append(_nilpotent_block(k))
    a = _conjugated(rng, blocks)
    mu = IntPoly([0] * k + [1])
    for n in orders + ([1] if budget else []):
        mu = mu * _cyclotomic(n)
    return a, k, math.lcm(1, *orders), mu


class TestCertificateCheckEquivalence:
    """The power proof in certificate_check against the exhaustive scan."""

    def test_equals_exhaustive_check_on_grid(self):
        accepted = {}
        for combo in product((-1, 0, 1), repeat=4):
            a = IntMatrix([combo[:2], combo[2:]])
            for cert in _claims(a):
                expected = _exhaustive_certificate_check(a, cert)
                assert certificate_check(a, cert) is expected, (a, cert)
                key = (cert.verdict, cert.kind)
                accepted[key] = accepted.get(key, 0) + expected
        tame = sum(reference_oracle(IntMatrix([c[:2], c[2:]]))[0] == TAME
                   for c in product((-1, 0, 1), repeat=4))
        # every tame matrix has exactly one valid pair inside the grid
        assert accepted[(TAME, SEMICASCADE)] == tame
        assert accepted[(TAME, CASCADE)] > 0
        assert accepted[(UNTAME, SEMICASCADE)] > accepted[(UNTAME, CASCADE)] > 0

    @pytest.mark.parametrize("d", range(3, 9))
    def test_cyclotomic_blocks_with_nilpotent_part(self, d):
        rng = random.Random(4000 + d)
        for _ in range(4):
            a, k, s, _ = _tame_with_known_pair(rng, d)
            assert decide_semicascade(a).minimal_pair == (k, k + s)
            assert certificate_check(a, _pair_claim(k, k + s))
            wrong = [(k + 1, k + 1 + s), (k, k + 2 * s)]
            if k > 0:
                wrong.append((k - 1, k - 1 + s))
            wrong += [(k, k + s // r) for r in _primes_dividing(s)]
            for p, q in wrong:
                claim = _pair_claim(p, q)
                assert certificate_check(a, claim) is False, (a, p, q)
                assert _exhaustive_certificate_check(a, claim) is False, (a, p, q)
            if k == 0:
                for m, valid in [(s, True), (2 * s, False)] + [
                    (s // r, False) for r in _primes_dividing(s)
                ]:
                    claim = TamenessCertificate(
                        verdict=TAME, kind=CASCADE, period_s=m, minimal_order_m=m
                    )
                    assert certificate_check(a, claim) is valid, (a, m)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_claim_other_than_derived_pair_builds_no_power(self, monkeypatch, d):
        products = _count_products(monkeypatch)
        rng = random.Random(4100 + d)
        cascades = 0
        # beyond q <= d + s_max(d), with q < p, with q = p or with q astronomic
        beyond = d + order_bound(d).s_max + 1
        while cascades < 2:
            a, k, s, _ = _tame_with_known_pair(rng, d)
            claims = [_pair_claim(k + 1, k + 1 + s), _pair_claim(k, k + 2 * s),
                      _pair_claim(0, beyond), _pair_claim(3, 2), _pair_claim(0, 0),
                      _pair_claim(k, k + 10 ** 30)]
            if k == 0:
                claims += [TamenessCertificate(verdict=TAME, kind=CASCADE, period_s=m,
                                               minimal_order_m=m) for m in (2 * s, beyond, 0)]
                cascades += 1
            for claim in claims:
                assert certificate_check(a, claim) is False, (a, claim)
        assert products == []

    def test_no_claim_computes_a_determinant(self, monkeypatch, named):
        # |det A| = 1 is read off mu: k = 0 and |g(0)| = 1
        calls = []
        real_det = IntMatrix.det

        def counting_det(a):
            calls.append(a)
            return real_det(a)

        rng = random.Random(4200)
        matrices = list(named.values()) + [
            _conjugated(rng, blocks) for blocks in (
                [_companion(_cyclotomic(5)), [[-1]]], [_JORDAN_ONE, [[2]], [[1]]],
                [[[2, 1], [1, 1]], _nilpotent_block(2)], [[[0, 1], [2, 0]], [[1]], [[-1]]])]
        expected = [(a, cert, _exhaustive_certificate_check(a, cert))
                    for a in matrices for cert in _claims(a)]
        accepted = set()
        monkeypatch.setattr(IntMatrix, "det", counting_det)
        for a, cert, valid in expected:
            assert certificate_check(a, cert) is valid, (a, cert)
            if valid:
                accepted.add((cert.verdict, cert.kind))
        assert calls == []
        assert accepted == {(TAME, SEMICASCADE), (TAME, CASCADE),
                            (UNTAME, SEMICASCADE), (UNTAME, CASCADE)}

    def test_rejects_cascade_claim_without_unit_determinant(self):
        a = IntMatrix([[2, 0], [0, 1]])
        semi = decide_semicascade(a)
        assert semi.verdict == UNTAME and certificate_check(a, semi)
        claim = TamenessCertificate(verdict=UNTAME, kind=CASCADE, witness=semi.witness)
        assert certificate_check(a, claim) is False
        with pytest.raises(DeterminantNotUnitError):
            decide_cascade(a)


def _count_products(monkeypatch):
    """Record every matrix product a decision makes, whether tameness calls
    mat_mul itself or through exactalg (mat_pow); min_poly makes none."""
    import tametorus.exactalg

    calls = []
    real_mul = tametorus.exactalg.mat_mul

    def counting_mul(a, b):
        calls.append(a.d)
        return real_mul(a, b)

    monkeypatch.setattr(tametorus.exactalg, "mat_mul", counting_mul)
    monkeypatch.setattr(tametorus.tameness, "mat_mul", counting_mul, raising=False)
    return calls


def _reference_has_index_and_period(a, k, s):
    """The power proof by whole-matrix comparisons, each power from its own
    mat_pow: A^k = A^{k+s}, A^{k-1} != A^{k-1+s} if k > 0, and
    A^{k+s/r} != A^k for every prime r | s."""
    head = mat_pow(a, k)
    if mat_pow(a, k + s) != head:
        return False
    if k > 0 and mat_pow(a, k - 1 + s) == mat_pow(a, k - 1):
        return False
    return all(mat_pow(a, k + s // r) != head for r in _primes_dividing(s))


def _mutated_pairs(k, s):
    """The pair (k, s) itself and the claims next to it: (k + 1, s),
    (k - 1, s) when k > 0, (k, 2s), (k, s/r) for every prime r | s, and
    (k, s + 1)."""
    pairs = [(k, s), (k + 1, s), (k, 2 * s), (k, s + 1)]
    if k > 0:
        pairs.append((k - 1, s))
    return pairs + [(k, s // r) for r in _primes_dividing(s)]


def _eigenvector_start(rng, blocks):
    """U * diag(1, B) * U^-1 with B = the conjugated blocks and U the
    unimodular matrix with first column (1, ..., d) and otherwise I, so
    that A (1, ..., d) = (1, ..., d)."""
    inner = _conjugated(rng, blocks).entries
    d = len(inner) + 1
    u = [[i + 1 if j == 0 else int(i == j) for j in range(d)] for i in range(d)]
    u_inv = [[-(i + 1) if j == 0 and i else int(i == j) for j in range(d)] for i in range(d)]
    b = [[int(i == j == 0) for j in range(d)] for i in range(d)]
    for i, row in enumerate(inner):
        b[i + 1][1:] = row
    a = mat_mul(mat_mul(IntMatrix(u), IntMatrix(b)), IntMatrix(u_inv))
    assert a.apply(range(1, d + 1)) == tuple(range(1, d + 1))
    return a


class TestPowerProofEqualsReference:
    """_has_index_and_period (one squaring ladder, vector witnesses for the
    inequalities) against the whole-matrix reference, on true pairs and on
    the mutated claims around them."""

    @staticmethod
    def _assert_equal(a, k, s):
        for k2, s2 in _mutated_pairs(k, s):
            expected = _reference_has_index_and_period(a, k2, s2)
            assert tametorus.tameness._has_index_and_period(a, k2, s2) is expected, (a, k2, s2)
            assert expected is ((k2, s2) == (k, s)), (a, k2, s2)

    def test_every_two_by_two_matrix_in_box(self):
        # all 625 matrices with entries in {-2..2}; an untame one has no
        # true pair, so every pair within the bound is a claim on it
        tame = 0
        for c in product(range(-2, 3), repeat=4):
            a = IntMatrix([c[:2], c[2:]])
            verdict, pair = reference_oracle(a)
            if verdict == TAME:
                tame += 1
                self._assert_equal(a, pair[0], pair[1] - pair[0])
                continue
            for k in range(3):
                for s in range(1, 7):
                    assert tametorus.tameness._has_index_and_period(a, k, s) is False
                    assert _reference_has_index_and_period(a, k, s) is False
        assert tame == 109

    def test_tame_three_by_three_matrices_in_box(self, box_reference):
        matrices, _, oracle = box_reference(3, -1, 1)
        tame = 0
        for a, (verdict, pair) in zip(matrices, oracle):
            if verdict == TAME:
                tame += 1
                self._assert_equal(a, pair[0], pair[1] - pair[0])
        assert tame == 5383

    @pytest.mark.parametrize("d", range(4, 17))
    def test_conjugated_cyclotomic_blocks(self, d):
        rng = random.Random(15000 + d)
        for _ in range(2):
            a, k, s, _ = _tame_with_known_pair(rng, d)
            self._assert_equal(a, k, s)

    @pytest.mark.parametrize("d", [4, 6, 8, 16])
    def test_eigenvector_start_runs_the_unit_vector_fallback(self, monkeypatch, d):
        # A (1, ..., d) = (1, ..., d), so (1, ..., d) is no witness for any
        # inequality, and each one that holds needs some e_i
        drawn = []
        real = tametorus.tameness._witnesses

        def counting(n):
            for v in real(n):
                drawn.append(v)
                yield v

        monkeypatch.setattr(tametorus.tameness, "_witnesses", counting)
        rng = random.Random(15100 + d)
        k = d % 3
        orders, budget = [], d - 1 - k
        for n in (4, 3, 5, 7):
            if euler_phi(n) <= budget:
                orders.append(n)
                budget -= euler_phi(n)
        blocks = [_companion(_cyclotomic(n)) for n in orders] + [[[1]]] * budget
        if k:
            blocks.append(_nilpotent_block(k))
        a = _eigenvector_start(rng, blocks)
        s = math.lcm(*orders)
        self._assert_equal(a, k, s)
        ones = tuple(range(1, d + 1))
        assert drawn.count(ones) < len(drawn)
        assert all(v == ones or sorted(v) == [0] * (d - 1) + [1] for v in drawn)

    # (k, cyclotomic orders): k + s crosses a power of two, as for (2, 30),
    # (1, 7) and (3, 2), or k is 0 or one
    _LADDER_CASES = [(2, (2, 3, 5)), (1, (7,)), (3, (2,)), (0, (5, 7, 8)), (1, (3, 4))]

    @staticmethod
    def _with_pair(k, orders):
        """U * diag(C(Phi_n) for n in orders, J_k(0)) * U^-1 and its period."""
        blocks = [_companion(_cyclotomic(n)) for n in orders]
        if k:
            blocks.append(_nilpotent_block(k))
        return _conjugated(random.Random(15300 + k), blocks), math.lcm(*orders)

    @pytest.mark.parametrize("k, orders", _LADDER_CASES)
    def test_pairs_whose_sum_crosses_a_power_of_two(self, k, orders):
        a, s = self._with_pair(k, orders)
        self._assert_equal(a, k, s)

    @pytest.mark.parametrize("k, orders", _LADDER_CASES)
    def test_products_are_the_ladder_to_k_plus_s_and_its_two_powers(self, monkeypatch, k, orders):
        a, s = self._with_pair(k, orders)
        products = _count_products(monkeypatch)
        assert tametorus.tameness._has_index_and_period(a, k, s)
        n = k + s
        # floor(log2(k + s)) squarings, then A^{k+s} and A^k from the rungs
        # at their set bits; A^0 = I is the empty product
        expected = n.bit_length() - 1 + bin(n).count("1") - 1
        assert len(products) == expected + (bin(k).count("1") - 1 if k else 0)

    def test_landau_cascade_proof_uses_a_logarithmic_number_of_products(self, monkeypatch):
        # d = 16, orders {3, 5, 7, 8}: s = 840 = s_max(16); one power per
        # check took 51 products, the ladder 9 squarings and 3 products
        rng = random.Random(15200)
        a = _conjugated(rng, [_companion(_cyclotomic(n)) for n in (3, 5, 7, 8)])
        products = _count_products(monkeypatch)
        assert tametorus.tameness._has_index_and_period(a, 0, 840)
        assert len(products) <= 2 * (840).bit_length()


_JORDAN_ONE = [[1, 1], [0, 1]]
_JORDAN_MINUS_ONE = [[-1, 1], [0, -1]]


def _non_squarefree(rng, d):
    """U * diag(repeated-root block, filler) * U^-1 in dimension d >= 3."""
    square = _companion(_cyclotomic(3) * _cyclotomic(3))
    repeated = rng.choice([_JORDAN_ONE, _JORDAN_MINUS_ONE] + ([square] if d >= 4 else []))
    filler = [_companion(IntPoly([-1] * (d - len(repeated)) + [1]))]
    return _conjugated(rng, [repeated] + filler)


def _hyperbolic(rng, d):
    """Unimodular U * C(x^d - x - 1) * U^-1 (x^d - x - 1 has a real root
    > 1), or U * diag(cat map, a random unimodular block) * U^-1."""
    if rng.random() < 0.5:
        return _conjugated(rng, [_companion(IntPoly([-1, -1] + [0] * (d - 2) + [1]))])
    return _conjugated(rng, [[[2, 1], [1, 1]], _random_unimodular(rng, d - 2)[0].to_lists()])


class TestUntameCertificateEquivalence:
    """UNTAME claims proved from mu against the oracle-backed reference."""

    def _assert_equal(self, a, claims):
        accepted = 0
        for cert in claims:
            expected = _exhaustive_certificate_check(a, cert)
            assert certificate_check(a, cert) is expected, (a, cert)
            accepted += expected
        return accepted

    def test_all_two_by_two_matrices(self):
        accepted = {}
        for combo in product(range(-2, 3), repeat=4):
            a = IntMatrix([combo[:2], combo[2:]])
            untame = reference_oracle(a)[0] == UNTAME
            accepted[untame] = accepted.get(untame, 0) + self._assert_equal(a, _untame_claims(a))
        assert accepted[False] == 0 and accepted[True] > 625

    @pytest.mark.parametrize("d", range(3, 9))
    def test_non_squarefree_and_hyperbolic(self, d):
        rng = random.Random(6000 + d)
        for build in (_non_squarefree, _hyperbolic):
            for _ in range(3):
                a = build(rng, d)
                assert reference_oracle(a)[0] == UNTAME, a
                assert self._assert_equal(a, _untame_claims(a)) > 0, a

    @pytest.mark.parametrize("d", range(3, 9))
    def test_zero_eigenvalue_claims(self, d):
        rng = random.Random(7000 + d)
        tame = [_conjugated(rng, [_nilpotent_block(d)]),
                _conjugated(rng, [_nilpotent_block(2), _nilpotent_block(d - 2)])]
        while len(tame) < 4:
            a, k, _, _ = _tame_with_known_pair(rng, d)
            if k > 0:
                tame.append(a)
        untame = [_conjugated(rng, [_JORDAN_ONE, _nilpotent_block(d - 2)]),
                  _conjugated(rng, [_companion(IntPoly([-1, -1] + [0] * (d - 3) + [1])),
                                    _nilpotent_block(1)])]
        for matrices, valid in ((tame, False), (untame, True)):
            for a in matrices:
                g = strip_x_factor(min_poly(a))[1]
                claim = TamenessCertificate(
                    verdict=UNTAME, kind=SEMICASCADE,
                    witness=UntameWitness(reason=ZERO_EIGENVALUE, stripped_min_poly=g),
                )
                assert _exhaustive_certificate_check(a, claim) is valid, a
                assert certificate_check(a, claim) is valid, a

    def test_deciders_compute_min_poly_once(self, monkeypatch, named, tame_examples):
        import tametorus.tameness

        calls = []
        real_min_poly = tametorus.tameness.min_poly

        def counting_min_poly(a):
            calls.append(a)
            return real_min_poly(a)

        monkeypatch.setattr(tametorus.tameness, "min_poly", counting_min_poly)
        for a in tame_examples + [named["rot4"], named["catmap"]]:
            for decide in (decide_semicascade, decide_cascade):
                if decide is decide_cascade and abs(a.det()) != 1:
                    continue
                calls.clear()
                decide(a)
                assert calls == [a]

    def test_untame_claims_make_no_oracle_calls(self, monkeypatch, named):
        import tametorus.tameness

        calls = []

        def counting(name):
            real = getattr(tametorus.tameness, name)

            def oracle(arg):
                calls.append(name)
                return real(arg)

            return oracle

        # Either name enumerates powers: the batch, or its batch of one.
        for name in ("oracle_semicascade", "oracle_semicascade_batch"):
            monkeypatch.setattr(tametorus.tameness, name, counting(name))
        zero = IntMatrix(_block_diag([[[2, 1], [1, 1]], [[0]]]))
        claims = [
            (named["catmap"], decide_semicascade(named["catmap"])),
            (named["catmap"], decide_cascade(named["catmap"])),
            (named["shear"], decide_semicascade(named["shear"])),
            (zero, TamenessCertificate(
                verdict=UNTAME, kind=SEMICASCADE,
                witness=UntameWitness(reason=ZERO_EIGENVALUE,
                                      stripped_min_poly=IntPoly([1, -3, 1])))),
        ]
        for a, cert in claims:
            assert cert.verdict == UNTAME and certificate_check(a, cert), cert
        assert calls == []


def _reference_decide_cascade(a):
    """decide_cascade as its own derivation: the witness from g and the
    power proof of (0, s), next to decide_semicascade's."""
    det = abs(a.det())
    if det != 1:
        raise DeterminantNotUnitError("cascade undefined: |det A| = %d, need 1" % det)
    _, g, s = tametorus.tameness._index_and_order(min_poly(a), a.d)
    if s is None:
        witness = tametorus.tameness._untame_witness(g, a.d)
        return TamenessCertificate(verdict=UNTAME, kind=CASCADE, witness=witness)
    cert = TamenessCertificate(verdict=TAME, kind=CASCADE, period_s=s, minimal_order_m=s)
    if not tametorus.tameness._has_index_and_period(a, 0, s):
        raise AssertionError("internal error: certificate failed self-check: %r" % (cert,))
    return cert


def _outcome(decide, a):
    """The certificate decide returns, or the type and message it raises."""
    try:
        return decide(a)
    except Exception as exc:  # the caller compares it with the other side's
        return type(exc), str(exc)


def _box(d, values):
    """Every d x d matrix with entries in values, in product order."""
    for combo in product(values, repeat=d * d):
        yield IntMatrix([combo[i * d:(i + 1) * d] for i in range(d)])


class TestDecideCascadeEqualsReference:
    """decide_cascade, which reads decide_semicascade's certificate, against
    the separate derivation it replaced, certificate for certificate and
    exception for exception."""

    @staticmethod
    def _assert_same(matrices):
        verdicts = set()
        for a in matrices:
            got = _outcome(decide_cascade, a)
            assert got == _outcome(_reference_decide_cascade, a), a
            verdicts.add(got.verdict if isinstance(got, TamenessCertificate) else got[0])
        return verdicts

    @pytest.mark.parametrize("d, values", [(2, range(-2, 3)), (3, (-1, 0, 1))])
    def test_every_unimodular_matrix_in_box(self, d, values):
        matrices = [a for a in _box(d, values) if abs(a.det()) == 1]
        assert self._assert_same(matrices) == {TAME, UNTAME}

    @pytest.mark.parametrize("d", range(4, 17))
    def test_conjugated_cyclotomic_blocks(self, d):
        rng = random.Random(1600 + d)
        unimodular, singular = [], []
        while len(unimodular) < 2 or not singular:
            a, k, _, _ = _tame_with_known_pair(rng, d)
            (singular if k else unimodular).append(a)
        # x^d - x - 1 is squarefree, so its companion exhausts the order bound
        selmer = _conjugated(rng, [_companion(IntPoly([-1, -1] + [0] * (d - 2) + [1]))])
        untame = [_non_squarefree(rng, d), _hyperbolic(rng, d), selmer]
        matrices = unimodular + singular[:1] + untame
        assert self._assert_same(matrices) == {TAME, UNTAME, DeterminantNotUnitError}
        reasons = {decide_cascade(a).witness.reason for a in untame}
        assert reasons == {NON_SQUAREFREE, ORDER_BOUND_EXHAUSTED}

    @pytest.mark.parametrize("entries, det", [([[1, 0], [0, 0]], 0), ([[2, 0], [0, 1]], 2)])
    def test_determinant_not_unit(self, entries, det):
        a = IntMatrix(entries)
        message = "cascade undefined: |det A| = %d, need 1" % det
        assert _outcome(decide_cascade, a) == (DeterminantNotUnitError, message)
        assert _outcome(_reference_decide_cascade, a) == (DeterminantNotUnitError, message)


def _unit_by_min_poly(a):
    """|det A| = 1 as certificate_check reads it: mu = x^k * g, k = 0, |g(0)| = 1."""
    k, g = strip_x_factor(min_poly(a))
    return k == 0 and abs(g.coeffs[0]) == 1


class TestUnimodularFromMinPoly:
    """|det A| = 1 exactly when k = 0 and |g(0)| = 1, the lemma that lets
    certificate_check decide a CASCADE claim without a determinant."""

    def test_every_matrix_in_box(self):
        units = 0
        for d, values in ((2, range(-2, 3)), (3, (-1, 0, 1))):
            for a in _box(d, values):
                unit = abs(a.det()) == 1
                assert _unit_by_min_poly(a) is unit, a
                units += unit
        assert units == 7064

    @pytest.mark.parametrize("d", range(4, 17))
    def test_conjugated_families(self, d):
        # a block of determinant 0, 1 or +-2 next to blocks C(Phi_n), n != 2, of
        # determinant 1, with and without a block [-1] that flips the sign
        rng = random.Random(2000 + d)
        dets = set()
        for block in (_nilpotent_block(2), _JORDAN_ONE, [[2, 1], [1, 1]], [[2]], [[0, 2], [1, 0]]):
            for flip in ([], [[[-1]]]):
                blocks = [block] + flip
                while (left := d - sum(len(b) for b in blocks)):
                    n = rng.choice([n for n in range(1, 31) if n != 2 and euler_phi(n) <= left])
                    blocks.append(_companion(_cyclotomic(n)))
                a = _conjugated(rng, blocks)
                det = a.det()
                assert _unit_by_min_poly(a) is (abs(det) == 1), a
                dets.add(det)
        assert dets == {0, 1, -1, 2, -2}


class TestMinPolyKnownTame:
    """min_poly at d >= 3 against the minimal polynomial known by construction."""

    @pytest.mark.parametrize("d", range(3, 13))
    def test_min_poly_of_cyclotomic_blocks(self, d):
        rng = random.Random(5000 + d)
        for _ in range(4):
            a, _, _, mu = _tame_with_known_pair(rng, d)
            assert min_poly(a) == mu

    def test_min_poly_of_repeated_blocks(self):
        # diag(C(Phi_3), C(Phi_3), C(Phi_4), 1, 1) is derogatory: mu has
        # degree 5 in dimension 8
        rng = random.Random(5100)
        blocks = [_companion(_cyclotomic(n)) for n in (3, 3, 4)] + [[[1]]] * 2
        a = _conjugated(rng, blocks)
        assert min_poly(a) == _cyclotomic(1) * _cyclotomic(3) * _cyclotomic(4)


class TestSympyVerdictOracle:
    """decide_semicascade against a verdict read off sympy's factorization
    of the characteristic polynomial; shares no code with min_poly or the
    power-enumeration oracle.

    Let r be the product of the distinct irreducible factors of chi other
    than x. A is TAME iff every such factor is cyclotomic and
    A^d * r(A) = 0; its index is the least k with A^k * r(A) = 0 and its
    period the lcm of the factors' orders.
    """

    @staticmethod
    def _verdict(sympy, a, cyclotomic_order):
        x = sympy.Symbol("x")
        m = sympy.Matrix(a.to_lists())
        d = m.rows
        _, factors = sympy.factor_list(m.charpoly(x).as_expr(), x)
        factors = [sympy.Poly(f, x) for f, _ in factors if f != x]
        if not all(f.is_cyclotomic for f in factors):
            return UNTAME, None
        r = sympy.eye(d)
        for f in factors:
            value = sympy.zeros(d, d)
            for c in f.all_coeffs():
                value = value * m + c * sympy.eye(d)
            r = r * value
        k = 0
        while k < d and not r.is_zero_matrix:
            r = m * r
            k += 1
        if not r.is_zero_matrix:
            return UNTAME, None
        return TAME, (k, k + math.lcm(1, *(cyclotomic_order[f] for f in factors)))

    @staticmethod
    def _family(rng, d, kind):
        if kind == "random":
            return IntMatrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        if kind == "distinct":
            return _tame_with_known_pair(rng, d)[0]
        # "repeated" is tame; one J_2(1) or cat-map block makes A untame
        blocks = {"repeated": [], "jordan": [_JORDAN_ONE], "hyperbolic": [[[2, 1], [1, 1]]]}[kind]
        while (left := d - sum(len(b) for b in blocks)):
            if rng.random() < 0.25:
                blocks.append(_nilpotent_block(rng.randint(1, min(3, left))))
                continue
            block = _companion(_cyclotomic(rng.choice([n for n in range(1, 31)
                                                       if euler_phi(n) <= left])))
            blocks += [block] * rng.randint(1, left // len(block))
        return _conjugated(rng, blocks)

    def test_equals_decider_on_seeded_families(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        cap = MAX_DECIDE_DIMENSION
        cyclotomic_order = {sympy.Poly(sympy.cyclotomic_poly(n, x), x): n
                            for n in range(1, 2 * cap * cap + 1) if euler_phi(n) <= cap}
        rng = random.Random(6600)
        seen = set()
        for d in range(2, cap + 1):
            for kind in ("distinct", "repeated", "jordan", "hyperbolic", "random"):
                a = self._family(rng, d, kind)
                verdict, pair = self._verdict(sympy, a, cyclotomic_order)
                cert = decide_semicascade(a)
                assert cert.verdict == verdict, (kind, a)
                assert (tuple(cert.minimal_pair) if cert.minimal_pair else None) == pair, (kind, a)
                seen.add((kind, verdict))
        assert {("distinct", TAME), ("repeated", TAME), ("jordan", UNTAME),
                ("hyperbolic", UNTAME), ("random", TAME), ("random", UNTAME)} <= seen


@st.composite
def _block_family(draw, least_d, most_d):
    """U * diag(blocks) * U^-1 at d = least_d..most_d for a unimodular U, with its
    predicted verdict and witness reason and the pair (k, k + s) of its
    tame part: J_k(0) (k <= 2, absent when k = 0) and blocks C(Phi_n) of
    orders n with lcm s, led by a repeated C(Phi_n) (derogatory, TAME), by
    J_2(1) or C(Phi_n^2) (UNTAME, NON_SQUAREFREE), or by one hyperbolic
    block, the cat map or C(x^m - x - 1) (UNTAME, ORDER_BOUND_EXHAUSTED)."""
    d = draw(st.integers(least_d, most_d))
    kind = draw(st.sampled_from((TAME, NON_SQUAREFREE, ORDER_BOUND_EXHAUSTED)))
    k = draw(st.integers(0, 2))
    n = draw(st.sampled_from([n for n in range(1, 31) if 2 * euler_phi(n) <= d - k]))
    if kind == TAME:
        blocks, orders = [_companion(_cyclotomic(n))] * 2, [n]
    elif kind == NON_SQUAREFREE:
        blocks = [draw(st.sampled_from((_JORDAN_ONE, _companion(_cyclotomic(n) * _cyclotomic(n)))))]
        orders = []
    else:
        m = draw(st.integers(2, min(5, d - k)))
        selmer = _companion(IntPoly([-1, -1] + [0] * (m - 2) + [1]))
        blocks, orders = [draw(st.sampled_from(([[2, 1], [1, 1]], selmer)))], []
    if k:
        blocks.append(_nilpotent_block(k))
    while (left := d - sum(len(b) for b in blocks)):
        n = draw(st.sampled_from([n for n in range(1, 31) if euler_phi(n) <= left]))
        blocks += [_companion(_cyclotomic(n))] * draw(st.integers(1, left // euler_phi(n)))
        orders.append(n)
    a = _conjugated(draw(st.randoms(use_true_random=False)), blocks)
    return a, kind, k, math.lcm(1, *orders)


class TestBlockFamilies:
    """The decider and certificate_check at d = 4..MAX_DECIDE_DIMENSION on
    derogatory tame, non-squarefree and hyperbolic families, against what
    their blocks predict."""

    @settings(max_examples=100, deadline=None)
    @given(_block_family(4, 16))
    def test_verdict_witness_and_certify(self, family):
        self._check(family)

    @settings(max_examples=8, deadline=None)
    @given(_block_family(17, MAX_DECIDE_DIMENSION - 1))
    def test_verdict_witness_and_certify_up_to_the_cap(self, family):
        self._check(family)

    @settings(max_examples=6, deadline=None)
    @given(_block_family(MAX_DECIDE_DIMENSION, MAX_DECIDE_DIMENSION))
    def test_verdict_witness_and_certify_at_the_cap(self, family):
        self._check(family)

    @staticmethod
    def _check(family):
        a, kind, k, s = family
        cert = decide_semicascade(a)
        if kind == TAME:
            assert (cert.verdict, cert.minimal_pair, cert.witness) == (TAME, (k, k + s), None), a
        else:
            assert (cert.verdict, cert.minimal_pair, cert.witness.reason) == (UNTAME, None, kind), a
        assert certificate_check(a, cert)
        # every block but J_k(0) has determinant +-1
        assert (abs(a.det()) == 1) is (k == 0)
        if k == 0:
            assert certificate_check(a, decide_cascade(a))
        for k2, s2 in _mutated_pairs(k, s):
            valid = kind == TAME and (k2, s2) == (k, s)
            assert certificate_check(a, _pair_claim(k2, k2 + s2)) is valid, (a, k2, s2)
            if k2 == 0:
                order = TamenessCertificate(verdict=TAME, kind=CASCADE, period_s=s2,
                                            minimal_order_m=s2)
                assert certificate_check(a, order) is valid, (a, s2)


_IDENTITY_PRIME = 2 ** 61 - 1


def _identity_powers(a, p=None):
    """(A^d, A^{d+L}), L = lcm(order_bound(d).admissible_orders), from one
    squaring ladder to d + L; every entry is reduced mod p unless p is None."""
    d = a.d
    top = d + math.lcm(*order_bound(d).admissible_orders)

    def mod(v):
        return v if p is None else v % p

    def mul(x, y):
        cols = list(zip(*y))
        return tuple(tuple(mod(sum(map(operator.mul, row, col))) for col in cols) for row in x)

    rungs = [tuple(tuple(map(mod, row)) for row in a.entries)]
    while 1 << len(rungs) <= top:
        rungs.append(mul(rungs[-1], rungs[-1]))

    def power(n):
        out = IntMatrix.identity(d).entries
        for i, rung in enumerate(rungs):
            if n >> i & 1:
                out = mul(out, rung)
        return out

    return power(d), power(top)


def _identity_verdict(a):
    """TAME or UNTAME by one identity, with neither mu, its order search
    nor s_max(d): A is tame exactly when A^d = A^{d+L(d)}, where
    L(d) = lcm{n : phi(n) <= d}.

    Lemma. Let A be tame with least pair (k, k + s). Its index k is the
    multiplicity of x in mu, so k <= deg mu <= d. Its period s is the order
    of x modulo the x-stripped part g of mu, a product of distinct Phi_n of
    total degree <= d, so s is the lcm of orders n with phi(n) <= d
    (certificate_check, point 2) and divides L(d). From A^k on the powers
    repeat with period s (the cyclic-monoid argument), and d >= k, so
    A^d = A^{d+L(d)}. Conversely, A^d = A^{d+L(d)} is a repetition of
    powers, so the power semigroup is finite: A is tame.

    The powers are compared first mod the prime p = 2^61 - 1. If they
    differ mod p they differ over Z, an exact proof of UNTAME, at a cost
    that does not depend on the size of A's entries. Otherwise they are
    compared over Z. For a tame A every rung of the ladder is one of its
    finitely many powers, so the entries stay bounded; an untame A whose
    powers agree mod p (an unlucky prime, such as A = (2^61) at d = 1,
    where 2^61 = 1 mod p) is decided over Z too, at a cost that grows with
    ||A||^(d+L)."""
    low, high = _identity_powers(a, _IDENTITY_PRIME)
    if low == high:
        low, high = _identity_powers(a)
    return TAME if low == high else UNTAME


class TestIdentityOracle:
    """decide_semicascade's verdict against _identity_verdict up to
    d = MAX_DECIDE_DIMENSION, beyond the reach of sympy's factorization."""

    def test_named_and_cyclotomic_companions(self, named):
        # rot4 at d = 2 has A^2 != A^L(2) = I; C(Phi_5) at d = 4 has period
        # 5, which divides L(4) = 60 but not s_max(4) = 12
        matrices = list(named.values()) + [
            IntMatrix(_companion(_cyclotomic(n))) for n in (5, 7, 8, 9, 12, 15)]
        matrices += [IntMatrix(_block_diag([_companion(_cyclotomic(5)), _nilpotent_block(2)]))]
        for a in matrices:
            assert _identity_verdict(a) == decide_semicascade(a).verdict, a

    def test_unlucky_prime_is_decided_over_the_integers(self):
        a = IntMatrix([[2 ** 61]])
        low, high = _identity_powers(a, _IDENTITY_PRIME)
        assert low == high
        assert _identity_verdict(a) == UNTAME == decide_semicascade(a).verdict

    @settings(max_examples=40, deadline=None)
    @given(_block_family(4, MAX_DECIDE_DIMENSION))
    def test_block_families(self, family):
        a, kind, _, _ = family
        assert _identity_verdict(a) == decide_semicascade(a).verdict == (
            TAME if kind == TAME else UNTAME), a

    @pytest.mark.parametrize("d", [17, 23, 29])
    def test_random_matrices_with_large_entries(self, d):
        rng = random.Random(5000 + d)
        a = IntMatrix([[rng.randint(-2 ** 16, 2 ** 16) for _ in range(d)] for _ in range(d)])
        assert _identity_verdict(a) == decide_semicascade(a).verdict, a

    @pytest.mark.parametrize("d", [5, 9, 13])
    def test_random_matrices_with_64_bit_entries(self, d):
        rng = random.Random(6400 + d)
        a = IntMatrix([[rng.randint(-2 ** 64, 2 ** 64) for _ in range(d)] for _ in range(d)])
        assert _identity_verdict(a) == decide_semicascade(a).verdict, a

    @pytest.mark.parametrize("d, lo, hi, orbits, tame",
                             [(3, -1, 1, 1950, 503), (4, 0, 1, 1740, 147)])
    def test_every_orbit_representative_of_a_box(self, d, lo, hi, orbits, tame):
        # Both verdicts are the same on a whole symmetry orbit (sweep_box's
        # lemma), so the representatives cover the box. sweep_box numbers the
        # orbits in walk order: the first matrix of each class number is the
        # representative of its orbit.
        classes, _ = sweep_box(d, lo, hi)
        representatives = []
        for combo, c in zip(product(range(lo, hi + 1), repeat=d * d), classes, strict=True):
            if c == len(representatives):
                representatives.append(IntMatrix([combo[i * d : (i + 1) * d] for i in range(d)]))
        verdicts = [_identity_verdict(a) for a in representatives]
        assert verdicts == [decide_semicascade(a).verdict for a in representatives]
        assert (len(verdicts), verdicts.count(TAME)) == (orbits, tame)
