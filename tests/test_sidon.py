import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tametorus import (
    CapExceededError,
    MalformedInputError,
    StreamExhaustedError,
    estimate_sidon_ratio,
    extract_sidon,
    frequency_orbit,
    parse_stream,
    sidon,
    verify_quasi_independence,
)


def squares_stream():
    for k in itertools.count(1):
        yield (k, k * k)


def _reference_quasi_independence(vectors):
    """Reference: try all 3^n {-1,0,+1} patterns."""
    columns = list(zip(*vectors))
    for coeffs in itertools.product((-1, 0, 1), repeat=len(vectors)):
        if any(coeffs) and not any(sum(map(operator.mul, coeffs, col)) for col in columns):
            return False
    return True


def _reference_sups(vectors, trials, grid_per_axis, seed):
    """Reference: every trial's max |P| from its own full-grid product."""
    import numpy as np

    from tametorus.dynamics import torus_grid

    grid = torus_grid(len(vectors[0]), grid_per_axis)
    basis = np.exp(1j * (grid @ np.array(vectors, dtype=float).T))
    sups = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        coeffs = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(vectors)))
        sups.append(float(np.abs(basis @ coeffs).max()))
    return sups


def _reference_ratio(vectors, trials, grid_per_axis, seed):
    """Reference: the maximum of k / sup over every trial."""
    best = 0.0
    for sup in _reference_sups(vectors, trials, grid_per_axis, seed):
        best = max(best, len(vectors) / sup)
    return best


def _random_sidon_selection(rng, d, count):
    """extract_sidon's selection from a seeded stream of random vectors
    whose entries grow with their index."""
    stream = (tuple(rng.randint(-k, k) for _ in range(d)) for k in itertools.count(1))
    return extract_sidon(stream, count).selected


class TestExtract:
    def test_powers_of_two_all_selected(self):
        report = extract_sidon([(2 ** k,) for k in range(5)], 5)
        assert [v[0] for v in report.selected] == [1, 2, 4, 8, 16]
        assert report.quasi_independence_checked_up_to == 5

    def test_squares_stream_skips_until_rule_holds(self):
        report = extract_sidon(squares_stream(), 4)
        assert report.selected == [(1, 1), (2, 4), (3, 9), (5, 25)]

    def test_norm_growth_invariant(self):
        report = extract_sidon(squares_stream(), 10)
        total = 0
        for v in report.selected:
            norm = sum(abs(c) for c in v)
            assert norm > total
            total += norm

    def test_bounded_stream_exhausts(self):
        with pytest.raises(StreamExhaustedError):
            extract_sidon([(1, 0), (-1, 0)] * 50, 3)

    def test_endless_bounded_stream_hits_scan_cap(self):
        constant = itertools.repeat((1, 0))
        with pytest.raises(StreamExhaustedError):
            extract_sidon(constant, 3, max_scan=500)

    def test_zero_vectors_never_selected(self):
        report = extract_sidon([(0, 0), (1, 1), (0, 0), (3, 0)], 2)
        assert report.selected == [(1, 1), (3, 0)]

    def test_mixed_dimension_rejected(self):
        with pytest.raises(MalformedInputError):
            extract_sidon([(1, 0), (1,)], 2)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            extract_sidon(squares_stream(), 0)

    def test_output_is_quasi_independent(self):
        report = extract_sidon(squares_stream(), 12)
        assert verify_quasi_independence(report.selected)

    def test_frequency_orbit_as_stream(self, named):
        # untame orbits are unbounded, so extraction succeeds from them
        fo = frequency_orbit(named["catmap"], (1, 0), 40)
        report = extract_sidon(iter(fo.terms), 6)
        assert len(report.selected) == 6
        assert verify_quasi_independence(report.selected)


class TestQuasiIndependence:
    def test_singleton(self):
        assert verify_quasi_independence([(1, 0)]) is True

    def test_sum_relation_detected(self):
        assert verify_quasi_independence([(1, 0), (2, 0), (3, 0)]) is False

    def test_binary_powers(self):
        assert verify_quasi_independence([(1,), (2,), (4,), (8,)]) is True

    def test_difference_relation_detected(self):
        assert verify_quasi_independence([(5, 1), (5, 1)]) is False

    def test_empty(self):
        assert verify_quasi_independence([]) is True

    def test_cap(self):
        with pytest.raises(CapExceededError):
            verify_quasi_independence([(k,) for k in range(1, 14)])

    def test_bigint_fallback_path(self):
        # entries too large for the int64 fast path
        big = 2 ** 70
        vectors = [(big,), (2 * big,), (4 * big,)]
        assert verify_quasi_independence(vectors) is True
        assert verify_quasi_independence([(big,), (big,)]) is False

    def test_agrees_with_bruteforce_small(self):
        import random

        rng = random.Random(3131)
        for _ in range(30):
            n = rng.randint(1, 4)
            vs = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(n)]
            expected = True
            for coeffs in itertools.product((-1, 0, 1), repeat=n):
                if any(coeffs) and all(
                    sum(c * v[i] for c, v in zip(coeffs, vs)) == 0 for i in range(2)
                ):
                    expected = False
                    break
            assert verify_quasi_independence(vs) == expected, vs


class TestMeetInTheMiddle:
    def test_agrees_with_reference_on_random_sets(self):
        # small entries make dependent sets common: both answers are covered
        rng = random.Random(8080)
        outcomes = set()
        for _ in range(2000):
            n, d = rng.randint(0, 9), rng.randint(1, 3)
            vs = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)]
            expected = _reference_quasi_independence(vs)
            assert verify_quasi_independence(vs) == expected, vs
            outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "vectors",
        [
            [(0, 0)],
            [(1, 2), (0, 0), (5, 7)],
            [(1, 2), (3, 4), (1, 2)],
            [(1, 2), (3, 4), (-1, -2)],
            [(1,), (2,), (4,), (-4,)],
            [(7, -1, 2), (7, -1, 2)],
        ],
    )
    def test_zero_and_repeated_vectors(self, vectors):
        assert _reference_quasi_independence(vectors) is False
        assert verify_quasi_independence(vectors) is False

    def test_planted_relation_in_either_half(self):
        # a zero vector, a duplicate or a negated duplicate, inserted into an
        # independent set at every position, so it lands in either half
        rng = random.Random(8181)
        for _ in range(40):
            base = _random_sidon_selection(rng, rng.randint(1, 3), rng.randint(2, 7))
            planted = [
                tuple(0 for _ in base[0]),
                rng.choice(base),
                tuple(-c for c in rng.choice(base)),
            ]
            for extra in planted:
                for at in range(len(base) + 1):
                    vs = base[:at] + [extra] + base[at:]
                    assert verify_quasi_independence(vs) is False, vs

    def test_entries_beyond_2_to_the_70(self):
        rng = random.Random(8282)
        big = 2 ** 70
        outcomes = set()
        for _ in range(200):
            n, d = rng.randint(1, 7), rng.randint(1, 3)
            vs = [
                tuple(big * rng.randint(-2, 2) + rng.randint(-1, 1) for _ in range(d))
                for _ in range(n)
            ]
            expected = _reference_quasi_independence(vs)
            assert verify_quasi_independence(vs) == expected, vs
            outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("d", [2, 3])
    def test_twelve_vector_selection(self, d):
        selected = _random_sidon_selection(random.Random(8300 + d), d, 12)
        assert _reference_quasi_independence(selected) is True
        assert verify_quasi_independence(selected) is True

    @pytest.mark.parametrize("n, sizes", [(1, [1, 3]), (7, [27, 81]), (12, [729, 729])])
    def test_builds_two_half_tables(self, monkeypatch, n, sizes):
        # 3^(n // 2) and 3^(n - n // 2) signed sums, never the 3^n full patterns
        built = []
        real = sidon._signed_sums

        def recording(vectors, dim):
            sums = real(vectors, dim)
            built.append(len(sums))
            return sums

        monkeypatch.setattr(sidon, "_signed_sums", recording)
        assert verify_quasi_independence([(2 ** k,) for k in range(n)]) is True
        assert sorted(built) == sizes


class TestEstimateRatio:
    def test_single_frequency_is_exactly_one(self):
        assert estimate_sidon_ratio([(3, 2)], trials=5, grid_per_axis=16, seed=0) == 1.0

    def test_opposite_pair_cosine(self):
        # P = c1 e^{i x} + c2 e^{-i x} has sup |P| >= |c1| + |c2| attained,
        # so the ratio stays close to 1 on a grid hitting the maximum
        r = estimate_sidon_ratio([(1,), (-1,)], trials=20, grid_per_axis=64, seed=1)
        assert r < 1.01

    def test_reproducible(self):
        vs = [(1,), (2,), (4,), (8,), (16,)]
        r1 = estimate_sidon_ratio(vs, trials=50, grid_per_axis=64, seed=7)
        r2 = estimate_sidon_ratio(vs, trials=50, grid_per_axis=64, seed=7)
        assert r1 == r2

    def test_monotone_in_trials(self):
        vs = [(1,), (2,), (4,), (8,)]
        r50 = estimate_sidon_ratio(vs, trials=50, grid_per_axis=32, seed=5)
        r100 = estimate_sidon_ratio(vs, trials=100, grid_per_axis=32, seed=5)
        assert r100 >= r50

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_sidon_ratio([], trials=1, grid_per_axis=8, seed=0)
        with pytest.raises(ValueError):
            estimate_sidon_ratio([(1,), (1,)], trials=1, grid_per_axis=8, seed=0)
        with pytest.raises(ValueError):
            estimate_sidon_ratio([(1,)], trials=0, grid_per_axis=8, seed=0)


def _count_exact_trials(monkeypatch):
    """Record every full-grid product the estimate computes."""
    calls = []
    real = sidon._grid_sup

    def recording(basis, coeffs):
        calls.append(len(basis))
        return real(basis, coeffs)

    monkeypatch.setattr(sidon, "_grid_sup", recording)
    return calls


class TestPrunedEstimate:
    """The estimate computes full-grid products only for trials whose
    sub-grid bound can attain the least sup, and returns the bytes of the
    plain loop over every trial."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_reference_on_growing_streams(self, d):
        rng = random.Random(2700 + d)
        for seed in range(3):
            vs = _random_sidon_selection(rng, d, 12)
            got = estimate_sidon_ratio(vs, trials=200, grid_per_axis=32, seed=seed)
            assert got.hex() == _reference_ratio(vs, 200, 32, seed).hex(), (vs, seed)

    @pytest.mark.parametrize("trials", [1, 24, 25, 26, 200, 500])
    def test_matches_reference_at_chunk_edges(self, trials):
        vs = _random_sidon_selection(random.Random(2710), 2, 12)
        got = estimate_sidon_ratio(vs, trials=trials, grid_per_axis=32, seed=4)
        assert got.hex() == _reference_ratio(vs, trials, 32, 4).hex()

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 3),
        data=st.data(),
        trials=st.integers(1, 80),
        grid=st.integers(8, 32),
        seed=st.integers(0, 2 ** 32),
    )
    def test_matches_reference_on_small_sets(self, d, data, trials, grid, seed):
        vector = st.tuples(*[st.integers(-40, 40)] * d)
        vs = data.draw(st.lists(vector, min_size=1, max_size=12, unique=True))
        got = estimate_sidon_ratio(vs, trials=trials, grid_per_axis=grid, seed=seed)
        assert got.hex() == _reference_ratio(vs, trials, grid, seed).hex()

    def test_a_single_frequency_ties_every_trial(self, monkeypatch):
        # |P| = |c| |e^{i<v,x>}| is 1 up to rounding at every point of every
        # trial, so no bound rises above the least sup by the margin
        calls = _count_exact_trials(monkeypatch)
        got = estimate_sidon_ratio([(5, 3, 1)], trials=200, grid_per_axis=32, seed=0)
        assert got.hex() == "0x1.ffffffffffffep-1"
        assert got.hex() == _reference_ratio([(5, 3, 1)], 200, 32, 0).hex()
        assert calls == [32 ** 3] * 200

    def test_exact_when_a_bound_lies_half_the_margin_from_the_least_sup(self, monkeypatch):
        # The proof allows a complex64 bound up to the margin m above its
        # trial's sup, and any distance below it: rounding can put it on
        # either side. Every trial attaining the least sup gets sub-grid and
        # full-grid bounds m/2 above it, the others m/2 below it. At k = 1
        # the sups lie within ulps of each other, so the others come first,
        # in both orders, and set the least sup so far above the answer.
        import numpy as np

        vs = [(5, 3, 1)]
        sups = _reference_sups(vs, 200, 32, 0)
        least = min(sups)
        margin = (3 * 1 + 7) * 1 * 2.0 ** -24
        bounds = [least + margin / 2 if sup == least else least - margin / 2 for sup in sups]
        assert 0 < bounds.count(least + margin / 2) < 200
        rows = sidon._coefficients(1, 200, 0).astype(np.complex64)
        trial_of = {row.tobytes(): t for t, row in enumerate(rows)}
        assert len(trial_of) == 200

        def planted(points, coeffs):
            return [bounds[trial_of[row.tobytes()]] for row in coeffs]

        monkeypatch.setattr(sidon, "_bounds", planted)
        got = estimate_sidon_ratio(vs, trials=200, grid_per_axis=32, seed=0)
        assert got.hex() == _reference_ratio(vs, 200, 32, 0).hex()

    @pytest.mark.parametrize("k", [1, 2, 3, 12, 1000, 2 ** 18])
    def test_margin_covers_the_proved_error_bound(self, k):
        # Step 5 of the proof, in exact rationals: the bound on L - P stays
        # below m - k·v, and 14143/10000 exceeds sqrt(2).
        from fractions import Fraction

        u, v, root2 = Fraction(1, 2 ** 53), Fraction(1, 2 ** 24), Fraction(14143, 10000)
        assert root2 ** 2 > 2

        def gamma(n, x):
            return n * x / (1 - n * x)

        g, g32 = root2 * gamma(2 * k, u), root2 * gamma(2 * k, v)
        e = g + 2 * v + v * v + (1 + v) ** 2 * g32
        error = ((4 * v + 4 * u) * (1 + g) + (1 + 4 * v) * e) * k * (1 + root2 * u) ** 2
        assert error < (3 * k + 7) * k * v - k * v

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_aliased_frequencies_share_a_column(self, seed):
        # 1 and 33 agree modulo a 32-point grid: P = (c1 + c2) e^{ix}
        got = estimate_sidon_ratio([(1,), (33,)], trials=200, grid_per_axis=32, seed=seed)
        assert got.hex() == _reference_ratio([(1,), (33,)], 200, 32, seed).hex()

    def test_prunes_trials_that_cannot_set_the_answer(self, monkeypatch):
        calls = _count_exact_trials(monkeypatch)
        vs = _random_sidon_selection(random.Random(2720), 3, 12)
        got = estimate_sidon_ratio(vs, trials=200, grid_per_axis=32, seed=0)
        assert got.hex() == _reference_ratio(vs, 200, 32, 0).hex()
        assert 1 <= len(calls) <= 4
        assert set(calls) == {32 ** 3}

    @pytest.mark.parametrize("trials", [1, 25, 200])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 32])
    def test_batched_coefficients_equal_the_per_trial_draws(self, trials, seed):
        import numpy as np

        got = sidon._coefficients(12, trials, seed)
        for t in range(trials):
            rng = np.random.default_rng([seed, t])
            want = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 12))
            assert got[t].tobytes() == want.tobytes(), t


class TestStreamFormat:
    def test_parse_lines(self):
        vectors = list(parse_stream(["1 2", "", "  3\t-4 ", "5 6"]))
        assert vectors == [(1, 2), (3, -4), (5, 6)]

    def test_bad_line_rejected(self):
        with pytest.raises(MalformedInputError):
            list(parse_stream(["1 2", "x y"]))

    def test_line_past_the_component_cap_is_refused_unconverted(self):
        import tracemalloc

        assert list(parse_stream(["1 " * 32])) == [(1,) * 32]
        line = "x " * 1_000_000  # 2 MB
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="^stream line 2 has more than 32 comp"):
                list(parse_stream(["1 2", line]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_load_stream(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("1 1\n2 4\n3 9\n")
        from tametorus import load_stream

        assert load_stream(str(path)) == [(1, 1), (2, 4), (3, 9)]
