"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on a green run (pytest shows them on failures regardless).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import count, product

import numpy as np

from tametorus import (
    NON_SQUAREFREE,
    ORDER_BOUND_EXHAUSTED,
    TAME,
    UNTAME,
    AffineMap,
    IndependenceQuery,
    IntMatrix,
    IntPoly,
    certificate_check,
    convergence_probe,
    decide_cascade,
    decide_semicascade,
    escape_probe,
    estimate_sidon_ratio,
    exp_grid_average,
    extract_sidon,
    frequency_orbit,
    independence_check,
    oracle_semicascade,
    torus_grid,
    verify_quasi_independence,
)
from tametorus.cli import emit, main, parse_report
from tametorus.dynamics import TWO_PI


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d: FAIL - %s" % (num, description))
        raise
    print("ACCEPTANCE %d: PASS - %s" % (num, description))


def all_matrices_2x2(lo, hi):
    for combo in product(range(lo, hi + 1), repeat=4):
        yield IntMatrix([combo[:2], combo[2:]])


def test_criterion_1_oracle_equivalence():
    with criterion(1, "decider matches oracle on all 625 d=2 matrices in {-2..2}"):
        start = time.perf_counter()
        checked = 0
        for a in all_matrices_2x2(-2, 2):
            cert = decide_semicascade(a)
            verdict, pair = oracle_semicascade(a)
            assert cert.verdict == verdict, a
            if verdict == TAME:
                assert cert.minimal_pair == pair, a
            else:
                assert cert.minimal_pair is None, a
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 625
        assert elapsed < 10.0, "sweep took %.2f s, target < 10 s" % elapsed


def test_criterion_2_cascade_classification():
    with criterion(2, "minimal orders over unimodular {-1,0,1} matrices are {1,2,3,4,6}"):
        orders = set()
        for a in all_matrices_2x2(-1, 1):
            if abs(a.det()) != 1:
                continue
            cert = decide_cascade(a)
            if cert.verdict == TAME:
                orders.add(cert.minimal_order_m)
                assert certificate_check(a, cert), a
        assert orders == {1, 2, 3, 4, 6}, orders


def test_criterion_3_named_cases():
    with criterion(3, "named example matrices produce the expected certificates"):
        identity = IntMatrix([[1, 0], [0, 1]])
        cert = decide_semicascade(identity)
        assert cert.verdict == TAME and cert.minimal_pair == (0, 1)
        assert certificate_check(identity, cert)

        rot4 = IntMatrix([[0, -1], [1, 0]])
        cert = decide_cascade(rot4)
        assert cert.verdict == TAME and cert.minimal_order_m == 4
        assert certificate_check(rot4, cert)

        rot6 = IntMatrix([[0, -1], [1, 1]])
        cert = decide_cascade(rot6)
        assert cert.verdict == TAME and cert.minimal_order_m == 6
        assert certificate_check(rot6, cert)

        nilpotent = IntMatrix([[0, 1], [0, 0]])
        cert = decide_semicascade(nilpotent)
        assert cert.verdict == TAME and cert.minimal_pair == (2, 3)
        assert certificate_check(nilpotent, cert)

        shear = IntMatrix([[1, 1], [0, 1]])
        cert = decide_semicascade(shear)
        assert cert.verdict == UNTAME
        assert cert.witness.reason == NON_SQUAREFREE
        assert cert.witness.stripped_min_poly == IntPoly([1, -2, 1])
        assert certificate_check(shear, cert)

        catmap = IntMatrix([[2, 1], [1, 1]])
        cert = decide_semicascade(catmap)
        assert cert.verdict == UNTAME
        assert cert.witness.reason == ORDER_BOUND_EXHAUSTED
        assert cert.witness.s_max == 6
        assert certificate_check(catmap, cert)


def test_criterion_4_escape_probe():
    with criterion(4, "untame frequency orbits escape their bounds within 200 steps"):
        shear = IntMatrix([[1, 1], [0, 1]])
        catmap = IntMatrix([[2, 1], [1, 1]])
        # shear terms are exactly (1, n): linear growth, bound 150
        fo = frequency_orbit(shear, (1, 0), 200)
        escaped, first = escape_probe(fo, 150)
        assert escaped is True and first == 151
        assert fo.terms[first] == (1, 151)
        # cat map grows geometrically, bound 10**6
        fo = frequency_orbit(catmap, (1, 0), 200)
        escaped, first = escape_probe(fo, 10 ** 6)
        assert escaped is True and first == 15
        assert fo.terms[first] == (1346269, 832040)


def test_criterion_5_convergence_probe():
    with criterion(5, "tame maps with rational translations yield exact chains"):
        tame = [
            IntMatrix([[1, 0], [0, 1]]),
            IntMatrix([[0, -1], [1, 0]]),
            IntMatrix([[0, -1], [1, 1]]),
            IntMatrix([[0, 1], [0, 0]]),
            IntMatrix([[1, 0], [0, 0]]),
        ]
        rng = random.Random(20260810)
        grid = torus_grid(2, 32)
        indices = list(range(51))
        for a in tame:
            for _ in range(2):
                b = []
                for _ in range(2):
                    den = rng.choice([1, 2, 4])
                    b.append(float(Fraction(rng.randrange(den), den)) * TWO_PI)
                sub, dev = convergence_probe(AffineMap(a, b), indices, grid, 1e-9)
                assert len(sub) >= 5, (a, b, sub)
                assert dev <= 1e-9, (a, b, dev)


def test_criterion_6_discrete_fourier_identity():
    with criterion(6, "grid averages of exponentials reproduce the orthogonality rule"):
        shear = IntMatrix([[1, 1], [0, 1]])
        n_grid = 32
        fo = frequency_orbit(shear, (1, 0), 19)
        assert len(fo.terms) == 20
        for lam in fo.terms:
            expected = 1.0 if all(c % n_grid == 0 for c in lam) else 0.0
            avg = exp_grid_average(lam, n_grid)
            assert abs(avg - expected) < 1e-12, (lam, avg)
        # the rule's other branch, for frequencies that are multiples of N
        assert abs(exp_grid_average((n_grid, -2 * n_grid), n_grid) - 1.0) < 1e-12


def test_criterion_7_sidon_extraction():
    with criterion(7, "Sidon extraction from (k, k^2) verifies and estimates"):
        start = time.perf_counter()
        stream = ((k, k * k) for k in count(1))
        report = extract_sidon(stream, 12)
        assert len(report.selected) == 12
        assert report.quasi_independence_checked_up_to == 12
        assert verify_quasi_independence(report.selected)  # exact, 2 * 3^6 sums
        ratio = estimate_sidon_ratio(report.selected, trials=200, grid_per_axis=32, seed=604)
        again = estimate_sidon_ratio(report.selected, trials=200, grid_per_axis=32, seed=604)
        assert ratio == again  # bit-reproducible
        assert ratio < 10.0, ratio
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, "took %.2f s, target < 30 s" % elapsed


def test_criterion_8_independence_checker():
    with criterion(8, "independence checker rejects constants, accepts Rademacher"):
        constant = IndependenceQuery([np.zeros(64)], a=-1.0, b=1.0)
        assert independence_check(constant) is False
        n, g = 8, 256
        fns = [
            np.array([1.0 if (j >> k) & 1 else -1.0 for j in range(g)])
            for k in range(n)
        ]
        assert independence_check(IndependenceQuery(fns, a=-0.5, b=0.5)) is True


def test_criterion_9_cli_contract(capsys, tmp_path):
    with criterion(9, "CLI round-trips, honors exit codes, and sweeps end to end"):
        # round-trip: emit -> parse -> emit is a fixed point
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[2,1],[1,1]]}')
        assert main(["semicascade", "--input", str(path)]) == 0
        text = capsys.readouterr().out
        report = parse_report(text)
        assert emit(report, "json") == text.strip()
        assert report.result["exact"]["verdict"] == UNTAME

        # exit codes: 0 success, 2 input, 3 precondition, 4 cap
        bad = tmp_path / "bad.json"
        bad.write_text('{"d":2,"A":[[1,1]]}')
        assert main(["semicascade", "--input", str(bad)]) == 2
        capsys.readouterr()
        singular = tmp_path / "singular.json"
        singular.write_text('{"d":2,"A":[[1,0],[0,0]]}')
        assert main(["cascade", "--input", str(singular)]) == 3
        capsys.readouterr()
        big = tmp_path / "big.json"
        big.write_text('{"d":3}')
        assert main(["sweep", "--range=-2..2", "--input", str(big)]) == 4
        capsys.readouterr()

        # the sweep command reproduces criterion 1 from the command line
        assert main(["sweep", "--range=-2..2"]) == 0
        sweep_report = parse_report(capsys.readouterr().out)
        exact = sweep_report.result["exact"]
        assert exact["total"] == 625
        assert len(exact["entries"]) == 625
        assert exact["all_agree"] is True
        assert all(entry["agree"] for entry in exact["entries"])
