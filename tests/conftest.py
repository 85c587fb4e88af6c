import operator
import os
from itertools import permutations, product
from pathlib import Path

import pytest

from tametorus import TAME, UNTAME, IntMatrix, decide_semicascade, order_bound

# The interpreters that tests start (python -m tametorus, python -c) import
# the package from this checkout, as the test process does.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def named():
    """The bundled d=2 example matrices used across the suite."""
    return {
        "identity": IntMatrix([[1, 0], [0, 1]]),
        "shear": IntMatrix([[1, 1], [0, 1]]),
        "rot4": IntMatrix([[0, -1], [1, 0]]),
        "rot6": IntMatrix([[0, -1], [1, 1]]),
        "nilpotent": IntMatrix([[0, 1], [0, 0]]),
        "projector": IntMatrix([[1, 0], [0, 0]]),
        "catmap": IntMatrix([[2, 1], [1, 1]]),
    }


@pytest.fixture(scope="session")
def tame_examples(named):
    return [named[k] for k in ("identity", "rot4", "rot6", "nilpotent", "projector")]


@pytest.fixture(scope="session")
def untame_examples(named):
    return [named[k] for k in ("shear", "catmap")]


def reference_oracle(a):
    """The tests' brute-force reference for oracle_semicascade and its batch:
    A^0, A^1, ..., A^Q with Q = d + s_max(d), by sequential products of
    Python ints, and the first repetition. The bound is complete: a finite
    power semigroup has index at most d and period at most s_max(d).
    Returns (verdict, minimal_pair or None)."""
    limit = a.d + order_bound(a.d).s_max
    columns = tuple(zip(*a.entries))
    seen = {}
    power = IntMatrix.identity(a.d).entries
    for n in range(limit + 1):
        if power in seen:
            return TAME, (seen[power], n)
        seen[power] = n
        power = tuple(tuple([sum(map(operator.mul, row, col)) for col in columns])
                      for row in power)
    return UNTAME, None


def permutation_images(rows):
    """The images of a matrix's rows under A -> P A P^T and A -> (P A P^T)^T,
    P a permutation matrix."""
    d = len(rows)
    images = set()
    for pi in permutations(range(d)):
        b = tuple(tuple(rows[pi[i]][pi[j]] for j in range(d)) for i in range(d))
        images.update((b, tuple(zip(*b))))
    return images


# Boxes of at most 3^9 matrices keep their reference for the session: the
# d=3 {-1..1} box is checked against it by tests in test_cli and
# test_tameness. A d=4 {0,1} reference would hold ~70 MB for one test.
_KEPT_BOX_SIZE = 3 ** 9


@pytest.fixture(scope="session")
def box_reference():
    """(d, lo, hi) -> (matrices, certs, oracle): every d x d matrix with
    entries in lo..hi, in itertools.product order over its row-major
    entries, with its own decide_semicascade certificate and its
    reference_oracle answer. decide_semicascade runs on each matrix, with no
    orbit and no memo, so the certificates are the per-matrix reference for
    sweep_box and the sweep command; the oracle column is shared per orbit.

    reference_oracle runs once per orbit of A -> P A P^T, A -> A^T: the
    images B have B^n = P A^n P^T, or its transpose, so A^p = A^q exactly
    when B^p = B^q, and every member has the first member's answer. The
    orbits come from permutation_images, not from sweep_box's walk; the
    d = 4 {0, 1} box takes 1,740 reference runs, not 65,536."""
    kept = {}

    def reference(d, lo, hi):
        box = (d, lo, hi)
        if box in kept:
            return kept[box]
        matrices = [IntMatrix([combo[i * d : (i + 1) * d] for i in range(d)])
                    for combo in product(range(lo, hi + 1), repeat=d * d)]
        certs = [decide_semicascade(a) for a in matrices]
        by_rows = {}
        for a in matrices:
            if a.entries not in by_rows:
                by_rows.update(dict.fromkeys(permutation_images(a.entries), reference_oracle(a)))
        oracle = [by_rows[a.entries] for a in matrices]
        if len(matrices) <= _KEPT_BOX_SIZE:
            kept[box] = matrices, certs, oracle
        return matrices, certs, oracle

    return reference
