import os
from itertools import product
from pathlib import Path

import pytest

from tametorus import IntMatrix, decide_semicascade, oracle_semicascade_batch

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


# Boxes of at most 3^9 matrices keep their reference for the session: the
# d=3 {-1..1} box is checked against it by tests in test_cli and
# test_tameness. A d=4 {0,1} reference would hold ~70 MB for one test.
_KEPT_BOX_SIZE = 3 ** 9


@pytest.fixture(scope="session")
def box_reference():
    """(d, lo, hi) -> (matrices, certs, oracle): every d x d matrix with
    entries in lo..hi, in itertools.product order over its row-major
    entries, with its own decide_semicascade certificate and its
    oracle_semicascade_batch answer. Each matrix is decided on its own, with
    no orbit and no memo, so the result is the per-matrix reference for
    sweep_box and the sweep command."""
    kept = {}

    def reference(d, lo, hi):
        box = (d, lo, hi)
        if box in kept:
            return kept[box]
        matrices = [IntMatrix([combo[i * d : (i + 1) * d] for i in range(d)])
                    for combo in product(range(lo, hi + 1), repeat=d * d)]
        certs = [decide_semicascade(a) for a in matrices]
        oracle = []
        for start in range(0, len(matrices), 2048):
            oracle += oracle_semicascade_batch(matrices[start : start + 2048])
        if len(matrices) <= _KEPT_BOX_SIZE:
            kept[box] = matrices, certs, oracle
        return matrices, certs, oracle

    return reference
