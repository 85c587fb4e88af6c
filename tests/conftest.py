import os
from pathlib import Path

import pytest

from tametorus import IntMatrix

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
