"""The mutant catalogue of tests/mutants, checked without running it: each
mutant's text occurs exactly once in its file, the mutated module still
parses, and the tests that must kill it exist. The catalogue itself runs
with python tests/mutants/run_mutants.py."""

import ast
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "run_mutants", Path(__file__).resolve().parent / "mutants" / "run_mutants.py")
runner = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(runner)


def test_every_mutant_applies_once_and_parses():
    entries = runner.load()
    assert len({entry["name"] for entry in entries}) == len(entries) >= 10
    for entry in entries:
        assert entry["replacement"] != entry["text"]
        ast.parse(runner.mutated(entry), filename=entry["file"])
        assert entry["tests"], entry["name"]
        for test_id in entry["tests"]:
            path, *_, name = test_id.split("::")
            source = (runner.ROOT / path).read_text()
            assert "def %s(" % name.split("[")[0] in source, test_id
