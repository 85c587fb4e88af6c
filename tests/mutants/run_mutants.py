"""Mutation check of the test suite: every mutant in catalogue.json must be
killed, that is, make at least one of its listed tests fail.

A catalogue entry names a file under the repository, an exact text that
occurs once in it, the text's replacement and the test ids that must
fail. For each entry the runner copies src/ and tests/ into a fresh
temporary directory, applies the mutant there, and runs
`python -m pytest -x -q` on the entry's test ids with PYTHONPATH at the
copy's src, so the checkout itself is never changed. A mutant whose
tests all pass survives. The selected entries' tests first run once on an
unmutated copy, since a test that fails there kills nothing.

Run from anywhere: python tests/mutants/run_mutants.py [--catalogue FILE] [NAME ...]
Names select entries; none runs them all. Exits 1 if any mutant survives
(or its text is not found exactly once), 2 if the tests fail unmutated,
0 otherwise. The whole catalogue takes about 65 s on a 2-vCPU Xeon.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CATALOGUE = Path(__file__).resolve().with_name("catalogue.json")


def load(path=CATALOGUE):
    return json.loads(Path(path).read_text())


def mutated(entry, root=ROOT):
    """The text of the entry's file with its mutant applied; raises
    ValueError unless the text occurs exactly once."""
    source = (root / entry["file"]).read_text()
    count = source.count(entry["text"])
    if count != 1:
        raise ValueError("%s: text occurs %d times in %s" % (entry["name"], count, entry["file"]))
    return source.replace(entry["text"], entry["replacement"])


def tests_fail(tests, entry=None):
    """Whether `pytest -x` fails on the test ids in a copy of src/ and
    tests/, with the entry's mutant applied when an entry is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        if entry is not None:
            (copy / entry["file"]).write_text(mutated(entry))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True)
        if result.returncode not in (0, 1):
            raise RuntimeError("pytest exited %d on %s\n%s" % (result.returncode, tests,
                                                              result.stdout + result.stderr))
        return result.returncode == 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--catalogue", default=CATALOGUE)
    parser.add_argument("names", nargs="*")
    args = parser.parse_args(argv)
    entries = [e for e in load(args.catalogue) if not args.names or e["name"] in args.names]
    if tests_fail([test for entry in entries for test in entry["tests"]]):
        print("the catalogue's tests fail without a mutant")
        return 2
    survivors = []
    for entry in entries:
        start = time.perf_counter()
        try:
            outcome = "killed" if tests_fail(entry["tests"], entry) else "SURVIVED"
        except ValueError as exc:
            outcome = "NOT APPLIED (%s)" % exc
        print("%-45s %-10s %5.1f s" % (entry["name"], outcome, time.perf_counter() - start),
              flush=True)
        if outcome != "killed":
            survivors.append(entry["name"])
    print("%d of %d mutants killed" % (len(entries) - len(survivors), len(entries)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
