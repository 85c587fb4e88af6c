"""Tests for the benchmark's own pieces: the corpus generator against the
package's brute-force oracle, the calibration arithmetic and guard, the
span accounting, the traced replay, and the declared metric names.

Run with: PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from tametorus.exactalg import IntMatrix, min_poly  # noqa: E402
from tametorus.tameness import TAME, UNTAME, oracle_semicascade, order_bound  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_s_max_matches_order_bound():
    for d in range(1, 13):
        assert corpus.s_max(d) == order_bound(d).s_max


@pytest.mark.parametrize("orders,k,d", [((3,), 0, 2), ((4,), 1, 3), ((6, 4), 0, 4), ((5,), 1, 5),
                                        ((3, 4), 2, 6), ((2, 3), 0, 4)])
def test_tame_builder_matches_oracle(orders, k, d):
    rng = random.Random(hash((orders, k, d)))
    for _ in range(3):
        a = IntMatrix(corpus.tame_matrix(rng, orders, k, d))
        assert oracle_semicascade(a) == (TAME, (k, k + math.lcm(*orders)))


@pytest.mark.parametrize("kind", ["SQUAREFREE", "UNIMODULAR", "REPEATED"])
def test_untame_builder_matches_oracle(kind):
    rng = random.Random(kind)
    for d in (4, 5, 6):
        a, mu = corpus.random_untame(rng, d, kind)
        assert oracle_semicascade(IntMatrix(a))[0] == UNTAME
        assert [int(c) for c in min_poly(IntMatrix(a)).int_coeffs()] == mu
        assert corpus.spectral_radius(a) > 1.01
        if kind == "UNIMODULAR":
            assert abs(IntMatrix(a).det()) == 1


def _tame_count(d, lo, hi):
    """Tame matrices in a box, by plain power enumeration (A^p = A^q)."""
    limit = d + corpus.s_max(d)
    count = 0
    for combo in product(range(lo, hi + 1), repeat=d * d):
        a = [list(combo[i * d:(i + 1) * d]) for i in range(d)]
        seen, power = set(), corpus.identity(d)
        for _ in range(limit + 1):
            key = tuple(map(tuple, power))
            if key in seen:
                count += 1
                break
            seen.add(key)
            power = corpus.matmul(power, a)
    return count


@pytest.mark.parametrize("box", sorted(corpus.SWEEP_TAME_COUNTS))
def test_sweep_table(box):
    assert _tame_count(*box) == corpus.SWEEP_TAME_COUNTS[box]


def _cli(job):
    elapsed, code, text = run.invoke(job)
    assert code == 0
    return json.loads(text)


def test_jobs_of_every_command_pass_their_checks():
    from checks import check

    rng = random.Random(7)
    jobs = [
        corpus.tame_job(rng, "semicascade", 5, (3, 4), 1),
        corpus.tame_job(rng, "cascade", 6, (5,), 0),
        corpus.untame_certify_job(rng, 6, "SEMICASCADE", "ORDER_BOUND_EXHAUSTED"),
        corpus.untame_certify_job(rng, 6, "CASCADE", "ORDER_BOUND_EXHAUSTED"),
        corpus.untame_certify_job(rng, 7, "SEMICASCADE", "NON_SQUAREFREE"),
        corpus.sweep_job(*corpus.WARMUP_BOX),
        corpus.simulate_job(rng, 2, True),
        corpus.simulate_job(rng, 3, False),
        corpus.frequencies_job(rng, 2, False),
        corpus.frequencies_job(rng, 3, True),
        corpus.sidon_job(rng, 2),
    ]
    for job in jobs:
        assert check(job, _cli(job)) is None, job.command


def test_check_rejects_a_wrong_answer():
    from checks import check

    job = corpus.tame_job(random.Random(1), "semicascade", 4, (3,), 1)
    report = _cli(job)
    report["result"]["exact"]["certificate"]["minimal_pair"] = [0, 3]
    assert "minimal pair" in check(job, report)


def test_rounds_are_seeded():
    def signature(seed):
        return [job.stdin for job in next(corpus.Corpus("probes", seed).rounds())]

    assert signature(3) == signature(3)
    assert signature(3) != signature(4)


def test_scale_and_percentile():
    nominal = calib.NOMINAL_KERNEL_S["python"]
    assert calib.scale(1.0, nominal, nominal) == pytest.approx(1.0)
    # A machine half as fast doubles the kernel time and halves the scale.
    assert calib.scale(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
    assert calib.scale(1.0, nominal, 3 * nominal) == pytest.approx(0.5)
    assert calib.scale(1.0, 0.01, 0.01, "numpy") == pytest.approx(calib.NOMINAL_KERNEL_S["numpy"] / 0.01)
    values = list(range(1, 101))
    assert run.percentile(values, 90) == (90, 10)
    assert run.percentile(values, 50) == (50, 50)


def test_calibration_guard_flags_a_live_child():
    # Only the flagged case is asserted: in a test process numpy's BLAS
    # threads may legitimately spin and trip the CPU check.
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert "child" in calib.Calibrator().measure()[1]
    finally:
        child.kill()
        child.wait(timeout=10)


GUARD_PROBE = """
import hashlib, os, sys, threading
sys.path.insert(0, sys.argv[1])
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import calib
cal = calib.Calibrator()
print(sum(cal.measure()[1] is not None for _ in range(20)))
stop = threading.Event()
data = bytes(1 << 24)
def spin():
    while not stop.is_set():
        hashlib.sha256(data).digest()  # releases the GIL, so it competes for the CPU
thread = threading.Thread(target=spin)
thread.start()
try:
    problems = [cal.measure()[1] for _ in range(20)]
finally:
    stop.set()
    thread.join()
print(sum("other threads" in (p or "") for p in problems))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_calibration_guard_flags_a_spinning_thread_in_a_pinned_process():
    # Pinned to one CPU, the process's CPU time cannot exceed wall time; the
    # guard must still see the other thread's share in the windows where
    # the scheduler runs it.
    proc = subprocess.run(
        [sys.executable, "-c", GUARD_PROBE, str(BENCH)], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, **run.CHILD_ENV),
    )
    assert proc.returncode == 0, proc.stderr
    flagged_clean, flagged_busy = map(int, proc.stdout.split())
    assert flagged_clean == 0
    assert flagged_busy > 0


def test_span_accounting():
    tracer = spans.Tracer()
    with tracer.span(spans.JOB):
        with tracer.span("cli.run"):
            time.sleep(0.002)
            with tracer.span("exactalg.min_poly"):
                time.sleep(0.002)
        with tracer.span("cli.emit"):
            pass
    layers, problem = tracer.job_tree()
    assert problem is None
    assert layers["cli.run"][1] >= layers["exactalg.min_poly"][1] > 0
    assert layers["cli.run"][2] == pytest.approx(layers["cli.run"][1] - layers["exactalg.min_poly"][1])
    own = sum(stats[2] for stats in layers.values())
    assert own == pytest.approx(tracer.job_seconds())
    tracer.spans[2][1] = tracer.spans[0][1] - 1.0  # a child starting before its job
    assert "escapes" in tracer.job_tree()[1]


def test_replay_reproduces_the_cli_and_restores_call_sites():
    import tametorus.cli as cli_module

    before = cli_module.decide_cascade
    rng = random.Random(2)
    tracer = spans.Tracer()
    for job in (corpus.tame_job(rng, "cascade", 6, (3, 4), 0),
                corpus.untame_certify_job(rng, 6, "SEMICASCADE", "ORDER_BOUND_EXHAUSTED"),
                corpus.frequencies_job(rng, 2, True),
                corpus.sidon_job(rng, 2)):
        report = _cli(job)
        replayed = json.loads(spans.replay(job, tracer))
        assert {**replayed, "timing_ms": 0} == {**report, "timing_ms": 0}
        layers, problem = tracer.job_tree()
        assert problem is None and "cli.run" in layers
    assert cli_module.decide_cascade is before
    assert tracer.missing == []
    assert tracer.counts["tameness.order_of_x_mod.steps"] > 0


def test_declared_metrics():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert [w["name"] for w in declared["workloads"]] == list(corpus.WORKLOADS)
    for name in list(end_to_end) + list(per_layer) + list(corpus.WORKLOADS):
        assert NAME_RE.match(name), name
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
