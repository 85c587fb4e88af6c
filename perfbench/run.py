#!/usr/bin/env python3
"""Benchmark of the tametorus CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is taken from src/).
NAME is one of tame-long-period, untame-certify, sweep-boxes, probes, or
"all", which runs each of them in a fresh process and prints every one.

Each workload is a closed loop: one client, this process, sequential jobs
through tametorus.cli.main(argv) with stdin and stdout captured. Whole
rounds of the seeded corpus run until --seconds have passed and the tail
percentile has ten jobs beyond it. Every job is bracketed by the
calibration kernel (calib.py) and every output is checked (checks.py).

--trace 0 reports the end-to-end metrics, in calibrated seconds:
  setup_s           median over fresh interpreters of importing tametorus.cli
                    and completing the workload's fixed warm-up job
  throughput_per_s  jobs (sweep-boxes: matrices) per calibrated second
  job_p50_s         median calibrated job time
  job_tail_s        calibrated job time at the workload's tail percentile
  peak_rss_mb       peak RSS of this process, which ran the jobs
--trace 1 replays a fixed number of rounds through spans.replay and reports
per-layer calls, busy_s, self_s and failed, the exact counts, the import
times, and the diagnostics calib.kernel_s, raw.throughput_per_s and
trace.overhead_s. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import islice, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One process, one thread: a BLAS pool would add work outside the timed job.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 120
MIN_BEYOND_TAIL = 10

# Metrics of an untraced run, with their units.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_CHILD = """\
import time
start = time.perf_counter()
import tametorus.cli
imported = time.perf_counter()
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = tametorus.cli.main(json.loads(sys.argv[1]))
done = time.perf_counter()
print(json.dumps({"code": code, "import_s": imported - start,
                  "setup_s": done - start, "out": out.getvalue()}))
"""


def per_layer_units() -> dict:
    """Metrics of a traced run, with their units, in report order."""
    from spans import COUNTS, LAYERS, STATS

    units = {"%s.%s" % (layer, stat): "s" if stat.endswith("_s") else "count"
             for layer in LAYERS for stat in STATS}
    units.update(dict.fromkeys(COUNTS, "count"))
    units.update({
        "exactalg.max_entry_bits": "bits",
        "import.tametorus_s": "s",
        "import.numpy_s": "s",
        "calib.kernel_s": "s",
        "raw.throughput_per_s": "1/s",
        "trace.overhead_s": "s",
    })
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tametorus CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    """This process's environment (CHILD_ENV included, see main) with the
    package sources first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def invoke(job):
    """Run one job through the CLI in-process: (raw seconds, exit code, stdout).

    A job that raises gets exit code None and the exception as its output.
    """
    from tametorus import cli

    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(job.stdin)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashing job is a failed job, not a crashed run
        return time.perf_counter() - start, None, repr(exc)
    finally:
        sys.stdin = saved_stdin
    return time.perf_counter() - start, code, out.getvalue()


def judge(job, code, text) -> tuple[dict | None, str | None]:
    """Parse and check one CLI output: (report, problem)."""
    from checks import check

    if code != 0:
        return None, "exit code %s" % code
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, "output is not JSON: %s" % exc
    return report, check(job, report)


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class Setup:
    """Setup interpreters of one run: calibrated and raw setup seconds,
    calibrated import seconds, problems, and how many gave wrong output."""

    calibrated: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    imports: list = field(default_factory=list)
    numpy_imports: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    wrong: int = 0


def measure_setup(workload, cal, trace) -> Setup:
    """Calibrated setup times of fresh interpreters, plus import times.

    Importing (loading and initialising numpy's native code) follows the
    speed of native code and is scaled by the numpy kernel; the warm-up job
    is interpreter work and is scaled by the python kernel. With trace, the
    interpreters run under -X importtime and the cumulative numpy import is
    read from its report.
    """
    from calib import scale
    from corpus import warmup_job

    job = warmup_job(workload)
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", SETUP_CHILD]
    out = Setup()
    for _ in range(SETUP_RUNS):
        (p0, q0), (n0, r0) = cal.measure("python"), cal.measure("numpy")
        proc = subprocess.run(
            cmd + [json.dumps(job.argv)], input=job.stdin, capture_output=True,
            text=True, cwd=str(ROOT), env=child_env(), timeout=CHILD_TIMEOUT_S,
        )
        (n1, r1), (p1, q1) = cal.measure("numpy"), cal.measure("python")
        if proc.returncode != 0:
            out.wrong += 1
            out.problems.append("setup interpreter exited %d: %s" % (proc.returncode, proc.stderr[-500:]))
            continue
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        _, problem = judge(job, data["code"], data["out"])
        out.wrong += problem is not None
        problem = problem or q0 or r0 or r1 or q1
        if problem:
            out.problems.append("setup: %s" % problem)
            continue
        imported = scale(data["import_s"], n0, n1, "numpy")
        out.imports.append(imported)
        out.calibrated.append(imported + scale(data["setup_s"] - data["import_s"], p0, p1, "python"))
        out.raw.append(data["setup_s"])
        if trace:
            numpy_us = [int(line.split("|")[1]) for line in proc.stderr.splitlines()
                        if line.startswith("import time:") and line.split("|")[2].strip() == "numpy"]
            out.numpy_imports.append(scale(sum(numpy_us) * 1e-6, n0, n1, "numpy"))
    return out


def entry_bits(job) -> int:
    """Largest entry bit length of the highest power the job builds."""
    from tametorus.exactalg import IntMatrix, mat_pow

    if job.command == "sweep":
        d, lo, hi = job.box
        matrices = ([c[i * d:(i + 1) * d] for i in range(d)]
                    for c in product(range(lo, hi + 1), repeat=d * d))
    elif job.matrix is not None:
        matrices = [job.matrix]
    else:
        return 0
    return max(
        max(abs(e).bit_length() for row in mat_pow(IntMatrix(m), job.max_power).entries for e in row)
        for m in matrices
    )


def timed_run(workload, seed, seconds, cal, note):
    from calib import scale
    from corpus import TAIL_PERCENTILE, Corpus

    tail_pct = TAIL_PERCENTILE[workload]
    min_jobs = math.ceil(MIN_BEYOND_TAIL / (1.0 - tail_pct / 100.0))
    raw, calibrated, units = [], [], 0
    attempted, failed, wrong = 0, 0, 0
    start = time.perf_counter()
    for jobs in Corpus(workload, seed).rounds():
        for job in jobs:
            attempted += 1
            k0, p0 = cal.measure(job.kernel)
            elapsed, code, text = invoke(job)
            k1, p1 = cal.measure(job.kernel)
            _, problem = judge(job, code, text)
            if problem:
                wrong += 1
            problem = problem or p0 or p1
            if problem:
                failed += 1
                note("job %d (%s) failed: %s" % (attempted, job.command, problem))
                continue
            raw.append(elapsed)
            calibrated.append(scale(elapsed, k0, k1, job.kernel))
            units += job.matrices
        if time.perf_counter() - start >= seconds and attempted >= min_jobs:
            break
    if not calibrated:
        raise RuntimeError("no job of %s completed" % workload)
    tail, beyond = percentile(calibrated, tail_pct)
    note("job_tail_s is p%d of n=%d calibrated job times (%d beyond); slowest job %.3f s"
         % (tail_pct, len(calibrated), beyond, max(calibrated)))
    for kind, samples in cal.samples.items():
        if samples:
            note("calib.kernel_s[%s]=%.6f (median of %d)" % (kind, statistics.median(samples), len(samples)))
    note("raw.throughput_per_s=%.6g raw.job_p50_s=%.6g raw.job_tail_s=%.6g"
         % (units / sum(raw), statistics.median(raw), percentile(raw, tail_pct)[0]))
    metrics = {
        "throughput_per_s": units / sum(calibrated),
        "job_p50_s": statistics.median(calibrated),
        "job_tail_s": tail,
    }
    return metrics, attempted, failed, wrong


def traced_run(workload, seed, cal, note):
    from calib import scale
    from corpus import TRACE_ROUNDS, Corpus
    from spans import JOB, LAYERS, STATS, Tracer, replay

    tracer = Tracer()
    layers = {name: [0, 0.0, 0.0, 0] for name in LAYERS}
    untraced = traced = raw_untraced = 0.0
    units, bits = 0, 0
    attempted, failed, wrong = 0, 0, 0
    for jobs in islice(Corpus(workload, seed).rounds(), TRACE_ROUNDS[workload]):
        for job in jobs:
            attempted += 1
            k0, p0 = cal.measure(job.kernel)
            elapsed, code, text = invoke(job)
            k1, p1 = cal.measure(job.kernel)
            try:
                replayed = replay(job, tracer)
            except Exception as exc:  # the replay must not fail where the CLI did not
                replayed = "replay raised %r" % exc
            k2, p2 = cal.measure(job.kernel)
            report, problem = judge(job, code, text)
            if not problem:
                try:
                    again = json.loads(replayed)
                except json.JSONDecodeError:
                    again = replayed
                if not isinstance(again, dict) or {**again, "timing_ms": 0} != {**report, "timing_ms": 0}:
                    problem = "replayed output differs from the CLI output"
            job_layers, tree_problem = tracer.job_tree()
            if problem:
                wrong += 1
            problem = problem or tree_problem or p0 or p1 or p2
            if problem:
                failed += 1
                note("job %d (%s) failed: %s" % (attempted, job.command, problem))
                continue
            factor = scale(1.0, k1, k2, job.kernel)
            for name, (calls, busy, own, fails) in job_layers.items():
                if name == JOB:
                    continue
                stats = layers[name]
                stats[0] += calls
                stats[1] += busy * factor
                stats[2] += own * factor
                stats[3] += fails
            untraced += scale(elapsed, k0, k1, job.kernel)
            traced += tracer.job_seconds() * factor
            raw_untraced += elapsed
            units += job.matrices
            bits = max(bits, entry_bits(job))
    for missing in tracer.missing:
        note("trace: the product code has no call site %s" % missing)
    metrics = {"%s.%s" % (name, stat): value
               for name in LAYERS for stat, value in zip(STATS, layers[name])}
    metrics.update(tracer.counts)
    metrics["exactalg.max_entry_bits"] = bits
    metrics["calib.kernel_s"] = statistics.median(cal.samples["python"])
    metrics["raw.throughput_per_s"] = units / raw_untraced if raw_untraced else 0.0
    metrics["trace.overhead_s"] = traced - untraced
    return metrics, attempted, failed, wrong


def run_workload(args) -> dict:
    from calib import Calibrator
    from corpus import WHY

    def note(line):
        print("[%s] %s" % (args.workload, line), flush=True)

    note("why: " + WHY[args.workload])
    cal = Calibrator()
    setup = measure_setup(args.workload, cal, args.trace)
    for problem in setup.problems:
        note(problem)
    if not setup.calibrated:
        raise RuntimeError("no setup interpreter completed")
    if args.trace:
        metrics, attempted, failed, wrong = traced_run(args.workload, args.seed, cal, note)
        metrics["import.tametorus_s"] = statistics.median(setup.imports)
        metrics["import.numpy_s"] = statistics.median(setup.numpy_imports)
        units = per_layer_units()
    else:
        metrics, attempted, failed, wrong = timed_run(args.workload, args.seed, args.seconds, cal, note)
        note("raw.setup_s=%.6g" % statistics.median(setup.raw))
        metrics["setup_s"] = statistics.median(setup.calibrated)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError("metrics %s do not match the declared set" % sorted(set(metrics) ^ set(units)))
    attempted += SETUP_RUNS
    failed += len(setup.problems)
    for name, unit in units.items():
        note("%-45s %.6g %s" % (name, metrics[name], unit))
    return {
        "correct": wrong == 0 and setup.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own fresh process; metrics prefixed by workload."""
    from corpus import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=str(ROOT), env=child_env(), timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise RuntimeError("%s exited %d: %s" % (workload, proc.returncode, proc.stderr[-500:]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"]["%s.%s" % (workload, name)] = metric
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tametorus" / "cli.py").is_file():
        print("perfbench: no tametorus sources at %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    os.environ.update(CHILD_ENV)  # before numpy is first imported below
    if hasattr(os, "sched_setaffinity"):
        # The virtual CPUs of a shared machine change speed independently;
        # on one CPU the calibration brackets, the jobs and the setup
        # interpreters (which inherit the mask) all run at the same speed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from corpus import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
