"""Batch command-line interface: parse jobs, run deciders and probes,
emit machine-readable reports.

Commands: semicascade, cascade, certify, simulate, frequencies, sidon,
sweep. Each is one entry of the _COMMANDS table: its help text, its
flags, the function that runs a job into a result and the function that
renders that result as text. Exit codes: 0 success, 2 input error,
3 precondition error, 4 documented cap exceeded: _DIMENSION_CAPS,
MAX_SWEEP_ENTRIES, MAX_SIMULATE_ITERS (simulate and frequencies --iters),
MAX_SIMULATE_WORK, dynamics' grid caps, CPython's int-to-str digit limit
for a report integer, and double range for a simulate or sidon entry,
orbit point, probe image or phase.
Verdicts are report data, never exit codes.
Matrix jobs are described by JSON: {"d": int, "A": [[int]], "b": [...]}
where translation entries are either decimal angles or rational
multiples of 2*pi written "p/q". Sidon jobs read the line-based stream
format (one integer vector per line) instead.

semicascade, cascade, certify and frequencies are exact integer work and
never load numpy, not even on an error path: translation angles parse to
tuples of floats. simulate, sidon and sweep load it on first use, inside
dynamics, sidon and tameness.oracle_semicascade_batch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields
from itertools import islice, product
from typing import Callable

from . import __version__
from .dynamics import (TWO_PI, AffineMap, convergence_probe, escape_probe, frequency_orbit,
                       grid_per_axis, torus_grid)
from .errors import (
    CapExceededError,
    DimensionInputError,
    MalformedInputError,
    NonIntegerInputError,
    TameTorusError,
)
from .exactalg import IntMatrix, IntPoly
from .sidon import (
    DEFAULT_MAX_SCAN,
    estimate_sidon_ratio,
    extract_sidon,
    parse_stream,
    verify_quasi_independence,  # noqa: F401  (perfbench's tracer wraps this name)
)
from .tameness import (
    TAME,
    TamenessCertificate,
    certificate_check,
    decide_cascade,
    decide_semicascade,
    decide_semicascade_batch,
    oracle_semicascade,  # noqa: F401  (perfbench's tracer wraps cli.oracle_semicascade)
    oracle_semicascade_batch,
)

__all__ = ["JobSpec", "Report", "parse_input", "run", "emit", "parse_report", "main"]

TOOL_NAME = "tametorus"

MAX_SWEEP_ENTRIES = 1_000_000

# Matrices per batched oracle call in sweep; at d = 4 their int64 powers
# take (4 + s_max(4) + 1) * 1024 * 16 * 8 bytes, about 2.2 MB.
_SWEEP_CHUNK = 1024

# Largest d that semicascade, cascade and certify accept. At d = 32 the
# slowest measured family, a dense random matrix with entries in +-2^16,
# takes ~2.5 s of CLI wall time per job, against ~0.3 s for entries in
# +-2 or an eigenvector start vector (BENCH_17.json). That cost grows
# with the entry size, which no cap bounds, so d is held at 32.
MAX_DECIDE_DIMENSION = 32
# Largest d for which a sweep box of two values per entry, 2^(d*d)
# matrices, fits MAX_SWEEP_ENTRIES. Beyond it only a one-value box fits,
# and semicascade answers that single matrix.
MAX_SWEEP_DIMENSION = math.isqrt(MAX_SWEEP_ENTRIES.bit_length() - 1)
_DIMENSION_CAPS = {
    "semicascade": MAX_DECIDE_DIMENSION,
    "cascade": MAX_DECIDE_DIMENSION,
    "certify": MAX_DECIDE_DIMENSION,
    "simulate": MAX_DECIDE_DIMENSION,  # convergence_probe runs decide_semicascade
    "sweep": MAX_SWEEP_DIMENSION,
}

# Largest simulate and frequencies --iters. Time and memory grow linearly
# with it; README's exit-code section gives the measured curves behind the
# value.
MAX_SIMULATE_ITERS = 100_000
# Largest (--iters + 1) * grid points * d of a simulate job: the convergence
# probe moves every grid coordinate once per iterate of its chain, and the
# chain can hold all of them. At the cap a job takes 8-10 s of CLI wall
# time at every d measured (README's exit-code section).
MAX_SIMULATE_WORK = 10 ** 8

_RATIONAL_RE = re.compile(r"^[+-]?\d+/[1-9]\d*$")
_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


@dataclass
class JobSpec:
    """One validated batch job: command, input echo, options.

    payload carries parsed objects (matrices, vectors, streams) for the
    handlers; it is never serialized into reports.
    """

    command: str
    input: dict
    options: dict
    payload: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class Report:
    """Machine-readable run report.

    result holds an "exact" sub-dict (integer-valued claims: verdicts,
    pairs, orders, frequency terms), a "floating" sub-dict (double
    precision probe output), or an "error" sub-dict; the split is the
    provenance marker required of every number in the report.
    """

    command: str
    input: dict
    options: dict
    result: dict
    timing_ms: float
    tool: dict = field(default_factory=lambda: {"name": TOOL_NAME, "version": __version__})

    def to_dict(self) -> dict:
        # Shallow on purpose: dataclasses.asdict would deep-copy the result.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def _require_int(value, context: str) -> int:
    if isinstance(value, bool):
        raise NonIntegerInputError("%s: booleans are not integers" % context)
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise NonIntegerInputError("%s: %r is not an integer" % (context, value))


def _parse_angle(value, context: str) -> float:
    """Angle given as a decimal radian value or as 'p/q' of a full turn."""
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise MalformedInputError(
                "%s: expected a number or 'p/q', got %r" % (context, value)
            )
        p, q = value.split("/")
        try:
            p, q = int(p), int(q)
        except ValueError as exc:
            # p or q beyond CPython's int-string digit limit
            raise MalformedInputError("%s: %s" % (context, exc)) from exc
        # int / int is correctly rounded
        return p % q / q * TWO_PI
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedInputError("%s: expected a number or 'p/q', got %r" % (context, value))
    try:
        angle = float(value)
    except OverflowError:
        angle = math.inf
    if not math.isfinite(angle):
        # JSON NaN, Infinity, -Infinity, 1e400 or an integer beyond double range
        raise MalformedInputError("%s: angle must be finite" % context)
    return angle


def _parse_angles(values, d: int, context: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise MalformedInputError("%s must be a list" % context)
    if len(values) != d:
        raise DimensionInputError(
            "%s has length %d, expected %d" % (context, len(values), d)
        )
    return tuple(_parse_angle(v, "%s[%d]" % (context, i)) for i, v in enumerate(values))


def parse_input(text: str, command: str = "semicascade", options: dict | None = None) -> JobSpec:
    """Parse and validate the structured JSON job description.

    Raises MalformedInputError for syntax/shape problems,
    DimensionInputError when A is not d x d or vectors have the wrong
    length, NonIntegerInputError when matrix entries are not integers,
    and CapExceededError when a semicascade, cascade, certify or simulate
    job has d > MAX_DECIDE_DIMENSION or a sweep job d > MAX_SWEEP_DIMENSION.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer beyond CPython's int-string digit limit
        raise MalformedInputError("input is not valid JSON: %s" % exc) from exc
    if not isinstance(data, dict):
        raise MalformedInputError("input must be a JSON object")
    if command not in _COMMANDS:
        raise MalformedInputError("unknown command %r" % command)

    if command != "sweep" and "d" not in data:
        raise MalformedInputError("missing required field 'd'")
    d = _require_int(data.get("d", 2), "d")
    if d < 1:
        raise MalformedInputError("d must be >= 1")
    cap = _DIMENSION_CAPS.get(command)
    if cap is not None and d > cap:
        raise CapExceededError("d = %d exceeds the cap of %d for %s" % (d, cap, command))
    payload: dict = {"d": d}
    if command == "sweep":
        return JobSpec(command=command, input=data, options=dict(options or {}), payload=payload)

    if "A" not in data:
        raise MalformedInputError("missing required field 'A'")
    a_rows = data["A"]
    if not isinstance(a_rows, list) or not all(isinstance(r, list) for r in a_rows):
        raise MalformedInputError("'A' must be a list of rows")
    if len(a_rows) != d or any(len(r) != d for r in a_rows):
        raise DimensionInputError(
            "'A' must be %dx%d, got rows of lengths %s" % (d, d, [len(r) for r in a_rows])
        )
    entries = [[_require_int(e, "A[%d][%d]" % (i, j)) for j, e in enumerate(row)]
               for i, row in enumerate(a_rows)]
    payload["a"] = IntMatrix(entries)

    payload["b"] = _parse_angles(data["b"], d, "'b'") if "b" in data else (0.0,) * d
    if command == "simulate":
        payload["x0"] = _parse_angles(data["x0"], d, "'x0'") if "x0" in data else (0.0,) * d
    if command == "frequencies":
        if "u" in data:
            u = data["u"]
            if not isinstance(u, list):
                raise MalformedInputError("'u' must be a list of integers")
            if len(u) != d:
                raise DimensionInputError("'u' has length %d, expected %d" % (len(u), d))
            payload["u"] = tuple(_require_int(c, "u[%d]" % i) for i, c in enumerate(u))
        else:
            payload["u"] = tuple(1 if i == 0 else 0 for i in range(d))
    if command == "certify":
        if "certificate" not in data or not isinstance(data["certificate"], dict):
            raise MalformedInputError("certify needs a 'certificate' object")
        try:
            payload["certificate"] = TamenessCertificate.from_dict(data["certificate"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError("bad certificate: %s" % exc) from exc

    return JobSpec(command=command, input=data, options=dict(options or {}), payload=payload)


# Result functions turn a job into a report's result dict; text functions
# render that dict as the lines of a text report. Result functions look
# the product functions up in this module's globals at call time, never
# through the table, so a wrapper installed on a module attribute (as
# perfbench's tracer does) sees every call.


def _result_decide(job: JobSpec) -> dict:
    decide = decide_cascade if job.command == "cascade" else decide_semicascade
    cert = decide(job.payload["a"])
    return {"exact": {"verdict": cert.verdict, "certificate": cert.to_dict()}}


def _text_decide(result: dict) -> list[str]:
    cert = result["exact"]["certificate"]
    lines = ["verdict: %s (%s)" % (cert["verdict"], cert["kind"])]
    if cert["verdict"] == TAME:
        if cert.get("minimal_pair") is not None:
            p, q = cert["minimal_pair"]
            lines.append(
                "certificate: A^%d = A^%d (index %d, period %d)"
                % (p, q, cert["index_k"], cert["period_s"])
            )
        else:
            m = cert["minimal_order_m"]
            lines.append("certificate: A^%d = I (order %d)" % (m, m))
    else:
        witness = cert.get("witness", {})
        g = IntPoly(witness.get("stripped_min_poly", []))
        lines.append("witness: %s, g(x) = %s" % (witness.get("reason"), g))
        if witness.get("s_max") is not None:
            lines.append("order bound exhausted: s_max = %d" % witness["s_max"])
        if witness.get("detail"):
            lines.append("detail: %s" % witness["detail"])
    return lines


def _result_certify(job: JobSpec) -> dict:
    ok = certificate_check(job.payload["a"], job.payload["certificate"])
    return {"exact": {"valid": ok}}


def _text_certify(result: dict) -> list[str]:
    return ["certificate valid: %s" % result["exact"]["valid"]]


def _capped_iters(opts: dict) -> int:
    n = opts["iters"]
    if n > MAX_SIMULATE_ITERS:
        raise CapExceededError("--iters %d exceeds the cap of %d" % (n, MAX_SIMULATE_ITERS))
    return n


def _result_simulate(job: JobSpec) -> dict:
    opts = job.options
    n = _capped_iters(opts)
    d = job.payload["a"].d
    per_axis = grid_per_axis(d, opts["grid"])
    work = (n + 1) * per_axis ** d * d
    if work > MAX_SIMULATE_WORK:
        raise CapExceededError(
            "--iters %d over %d^%d grid points is %d coordinate updates, beyond the cap of %d"
            % (n, per_axis, d, work, MAX_SIMULATE_WORK)
        )
    phi = AffineMap(job.payload["a"], job.payload["b"])
    grid = torus_grid(d, per_axis)
    orbit = phi.orbit(job.payload["x0"], n)
    sub, dev = convergence_probe(phi, list(range(n + 1)), grid, opts["tol"])
    return {
        "exact": {"subsequence": sub},
        "floating": {
            "max_deviation": dev,
            "orbit": [[float(c) for c in point] for point in orbit],
        },
    }


def _text_simulate(result: dict) -> list[str]:
    sub = result["exact"]["subsequence"]
    return [
        "convergent-looking subsequence (%d indices): %s" % (len(sub), sub),
        "max deviation: %.3e" % result["floating"]["max_deviation"],
    ]


def _result_frequencies(job: JobSpec) -> dict:
    opts = job.options
    fo = frequency_orbit(job.payload["a"], job.payload["u"], _capped_iters(opts))
    escaped, first = escape_probe(fo, opts["bound"])
    return {
        "exact": {
            "u": list(fo.u),
            "terms": [list(t) for t in fo.terms],
            "escaped": escaped,
            "first_escape_index": first,
        }
    }


def _text_frequencies(result: dict) -> list[str]:
    exact = result["exact"]
    at = " at index %d" % exact["first_escape_index"] if exact["escaped"] else ""
    return [
        "start frequency: %s" % exact["u"],
        "escaped: %s%s" % (exact["escaped"], at),
        "last term: %s" % exact["terms"][-1],
    ]


def _result_sidon(job: JobSpec) -> dict:
    opts = job.options
    report = extract_sidon(job.payload["stream"], opts["count"], max_scan=opts["max_scan"])
    ratio = estimate_sidon_ratio(
        report.selected, opts["trials"], opts["grid"], opts["seed"]
    )
    return {
        "exact": {
            "selected": [list(v) for v in report.selected],
            "quasi_independence_checked_up_to": report.quasi_independence_checked_up_to,
            # extract_sidon has checked this prefix and raises when it fails.
            "quasi_independent": True,
        },
        "floating": {"estimated_ratio": ratio},
    }


def _text_sidon(result: dict) -> list[str]:
    exact = result["exact"]
    return [
        "selected %d vectors: %s" % (len(exact["selected"]), exact["selected"]),
        "quasi-independent: %s (checked up to %d)"
        % (exact["quasi_independent"], exact["quasi_independence_checked_up_to"]),
        "estimated ratio: %.4f" % result["floating"]["estimated_ratio"],
    ]


def _result_sweep(job: JobSpec) -> dict:
    opts = job.options
    d = job.payload["d"]
    lo, hi = opts["range"]
    total = (hi - lo + 1) ** (d * d)
    if total > MAX_SWEEP_ENTRIES:
        raise CapExceededError(
            "sweep of %d matrices exceeds the cap of %d" % (total, MAX_SWEEP_ENTRIES)
        )
    entries = []
    tame = 0
    all_agree = True
    combos = product(range(lo, hi + 1), repeat=d * d)
    while chunk := [IntMatrix([combo[i * d : (i + 1) * d] for i in range(d)])
                    for combo in islice(combos, _SWEEP_CHUNK)]:
        for a, cert, (verdict, pair) in zip(
            chunk, decide_semicascade_batch(chunk), oracle_semicascade_batch(chunk)
        ):
            agree = cert.verdict == verdict and (
                cert.verdict != TAME or cert.minimal_pair == pair
            )
            all_agree = all_agree and agree
            tame += cert.verdict == TAME
            entries.append(
                {
                    "A": a.to_lists(),
                    "verdict": cert.verdict,
                    "minimal_pair": list(cert.minimal_pair) if cert.minimal_pair else None,
                    "oracle_verdict": verdict,
                    "oracle_pair": list(pair) if pair else None,
                    "agree": agree,
                }
            )
    return {
        "exact": {
            "d": d,
            "range": [lo, hi],
            "total": total,
            "tame_count": tame,
            "untame_count": total - tame,
            "all_agree": all_agree,
            "entries": entries,
        }
    }


def _text_sweep(result: dict) -> list[str]:
    exact = result["exact"]
    return [
        "swept %d matrices (d=%d, entries %d..%d): %d tame, %d untame"
        % (exact["total"], exact["d"], *exact["range"], exact["tame_count"], exact["untame_count"]),
        "decider/oracle agree: %s" % exact["all_agree"],
    ]


# Conditions a flag value must meet before a job does any work.
_REQUIREMENTS: dict[str, Callable] = {
    ">= 0": lambda value: value >= 0,
    ">= 1": lambda value: value >= 1,
    "finite and > 0": lambda value: math.isfinite(value) and value > 0,
}


@dataclass(frozen=True)
class _Command:
    """One CLI command. A flag is (flag, option key, type, default, help,
    requirement); the option key names the flag's value in JobSpec.options,
    and the requirement is a key of _REQUIREMENTS or None."""

    help: str
    result: Callable[[JobSpec], dict]
    text: Callable[[dict], list[str]]
    flags: tuple = ()
    input_required: bool = True


_COMMANDS: dict[str, _Command] = {
    "semicascade": _Command(
        "decide tameness of the iteration semigroup", _result_decide, _text_decide
    ),
    "cascade": _Command(
        "decide tameness of the iteration group (|det A| = 1)", _result_decide, _text_decide
    ),
    "certify": _Command("re-verify a claimed certificate", _result_certify, _text_certify),
    "simulate": _Command(
        "torus orbit plus convergence probe",
        _result_simulate,
        _text_simulate,
        (
            ("--iters", "iters", int, 50, "iterate indices 0..N", ">= 1"),
            ("--grid", "grid", int, None, "grid points per axis", ">= 1"),
            ("--tol", "tol", float, 1e-9, "chain tolerance", "finite and > 0"),
        ),
    ),
    "frequencies": _Command(
        "frequency orbit plus escape probe",
        _result_frequencies,
        _text_frequencies,
        (
            ("--iters", "iters", int, 50, "orbit length", ">= 1"),
            ("--bound", "bound", int, 10 ** 6, "escape sup-norm bound", ">= 1"),
        ),
    ),
    "sidon": _Command(
        "extract a Sidon subset from a vector stream",
        _result_sidon,
        _text_sidon,
        (
            ("--iters", "count", int, 12, "number of vectors to select", ">= 1"),
            ("--bound", "max_scan", int, DEFAULT_MAX_SCAN, "max candidates scanned", ">= 1"),
            ("--grid", "grid", int, 32, "estimation grid per axis", ">= 1"),
            ("--seed", "seed", int, 0, "estimation seed", ">= 0"),
        ),
    ),
    "sweep": _Command(
        "exhaustive decider-vs-oracle sweep",
        _result_sweep,
        _text_sweep,
        (("--range", "range", str, "-1..1", "entry range LO..HI (use --range=LO..HI)", None),),
        input_required=False,
    ),
}


def run(job: JobSpec) -> Report:
    """Dispatch a validated job to its module and wrap the result."""
    start = time.perf_counter()
    result = _COMMANDS[job.command].result(job)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return Report(
        command=job.command,
        input=job.input,
        options=job.options,
        result=result,
        timing_ms=elapsed_ms,
    )


def emit(report: Report, fmt: str = "json") -> str:
    """Serialize a report; json is stable and diff-friendly.

    Raises CapExceededError when the report holds an integer beyond
    CPython's int-to-str digit limit.
    """
    result = report.result
    try:
        if fmt == "json":
            return json.dumps(report.to_dict(), sort_keys=True, indent=2)
        if fmt == "text":
            if "error" in result:
                body = ["error: %s" % result["error"]["code"], result["error"]["message"]]
            else:
                body = _COMMANDS[report.command].text(result)
            header = "%s %s - %s" % (TOOL_NAME, report.tool["version"], report.command)
            return "\n".join([header, *body, "timing: %.1f ms" % report.timing_ms])
    except ValueError as exc:
        raise CapExceededError(
            "report holds an integer beyond the %d-digit limit of int-to-str conversion"
            % sys.get_int_max_str_digits()
        ) from exc
    raise ValueError("unknown format %r" % fmt)


def parse_report(text: str) -> Report:
    """Inverse of emit(..., 'json')."""
    return Report.from_dict(json.loads(text))


def _parse_range(text: str) -> tuple[int, int]:
    match = _RANGE_RE.match(text)
    if not match:
        raise MalformedInputError("range must look like LO..HI, got %r" % text)
    try:
        lo, hi = int(match.group(1)), int(match.group(2))
    except ValueError as exc:
        # a bound beyond CPython's int-string digit limit
        raise MalformedInputError("range bound: %s" % exc) from exc
    if lo > hi:
        raise MalformedInputError("empty range %d..%d" % (lo, hi))
    return lo, hi


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise MalformedInputError("cannot read input %r: %s" % (path, exc)) from exc


# Built once per process: parse_args keeps no state in the parser, and
# building it costs more than parsing a job's argv.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Tameness deciders and orbit probes for affine torus maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--input", required=command.input_required, help="job file, or - for stdin")
        p.add_argument("--format", choices=("json", "text"), default="json")
        for flag, key, kind, default, help_text, _ in command.flags:
            p.add_argument(
                flag, dest=key, metavar=flag[2:].upper(), type=kind, default=default, help=help_text
            )
    return parser


def _job_from_args(args) -> JobSpec:
    command = _COMMANDS[args.command]
    options = {key: getattr(args, key) for _, key, *_ in command.flags}
    for flag, key, *_, requirement in command.flags:
        value = options[key]
        if requirement and value is not None and not _REQUIREMENTS[requirement](value):
            raise MalformedInputError("%s must be %s, got %r" % (flag, requirement, value))
    text = _read_input(args.input) if args.input or command.input_required else "{}"
    if args.command == "sidon":
        stream = list(parse_stream(text.splitlines()))
        # The flag vocabulary has no --trials; 200 is the documented default.
        options["trials"] = 200
        return JobSpec(
            command=args.command,
            input={"stream_source": args.input, "vectors_supplied": len(stream)},
            options=options,
            payload={"stream": stream},
        )
    if args.command == "sweep":
        options["range"] = list(_parse_range(options["range"]))
    return parse_input(text, command=args.command, options=options)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = emit(run(_job_from_args(args)), args.format), 0
    except TameTorusError as exc:
        error = {"error": {"code": exc.code, "message": str(exc)}}
        report = Report(command=args.command, input={}, options={}, result=error, timing_ms=0.0)
        text, code = emit(report, args.format), exc.exit_code
    try:
        print(text)
    except BrokenPipeError:
        # The reader closed stdout (as `tametorus sweep | head -2` does).
        # Point stdout at devnull so the interpreter's final flush of what
        # is still buffered stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code
