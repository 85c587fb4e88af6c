"""Batch command-line interface: parse jobs, run deciders and probes,
emit machine-readable reports.

Commands: semicascade, cascade, certify, simulate, frequencies, sidon,
sweep. Exit codes: 0 success, 2 input error, 3 precondition error,
4 documented cap exceeded. Verdicts are report data, never exit codes.
Matrix jobs are described by JSON: {"d": int, "A": [[int]], "b": [...]}
where translation entries are either decimal angles or rational
multiples of 2*pi written "p/q". Sidon jobs read the line-based stream
format (one integer vector per line) instead.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from . import __version__
from .dynamics import TWO_PI, AffineMap, convergence_probe, escape_probe, frequency_orbit, torus_grid
from .errors import (
    CapExceededError,
    DimensionInputError,
    InputError,
    MalformedInputError,
    NonIntegerInputError,
    PreconditionError,
    TameTorusError,
)
from .exactalg import IntMatrix, IntPoly
from .sidon import estimate_sidon_ratio, extract_sidon, parse_stream, verify_quasi_independence
from .tameness import (
    TAME,
    TamenessCertificate,
    certificate_check,
    decide_cascade,
    decide_semicascade,
    oracle_semicascade,
)

__all__ = ["JobSpec", "Report", "parse_input", "run", "emit", "parse_report", "main"]

TOOL_NAME = "tametorus"

COMMANDS = ("semicascade", "cascade", "certify", "simulate", "frequencies", "sidon", "sweep")
MATRIX_COMMANDS = ("semicascade", "cascade", "certify", "simulate", "frequencies")

MAX_SWEEP_ENTRIES = 1_000_000

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
    tool: dict

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "input": self.input,
            "options": self.options,
            "result": self.result,
            "timing_ms": self.timing_ms,
            "tool": self.tool,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(
            command=data["command"],
            input=data["input"],
            options=data["options"],
            result=data["result"],
            timing_ms=data["timing_ms"],
            tool=data["tool"],
        )


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
        return float(Fraction(value) % 1) * TWO_PI
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


def _parse_angles(values, d: int, context: str) -> np.ndarray:
    if not isinstance(values, list):
        raise MalformedInputError("%s must be a list" % context)
    if len(values) != d:
        raise DimensionInputError(
            "%s has length %d, expected %d" % (context, len(values), d)
        )
    return np.array([_parse_angle(v, "%s[%d]" % (context, i)) for i, v in enumerate(values)])


def parse_input(text: str, command: str = "semicascade", options: dict | None = None) -> JobSpec:
    """Parse and validate the structured JSON job description.

    Raises MalformedInputError for syntax/shape problems,
    DimensionInputError when A is not d x d or vectors have the wrong
    length, NonIntegerInputError when matrix entries are not integers.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer beyond CPython's int-string digit limit
        raise MalformedInputError("input is not valid JSON: %s" % exc) from exc
    if not isinstance(data, dict):
        raise MalformedInputError("input must be a JSON object")
    if command not in COMMANDS:
        raise MalformedInputError("unknown command %r" % command)

    payload: dict = {}
    if command == "sweep":
        d = _require_int(data.get("d", 2), "d")
        if d < 1:
            raise MalformedInputError("d must be >= 1")
        payload["d"] = d
        return JobSpec(command=command, input=data, options=dict(options or {}), payload=payload)

    if "d" not in data:
        raise MalformedInputError("missing required field 'd'")
    d = _require_int(data["d"], "d")
    if d < 1:
        raise MalformedInputError("d must be >= 1")
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

    payload["b"] = (
        _parse_angles(data["b"], d, "'b'") if "b" in data else np.zeros(d)
    )
    if command == "simulate":
        payload["x0"] = (
            _parse_angles(data["x0"], d, "'x0'") if "x0" in data else np.zeros(d)
        )
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


def _result_semicascade(job: JobSpec) -> dict:
    cert = decide_semicascade(job.payload["a"])
    return {"exact": {"verdict": cert.verdict, "certificate": cert.to_dict()}}


def _result_cascade(job: JobSpec) -> dict:
    cert = decide_cascade(job.payload["a"])
    return {"exact": {"verdict": cert.verdict, "certificate": cert.to_dict()}}


def _result_certify(job: JobSpec) -> dict:
    ok = certificate_check(job.payload["a"], job.payload["certificate"])
    return {"exact": {"valid": ok}}


def _result_simulate(job: JobSpec) -> dict:
    opts = job.options
    phi = AffineMap(job.payload["a"], job.payload["b"])
    n = opts["iters"]
    grid = torus_grid(phi.d, opts["grid"])
    orbit = phi.orbit(job.payload["x0"], n)
    sub, dev = convergence_probe(phi, list(range(n + 1)), grid, opts["tol"])
    return {
        "exact": {"subsequence": sub},
        "floating": {
            "max_deviation": dev,
            "orbit": [[float(c) for c in point] for point in orbit],
        },
    }


def _result_frequencies(job: JobSpec) -> dict:
    opts = job.options
    fo = frequency_orbit(job.payload["a"], job.payload["u"], opts["iters"])
    escaped, first = escape_probe(fo, opts["bound"])
    return {
        "exact": {
            "u": list(fo.u),
            "terms": [list(t) for t in fo.terms],
            "escaped": escaped,
            "first_escape_index": first,
        }
    }


def _result_sidon(job: JobSpec) -> dict:
    opts = job.options
    report = extract_sidon(job.payload["stream"], opts["count"], max_scan=opts["max_scan"])
    ratio = estimate_sidon_ratio(
        report.selected, opts["trials"], opts["grid"], opts["seed"]
    )
    quasi = verify_quasi_independence(
        report.selected[: report.quasi_independence_checked_up_to]
    )
    return {
        "exact": {
            "selected": [list(v) for v in report.selected],
            "quasi_independence_checked_up_to": report.quasi_independence_checked_up_to,
            "quasi_independent": quasi,
        },
        "floating": {"estimated_ratio": ratio},
    }


def _result_sweep(job: JobSpec) -> dict:
    opts = job.options
    d = job.payload["d"]
    lo, hi = opts["range"]
    width = hi - lo + 1
    total = width ** (d * d)
    if total > MAX_SWEEP_ENTRIES:
        raise CapExceededError(
            "sweep of %d matrices exceeds the cap of %d" % (total, MAX_SWEEP_ENTRIES)
        )
    entries = []
    tame = 0
    all_agree = True
    for combo in product(range(lo, hi + 1), repeat=d * d):
        a = IntMatrix([combo[i * d : (i + 1) * d] for i in range(d)])
        cert = decide_semicascade(a)
        verdict, pair = oracle_semicascade(a)
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


_HANDLERS = {
    "semicascade": _result_semicascade,
    "cascade": _result_cascade,
    "certify": _result_certify,
    "simulate": _result_simulate,
    "frequencies": _result_frequencies,
    "sidon": _result_sidon,
    "sweep": _result_sweep,
}


def run(job: JobSpec) -> Report:
    """Dispatch a validated job to its module and wrap the result."""
    start = time.perf_counter()
    result = _HANDLERS[job.command](job)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return Report(
        command=job.command,
        input=job.input,
        options=job.options,
        result=result,
        timing_ms=elapsed_ms,
        tool={"name": TOOL_NAME, "version": __version__},
    )


def emit(report: Report, fmt: str = "json") -> str:
    """Serialize a report; json is stable and diff-friendly."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if fmt == "text":
        return _emit_text(report)
    raise ValueError("unknown format %r" % fmt)


def parse_report(text: str) -> Report:
    """Inverse of emit(..., 'json')."""
    return Report.from_dict(json.loads(text))


def _format_certificate_text(cert: dict) -> list[str]:
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


def _emit_text(report: Report) -> str:
    lines = ["%s %s - %s" % (TOOL_NAME, report.tool["version"], report.command)]
    result = report.result
    if "error" in result:
        err = result["error"]
        lines.append("error: %s" % err["code"])
        lines.append(err["message"])
    elif report.command in ("semicascade", "cascade"):
        lines.extend(_format_certificate_text(result["exact"]["certificate"]))
    elif report.command == "certify":
        lines.append("certificate valid: %s" % result["exact"]["valid"])
    elif report.command == "simulate":
        sub = result["exact"]["subsequence"]
        lines.append("convergent-looking subsequence (%d indices): %s" % (len(sub), sub))
        lines.append("max deviation: %.3e" % result["floating"]["max_deviation"])
    elif report.command == "frequencies":
        exact = result["exact"]
        lines.append("start frequency: %s" % exact["u"])
        lines.append(
            "escaped: %s%s"
            % (
                exact["escaped"],
                " at index %d" % exact["first_escape_index"] if exact["escaped"] else "",
            )
        )
        lines.append("last term: %s" % exact["terms"][-1])
    elif report.command == "sidon":
        exact = result["exact"]
        lines.append("selected %d vectors: %s" % (len(exact["selected"]), exact["selected"]))
        lines.append(
            "quasi-independent: %s (checked up to %d)"
            % (exact["quasi_independent"], exact["quasi_independence_checked_up_to"])
        )
        lines.append("estimated ratio: %.4f" % result["floating"]["estimated_ratio"])
    elif report.command == "sweep":
        exact = result["exact"]
        lines.append(
            "swept %d matrices (d=%d, entries %d..%d): %d tame, %d untame"
            % (
                exact["total"],
                exact["d"],
                exact["range"][0],
                exact["range"][1],
                exact["tame_count"],
                exact["untame_count"],
            )
        )
        lines.append("decider/oracle agree: %s" % exact["all_agree"])
    lines.append("timing: %.1f ms" % report.timing_ms)
    return "\n".join(lines)


def _parse_range(text: str) -> tuple[int, int]:
    match = _RANGE_RE.match(text)
    if not match:
        raise MalformedInputError("range must look like LO..HI, got %r" % text)
    lo, hi = int(match.group(1)), int(match.group(2))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Tameness deciders and orbit probes for affine torus maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, input_required=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=input_required, help="job file, or - for stdin")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    add("semicascade", "decide tameness of the iteration semigroup")
    add("cascade", "decide tameness of the iteration group (|det A| = 1)")
    add("certify", "re-verify a claimed certificate")

    p = add("simulate", "torus orbit plus convergence probe")
    p.add_argument("--iters", type=int, default=50, help="iterate indices 0..N")
    p.add_argument("--grid", type=int, default=None, help="grid points per axis")
    p.add_argument("--tol", type=float, default=1e-9, help="chain tolerance")

    p = add("frequencies", "frequency orbit plus escape probe")
    p.add_argument("--iters", type=int, default=50, help="orbit length")
    p.add_argument("--bound", type=int, default=10 ** 6, help="escape sup-norm bound")

    p = add("sidon", "extract a Sidon subset from a vector stream")
    p.add_argument("--iters", type=int, default=12, help="number of vectors to select")
    p.add_argument("--bound", type=int, default=100_000, help="max candidates scanned")
    p.add_argument("--grid", type=int, default=32, help="estimation grid per axis")
    p.add_argument("--seed", type=int, default=0, help="estimation seed")

    p = add("sweep", "exhaustive decider-vs-oracle sweep", input_required=False)
    p.add_argument("--range", default="-1..1", help="entry range LO..HI (use --range=LO..HI)")

    return parser


def _job_from_args(args) -> JobSpec:
    command = args.command
    if command == "sidon":
        text = _read_input(args.input)
        stream = list(parse_stream(text.splitlines()))
        options = {
            "count": args.iters,
            "max_scan": args.bound,
            "grid": args.grid,
            "seed": args.seed,
            # The flag vocabulary has no --trials; 200 is the documented default.
            "trials": 200,
        }
        job = JobSpec(
            command=command,
            input={"stream_source": args.input, "vectors_supplied": len(stream)},
            options=options,
            payload={"stream": stream},
        )
        return job
    if command == "sweep":
        text = _read_input(args.input) if args.input else "{}"
        options = {"range": list(_parse_range(args.range))}
        return parse_input(text, command=command, options=options)
    text = _read_input(args.input)
    options = {}
    if command == "simulate":
        options = {"iters": args.iters, "grid": args.grid, "tol": args.tol}
    elif command == "frequencies":
        options = {"iters": args.iters, "bound": args.bound}
    return parse_input(text, command=command, options=options)


def _exit_code(exc: TameTorusError) -> int:
    if isinstance(exc, InputError):
        return 2
    if isinstance(exc, PreconditionError):
        return 3
    if isinstance(exc, CapExceededError):
        return 4
    return 2


def _error_report(command: str, exc: TameTorusError) -> Report:
    return Report(
        command=command,
        input={},
        options={},
        result={"error": {"code": exc.code, "message": str(exc)}},
        timing_ms=0.0,
        tool={"name": TOOL_NAME, "version": __version__},
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        job = _job_from_args(args)
        report = run(job)
    except TameTorusError as exc:
        print(emit(_error_report(args.command, exc), args.format))
        return _exit_code(exc)
    print(emit(report, args.format))
    return 0
