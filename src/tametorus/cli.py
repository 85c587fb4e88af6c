"""Batch command-line interface: parse jobs, run deciders and probes,
emit machine-readable reports.

Commands: semicascade, cascade, certify, simulate, frequencies, sidon,
sweep. Each is one entry of the _COMMANDS table: its help text, its
flags, the function that runs a job into a result and the function that
renders that result as text. Exit codes: 0 success, 2 input error,
3 precondition error, 4 documented cap exceeded: _DIMENSION_CAPS,
MAX_DECIDE_ENTRY_WORK (the bit length of A's largest entry times d^4, for
the commands that decide), MAX_SWEEP_ENTRIES, MAX_SWEEP_ENTRY_BITS (the
bit length of a sweep --range bound), MAX_SIMULATE_ITERS (simulate and
frequencies --iters), MAX_SIMULATE_WORK, dynamics' grid caps, CPython's
int-to-str digit limit for a report integer, and double range for a
simulate or sidon entry, orbit point, probe image or phase. Each cap is
checked before the work it bounds; a sidon stream's grid caps after its
first vector is parsed and before the rest of the stream is, and each
line's count of components, against the grid's axis cap, before any
component is converted.
Verdicts are report data, never exit codes.
Matrix jobs are described by JSON: {"d": int, "A": [[int]], "b": [...]}
where translation entries are either decimal angles or rational
multiples of 2*pi written "p/q". Sidon jobs read the line-based stream
format (one integer vector per line) instead. A json report holds the
bytes of json.dumps(report, sort_keys=True, indent=2), written by this
module's own writer (_dumps), which parse_report reads back.

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
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import product
from json.encoder import encode_basestring_ascii as _escape
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
    oracle_semicascade,  # noqa: F401  (perfbench's tracer wraps cli.oracle_semicascade)
    sweep_box,
)

__all__ = ["JobSpec", "Report", "parse_input", "run", "emit", "parse_report", "main"]

TOOL_NAME = "tametorus"

MAX_SWEEP_ENTRIES = 1_000_000
# Largest bit length of a sweep --range bound. A sweep's time and memory
# grow with the size of its entries as well as with their number. At 64
# bits the d = 1 box of 10^6 values and the d = 2 box of 31 values take at
# most 1.3x the time and 1.15x the peak RSS of the same boxes with small
# entries, in text and json; at 128 bits the d = 2 json sweep takes 1.76x
# the RSS (1.4 GB). A d = 4 box of two values leaves the batch oracle's
# int64 path within a few bits, so its RSS is 1.3x at 8 bits already and
# 1.8x at 64 (60 MB in text), and its time 1.6x at 64 bits and 2.2x at 128.
# 32 bits would not admit 2^32, the smallest value past the int64 guard at
# d = 1. One CLI process per run on a 2-vCPU Xeon (BENCH_31.json).
MAX_SWEEP_ENTRY_BITS = 64

# Largest d that semicascade, cascade, certify and simulate accept, the
# commands that decide A. At d = 32 the slowest measured family, a dense
# random matrix with entries in +-2^16, takes ~2.5 s of CLI wall time per
# job, against ~0.3 s for entries in +-2 or an eigenvector start vector
# (BENCH_17.json). That cost grows with the entry size, which
# MAX_DECIDE_ENTRY_WORK bounds for the same commands.
MAX_DECIDE_DIMENSION = 32
# Largest (bit length of the largest |entry|) * d^4 of a semicascade,
# cascade, certify or simulate job. Deciding a dense random matrix costs
# about d^7.5 * bits^2 once its entries pass a few dozen bits, so at the
# cap the cost falls slowly with d, and the slowest admitted job sits at the
# smallest d whose cap a JSON integer can reach. At the cap, with one entry
# exactly 2^bits - 1, semicascade took 5.6 s of CLI wall time at d = 32
# (32 bits), 5.3 s at d = 24 (101 bits), 6.7 s at d = 16 (512 bits) and
# 8.5 s at d = 8 (8,192 bits) and d = 7 (13,975 bits), on a 2-vCPU Xeon
# (BENCH_32.json). An eigenvector start vector and derogatory matrices, whose
# min_poly runs more than one Krylov sequence, took at most 6.3 s at the cap
# for d = 16, 24 and 32 and 9.0 s at d = 8, never clearly more than the
# dense family at the same d. Below d = 7 the cap passes
# 14,000 bits, and CPython's 4300-digit limit on a JSON integer binds first.
MAX_DECIDE_ENTRY_WORK = 2 ** 25
# Largest d for which a sweep box of two values per entry, 2^(d*d)
# matrices, fits MAX_SWEEP_ENTRIES. Beyond it only a one-value box fits,
# and semicascade answers that single matrix. The cap also bounds the
# 2 * d! image maps of sweep_box's orbit walk: 48 at d = 4.
MAX_SWEEP_DIMENSION = math.isqrt(MAX_SWEEP_ENTRIES.bit_length() - 1)
_DIMENSION_CAPS = {
    "semicascade": MAX_DECIDE_DIMENSION,
    "cascade": MAX_DECIDE_DIMENSION,
    "certify": MAX_DECIDE_DIMENSION,
    "simulate": MAX_DECIDE_DIMENSION,  # convergence_probe decides A
    "sweep": MAX_SWEEP_DIMENSION,
}

# Largest simulate and frequencies --iters. Time and memory grow linearly
# with it; README's exit-code section gives the measured curves behind the
# value.
MAX_SIMULATE_ITERS = 100_000
# Largest (--iters + 1) * grid points * d of a simulate job: the convergence
# probe moves every grid coordinate once per distinct translation along its
# chain. The worst case is a chain of every iterate whose translations are
# distinct but share all coordinates save one, as the identity with
# b = (1e-12, 0, ..., 0) gives: at the cap it takes 4-5.2 s of CLI wall time
# at every d measured (README's exit-code section).
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
    job has d > MAX_DECIDE_DIMENSION or an entry of more than
    MAX_DECIDE_ENTRY_WORK // d^4 bits, or a sweep job d > MAX_SWEEP_DIMENSION.
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
    # One scan of each row's types; only a row that holds something other
    # than an exact int goes entry by entry, for the message of its first
    # bad entry or the conversion of an integral float.
    rows, bits = [], 0
    for i, row in enumerate(a_rows):
        if set(map(type, row)) <= {int}:
            row = tuple(row)
        else:
            row = tuple([_require_int(e, "A[%d][%d]" % (i, j)) for j, e in enumerate(row)])
        rows.append(row)
        bits = max(bits, max(max(row), -min(row)).bit_length())
    if cap == MAX_DECIDE_DIMENSION:
        entry_cap = MAX_DECIDE_ENTRY_WORK // d ** 4
        if bits > entry_cap:
            raise CapExceededError("largest entry of A has %d bits, beyond the cap of %d bits "
                                   "for d = %d" % (bits, entry_cap, d))
    payload["a"] = IntMatrix._trusted(tuple(rows))

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
        try:
            payload["certificate"] = TamenessCertificate.from_dict(data.get("certificate"))
        except (TypeError, ValueError, OverflowError) as exc:
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
            "orbit": orbit.tolist(),
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
    stream = job.payload["stream"]
    if stream:
        # The ratio's grid caps, checked before the extraction's signed sums,
        # whose memory grows with the vectors' length.
        grid_per_axis(len(stream[0]), opts["grid"])
    report = extract_sidon(stream, opts["count"], max_scan=opts["max_scan"])
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


def _dumps(obj, newline: str = "\n") -> str:
    """obj exactly as json.dumps(obj, sort_keys=True, indent=2) writes it,
    with `newline` (a line break and the indent of the line obj starts on)
    in place of each of its line breaks; a _SweepEntries is written as the
    list of its entries. Written directly: json's indented encoder is its
    pure-Python one, which costs a generator step per token.

    The pieces are joined once, at the top, so a sweep's entries, the one
    large piece, are copied into the report once. A list of exact ints,
    such as a row of A or a polynomial, is one piece, written with one
    join. Strings go through json's own ASCII escaper, and floats as json
    writes them: float.__repr__, or NaN and +-Infinity. Keys must be
    strings, as in every report. An int beyond CPython's int-to-str digit
    limit raises ValueError in int.__repr__, as it does in json.dumps."""
    out: list[str] = []
    _write(obj, newline, out)
    return "".join(out)


def _write(obj, newline: str, out: list) -> None:
    """Append the pieces of _dumps(obj, newline) to out."""
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj != obj:
            out.append("NaN")
        elif obj == math.inf:
            out.append("Infinity")
        elif obj == -math.inf:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        inner = newline + "  "
        if not obj:
            out.append("[]")
        elif set(map(type, obj)) <= {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]")
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _write(item, inner, out)
                sep = "," + inner
            out.append(newline + "]")
    elif isinstance(obj, dict):
        inner = newline + "  "
        if not obj:
            out.append("{}")
        else:
            sep = "{" + inner
            for key, value in sorted(obj.items()):
                out.append(sep + _escape(key) + ": ")
                _write(value, inner, out)
                sep = "," + inner
            out.append(newline + "}")
    elif isinstance(obj, _SweepEntries):
        inner = newline + "  "
        out += ("[", inner, obj.json_items(inner), newline, "]")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


class _SweepEntries:
    """result.exact.entries of a sweep as tameness.sweep_box returns them:
    the matrices of the box lo..hi in itertools.product order, each with
    the outcome of its orbit's class, ((verdict, pair), (oracle_verdict,
    oracle_pair)). emit writes them; no dict is built per matrix. A plain
    class: a dataclass would cost every CLI process ~0.4 ms at import."""

    def __init__(self, d: int, lo: int, hi: int, classes: Sequence[int], outcomes: list):
        self.d, self.lo, self.hi = d, lo, hi
        self.classes, self.outcomes = classes, outcomes

    def json_items(self, newline: str) -> str:
        """The entries as _dumps writes the dicts {"A": rows, "agree",
        "minimal_pair", "oracle_pair", "oracle_verdict", "verdict"} on lines
        that begin with `newline`, joined by its item separator.

        Every entry of one outcome fills the same template: the layout of
        A, with a %d for each of its d * d entries, then the rest of the
        entry, written once per distinct outcome, which is its key. The
        pairs are tuples, which json writes as lists. A %d beyond CPython's
        int-to-str digit limit raises ValueError, as json.dumps does."""
        d = self.d
        shape = _dumps({"A": [[0] * d] * d}, newline)
        head = shape[: shape.rindex("\n")].replace("0", "%d")
        templates = {}
        for decided, oracle in set(self.outcomes):
            rest = _dumps({
                "verdict": decided[0],
                "minimal_pair": decided[1],
                "oracle_verdict": oracle[0],
                "oracle_pair": oracle[1],
                # An UNTAME decision and an UNTAME oracle answer both carry the
                # pair None, so the two agree exactly when they are equal.
                "agree": decided == oracle,
            }, newline)
            templates[decided, oracle] = head + "," + rest[1:]
        by_class = [templates[outcome] for outcome in self.outcomes]
        values = product(range(self.lo, self.hi + 1), repeat=d * d)
        return ("," + newline).join(
            map(str.__mod__, map(by_class.__getitem__, self.classes), values))


def _result_sweep(job: JobSpec) -> dict:
    opts = job.options
    d = job.payload["d"]
    lo, hi = opts["range"]
    total = (hi - lo + 1) ** (d * d)
    if total > MAX_SWEEP_ENTRIES:
        raise CapExceededError(
            "sweep of %d matrices exceeds the cap of %d" % (total, MAX_SWEEP_ENTRIES)
        )
    bits = max(abs(lo), abs(hi)).bit_length()
    if bits > MAX_SWEEP_ENTRY_BITS:
        raise CapExceededError(
            "sweep range bound of %d bits exceeds the cap of %d bits" % (bits, MAX_SWEEP_ENTRY_BITS)
        )
    classes, outcomes = sweep_box(d, lo, hi)
    sizes = Counter(classes)
    tame = sum(sizes[c] for c, ((verdict, _), _) in enumerate(outcomes) if verdict == TAME)
    return {
        "exact": {
            "d": d,
            "range": [lo, hi],
            "total": total,
            "tame_count": tame,
            "untame_count": total - tame,
            # Agreement is equality: both halves carry the pair None when UNTAME.
            "all_agree": all(decided == oracle for decided, oracle in outcomes),
            "entries": _SweepEntries(d, lo, hi, classes, outcomes),
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

    A json report is _dumps of the report's fields: the bytes of
    json.dumps(..., sort_keys=True, indent=2), with the entries of a sweep,
    which run leaves as a _SweepEntries, written in place as the lists that
    parse_report returns.

    Raises CapExceededError when the report holds an integer beyond
    CPython's int-to-str digit limit.
    """
    result = report.result
    try:
        if fmt == "json":
            return _dumps(report.to_dict())
        if fmt == "text":
            if "error" in result:
                body = ["error: %s" % result["error"]["code"], result["error"]["message"]]
            else:
                body = _COMMANDS[report.command].text(result)
            header = "%s %s - %s" % (TOOL_NAME, report.tool["version"], report.command)
            return "\n".join([header, *body, "timing: %.1f ms" % report.timing_ms])
    except ValueError as exc:
        raise CapExceededError.digit_limit("report holds an integer") from exc
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
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError("cannot read input %r: %s" % (path, exc)) from exc


def _input_lines(path: str):
    """The input's lines, read from the file one at a time and split as
    str.splitlines splits the whole text (each line read ends at a line
    boundary, and no boundary spans two reads). A read or decode error
    raises MalformedInputError where the reader meets it, so bytes that are
    not UTF-8 fail the job wherever they sit in the file."""
    try:
        if path == "-":
            for line in sys.stdin:
                yield from line.splitlines()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    yield from line.splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    if args.command == "sidon":
        lines = _input_lines(args.input)
        try:
            vectors = parse_stream(lines)
            first = next(vectors, None)
            if first is not None:
                # The ratio's grid caps, checked before the rest of the stream
                # is read, whose cost grows with the file.
                grid_per_axis(len(first), options["grid"])
            stream = [] if first is None else [first, *vectors]
        finally:
            lines.close()
        # The flag vocabulary has no --trials; 200 is the documented default.
        options["trials"] = 200
        return JobSpec(
            command=args.command,
            input={"stream_source": args.input, "vectors_supplied": len(stream)},
            options=options,
            payload={"stream": stream},
        )
    text = _read_input(args.input) if args.input or command.input_required else "{}"
    if args.command == "sweep":
        options["range"] = list(_parse_range(options["range"]))
    return parse_input(text, command=args.command, options=options)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # An error report echoes the job's input and options once it parsed.
    job = JobSpec(command=args.command, input={}, options={})
    try:
        job = _job_from_args(args)
        text, code = emit(run(job), args.format), 0
    except TameTorusError as exc:
        error = {"error": {"code": exc.code, "message": str(exc)}}
        report = Report(command=args.command, input=job.input, options=job.options, result=error,
                        timing_ms=0.0)
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
