"""Per-layer tracing for the traced run.

The replay runs a job as the CLI's main does: it parses the job's argv
with the CLI's own parser and builds the job from it (cli.parse_input, or
sidon.parse_stream for a stream), then calls cli.run and cli.emit, each
inside a span. Public calls are spanned where the product code makes them:
for the duration of a replay each function in CALL_SITES is replaced, in
the namespace of the module that calls it, by a wrapper that opens a
span, so nesting is exactly the product path's. Code with no public entry
point (argument parsing, the sweep loop, the cascade power scan, the
minimality scan) stays in its caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import io
import json
import sys
import time
from contextlib import contextmanager

# (module[:class] holding the call site, attribute, layer name). The
# squarefree test's poly_gcd is spanned at its tameness call site only;
# the gcds inside min_poly stay in min_poly's self time.
CALL_SITES = (
    ("tametorus.cli", "parse_input", "cli.parse_input"),
    ("tametorus.cli", "parse_stream", "sidon.parse_stream"),
    ("tametorus.cli", "decide_semicascade", "tameness.decide"),
    ("tametorus.cli", "decide_cascade", "tameness.decide"),
    ("tametorus.cli", "certificate_check", "tameness.certificate_check"),
    ("tametorus.tameness", "certificate_check", "tameness.certificate_check"),
    ("tametorus.cli", "oracle_semicascade", "tameness.oracle_semicascade"),
    ("tametorus.tameness", "oracle_semicascade", "tameness.oracle_semicascade"),
    ("tametorus.tameness", "order_of_x_mod", "tameness.order_of_x_mod"),
    ("tametorus.tameness", "order_bound", "tameness.order_bound"),
    ("tametorus.tameness", "min_poly", "exactalg.min_poly"),
    ("tametorus.tameness", "poly_gcd", "exactalg.poly_gcd"),
    ("tametorus.exactalg:IntMatrix", "det", "exactalg.det"),
    ("tametorus.cli", "extract_sidon", "sidon.extract_sidon"),
    ("tametorus.cli", "verify_quasi_independence", "sidon.verify_quasi_independence"),
    ("tametorus.sidon", "verify_quasi_independence", "sidon.verify_quasi_independence"),
    ("tametorus.cli", "estimate_sidon_ratio", "sidon.estimate_sidon_ratio"),
    ("tametorus.dynamics:AffineMap", "orbit", "dynamics.orbit"),
    ("tametorus.cli", "convergence_probe", "dynamics.convergence_probe"),
    ("tametorus.cli", "frequency_orbit", "dynamics.frequency_orbit"),
    ("tametorus.cli", "escape_probe", "dynamics.escape_probe"),
)

# Every layer the traced run reports, in report order.
LAYERS = (
    "cli.parse_input",
    "cli.run",
    "cli.emit",
    "tameness.decide",
    "tameness.certificate_check",
    "tameness.order_of_x_mod",
    "tameness.oracle_semicascade",
    "tameness.order_bound",
    "exactalg.min_poly",
    "exactalg.poly_gcd",
    "exactalg.det",
    "sidon.parse_stream",
    "sidon.extract_sidon",
    "sidon.verify_quasi_independence",
    "sidon.estimate_sidon_ratio",
    "dynamics.orbit",
    "dynamics.convergence_probe",
    "dynamics.frequency_orbit",
    "dynamics.escape_probe",
)
STATS = ("calls", "busy_s", "self_s", "failed")

# Counts that repeat exactly for a seed.
ORDER_STEPS = "tameness.order_of_x_mod.steps"
EMIT_BYTES = "cli.emit.bytes"
COUNTS = (ORDER_STEPS, EMIT_BYTES)

JOB = "job"
_NAME, _START, _END, _PARENT, _FAILED = range(5)


class Tracer:
    """Span recorder for one job at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.missing: list[str] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException:
            record[_FAILED] = True
            raise
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens while it is consumed.
            def traced_generator(*args, **kwargs):
                with tracer.span(name):
                    yield from fn(*args, **kwargs)

            return traced_generator

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if name == "tameness.order_of_x_mod":
                # Order-search steps: s when found, otherwise the bound s_max.
                tracer.counts[ORDER_STEPS] += result if result is not None else args[1]
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every call site in CALL_SITES; restore them on exit.

        A call site the product code no longer has is skipped and listed in
        self.missing, so its layer reads zero calls instead of failing.
        """
        saved = []
        try:
            for where, attr, layer in CALL_SITES:
                module_name, _, class_name = where.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                if attr not in vars(owner):
                    if where + "." + attr not in self.missing:
                        self.missing.append(where + "." + attr)
                    continue
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, layer))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def job_tree(self) -> tuple[dict[str, list[float]], str | None]:
        """Per-layer (calls, busy, self, failed) sums for the recorded job.

        Checks that spans nest: every child lies inside its parent, siblings
        do not overlap, self times are nonnegative, and the self times of
        all spans add up to the job span (children plus self equal it).
        """
        spans = self.spans
        if not spans or spans[0][_NAME] != JOB or self._stack:
            return {}, "trace does not start with one closed job span"
        children: list[float] = [0.0] * len(spans)
        last_end: dict[int, float] = {}
        for i, (name, start, end, parent, _) in enumerate(spans[1:], start=1):
            if not 0 <= parent < i:
                return {}, "span %s has no enclosing span" % name
            outer = spans[parent]
            if not (outer[_START] <= start <= end <= outer[_END]):
                return {}, "span %s escapes its parent %s" % (name, outer[_NAME])
            if start < last_end.get(parent, outer[_START]):
                return {}, "span %s overlaps a sibling" % name
            last_end[parent] = end
            children[parent] += end - start
        layers: dict[str, list[float]] = {}
        self_total = 0.0
        for i, (name, start, end, _, failed) in enumerate(spans):
            own = (end - start) - children[i]
            if own < -1e-9:
                return {}, "span %s has negative self time" % name
            self_total += own
            stats = layers.setdefault(name, [0, 0.0, 0.0, 0])
            stats[0] += 1
            stats[1] += end - start
            stats[2] += own
            stats[3] += failed
        root = spans[0][_END] - spans[0][_START]
        if abs(self_total - root) > 1e-9 + 1e-9 * root:
            return {}, "self times add to %.9f s, job span is %.9f s" % (self_total, root)
        return layers, None

    def job_seconds(self) -> float:
        return self.spans[0][_END] - self.spans[0][_START]


def replay(job, tracer: Tracer) -> str:
    """Run a job the way cli.main does, spanned; returns the JSON the CLI
    would print (without the trailing newline)."""
    from tametorus import cli

    tracer.reset()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(job.stdin)
    try:
        with tracer.installed(), tracer.span(JOB):
            args = cli._build_parser().parse_args(job.argv)
            spec = cli._job_from_args(args)
            with tracer.span("cli.run"):
                report = cli.run(spec)
            with tracer.span("cli.emit"):
                text = cli.emit(report, args.format)
    finally:
        sys.stdin = saved_stdin
    # Bytes the CLI prints (with its newline), less the digits of timing_ms,
    # which change from run to run.
    tracer.counts[EMIT_BYTES] += len(text.encode("utf-8")) + 1 - len(json.dumps(report.timing_ms))
    return text
