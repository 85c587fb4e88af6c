"""Output checks: each CLI report against what its job's construction
guarantees. A check returns None when the output is right, otherwise a
one-line reason."""

from __future__ import annotations

import json
import math

from corpus import Job, spectral_radius

ANGLE_TOL = 1e-9


def _torus_gap(x: float, y: float) -> float:
    delta = (x - y) % (2.0 * math.pi)
    return min(delta, 2.0 * math.pi - delta)


def _certificate(job: Job, exact: dict, floating: dict):
    cert = exact["certificate"]
    if exact["verdict"] != "TAME" or cert["verdict"] != "TAME":
        return "verdict %s, constructed TAME" % exact["verdict"]
    if job.command == "semicascade" and cert.get("minimal_pair") != job.expect["pair"]:
        return "minimal pair %s, constructed %s" % (cert.get("minimal_pair"), job.expect["pair"])
    if job.command == "cascade" and cert.get("minimal_order_m") != job.expect["order"]:
        return "order %s, constructed %s" % (cert.get("minimal_order_m"), job.expect["order"])
    return None


def _certify(job: Job, exact: dict, floating: dict):
    if exact["valid"] is not True:
        return "UNTAME certificate rejected"
    rho = spectral_radius(job.matrix)
    if rho <= 1.01:
        return "spectral radius %.4f is not hyperbolic" % rho
    return None


def _sweep(job: Job, exact: dict, floating: dict):
    if exact["all_agree"] is not True:
        return "decider and oracle disagree"
    if exact["total"] != job.expect["total"] or len(exact["entries"]) != job.expect["total"]:
        return "swept %d matrices, box has %d" % (exact["total"], job.expect["total"])
    if exact["tame_count"] != job.expect["tame_count"]:
        return "tame_count %d, table says %d" % (exact["tame_count"], job.expect["tame_count"])
    return None


def _simulate(job: Job, exact: dict, floating: dict):
    if exact["subsequence"] != job.expect["subsequence"]:
        return "subsequence %s, constructed %s" % (exact["subsequence"], job.expect["subsequence"])
    if floating["max_deviation"] != 0.0:
        return "max_deviation %r with zero translation" % floating["max_deviation"]
    orbit = floating["orbit"]
    x0 = json.loads(job.stdin)["x0"]
    if len(orbit) != job.expect["iters"] + 1:
        return "orbit has %d points" % len(orbit)
    m = job.expect["order"]
    for start, end in [(x0, orbit[0])] + ([(orbit[0], orbit[m])] if m else []):
        if max(_torus_gap(a, b) for a, b in zip(start, end)) > ANGLE_TOL:
            return "orbit does not close: %s vs %s" % (start, end)
    return None


def _frequencies(job: Job, exact: dict, floating: dict):
    terms = [list(job.expect["u"])]
    at = list(zip(*job.matrix))
    for _ in range(job.expect["iters"]):
        terms.append([sum(a * t for a, t in zip(row, terms[-1])) for row in at])
    if exact["terms"] != terms:
        return "frequency orbit differs from (A^T)^j u"
    if exact["escaped"] != job.expect["escaped"]:
        return "escaped %s, constructed %s" % (exact["escaped"], job.expect["escaped"])
    bound = job.expect["bound"]
    first = next((i for i, t in enumerate(terms) if max(map(abs, t)) > bound), None)
    if exact["first_escape_index"] != first:
        return "first escape %s, expected %s" % (exact["first_escape_index"], first)
    return None


def _sidon(job: Job, exact: dict, floating: dict):
    if exact["selected"] != job.expect["selected"]:
        return "selected vectors differ from the greedy norm-growth pass"
    if exact["quasi_independent"] is not True:
        return "selection reported dependent"
    if exact["quasi_independence_checked_up_to"] != len(job.expect["selected"]):
        return "checked up to %d" % exact["quasi_independence_checked_up_to"]
    ratio = floating["estimated_ratio"]
    if not (math.isfinite(ratio) and ratio > 0):
        return "estimated ratio %r" % ratio
    return None


_CHECKS = {
    "semicascade": _certificate,
    "cascade": _certificate,
    "certify": _certify,
    "sweep": _sweep,
    "simulate": _simulate,
    "frequencies": _frequencies,
    "sidon": _sidon,
}


def check(job: Job, report: dict) -> str | None:
    """None when a parsed CLI report is what the job's construction implies."""
    result = report.get("result", {})
    if "error" in result:
        return "CLI error %s: %s" % (result["error"]["code"], result["error"]["message"])
    if report.get("command") != job.command:
        return "report for command %r" % report.get("command")
    try:
        return _CHECKS[job.command](job, result["exact"], result.get("floating", {}))
    except (KeyError, TypeError, IndexError) as exc:
        return "malformed report: %r" % exc
