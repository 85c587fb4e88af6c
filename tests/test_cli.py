import errno
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tametorus.cli
import tametorus.tameness
from tametorus import TAME, UNTAME, IntMatrix, __version__, decide_semicascade, order_bound
from tametorus.cli import (
    MAX_DECIDE_DIMENSION,
    MAX_DECIDE_ENTRY_WORK,
    MAX_SIMULATE_ITERS,
    MAX_SIMULATE_WORK,
    MAX_SWEEP_DIMENSION,
    MAX_SWEEP_ENTRIES,
    MAX_SWEEP_ENTRY_BITS,
    JobSpec,
    Report,
    emit,
    main,
    parse_input,
    parse_report,
    run,
)
from tametorus.dynamics import TWO_PI
from tametorus.errors import (
    CapExceededError,
    DimensionInputError,
    DimensionMismatchError,
    MalformedInputError,
    NonIntegerInputError,
    StreamExhaustedError,
    TameTorusError,
)
from tametorus.tameness import min_poly, oracle_semicascade_batch


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParseInput:
    def test_identity_job(self):
        job = parse_input('{"d":2,"A":[[1,0],[0,1]]}')
        assert job.command == "semicascade"
        assert job.payload["a"].entries == ((1, 0), (0, 1))
        assert list(job.payload["b"]) == [0.0, 0.0]

    def test_shear_with_translation_echo(self):
        text = '{"d":2,"A":[[1,1],[0,1]],"b":[0.5,0.0]}'
        job = parse_input(text)
        assert job.input == json.loads(text)
        assert list(job.payload["b"]) == [0.5, 0.0]

    def test_rational_translation(self):
        import math

        job = parse_input('{"d":1,"A":[[1]],"b":["1/4"]}')
        assert abs(job.payload["b"][0] - math.pi / 2) < 1e-15

    def test_rational_angle_is_bit_identical_to_fraction(self):
        # the reference is the exact rational p/q mod 1, rounded once to a
        # double; int true division rounds (p mod q) / q the same way
        rng = random.Random(20_000)

        def rational():
            p = rng.randrange(10 ** rng.randrange(1, 61))
            q = rng.randrange(1, 10 ** rng.randrange(1, 61))
            return "%s%d/%d" % (rng.choice(["", "+", "-"]), p, q)

        edges = ["0/1", "-0/7", "+0/3", "1/1", "-1/1", "1/2", "-1/2", "7/7", "-7/7",
                 "3/4\n", "1/3", "-1/3", "2/3", "%d/%d" % (2 ** 53 + 1, 2 ** 54),
                 "%d/%d" % (10 ** 60 - 1, 10 ** 60), "-%d/%d" % (10 ** 60 - 1, 10 ** 60),
                 "1/%d" % 10 ** 400, "-1/%d" % 10 ** 400, "%d/3" % 10 ** 4000]
        for text in edges + [rational() for _ in range(20_000)]:
            expected = float(Fraction(text) % 1) * TWO_PI
            assert tametorus.cli._parse_angle(text, "b[0]") == expected, text

    @pytest.mark.parametrize("text", ["-%s/3" % ("1" * 4301), "3/%s" % ("1" * 4301),
                                      "+%s/%s" % ("9" * 4301, "7" * 5000)])
    def test_rational_angle_beyond_digit_limit_keeps_its_message(self, text):
        with pytest.raises(ValueError) as reference:
            Fraction(text)
        with pytest.raises(MalformedInputError) as raised:
            tametorus.cli._parse_angle(text, "b[0]")
        assert str(raised.value) == "b[0]: %s" % reference.value

    def test_dimension_error(self):
        with pytest.raises(DimensionInputError):
            parse_input('{"d":2,"A":[[1,1]]}')

    def test_malformed(self):
        with pytest.raises(MalformedInputError):
            parse_input("{nope")
        with pytest.raises(MalformedInputError):
            parse_input("[1,2]")
        with pytest.raises(MalformedInputError):
            parse_input('{"d":2}')

    def test_noninteger_entries(self):
        with pytest.raises(NonIntegerInputError):
            parse_input('{"d":1,"A":[[1.5]]}')
        with pytest.raises(NonIntegerInputError):
            parse_input('{"d":1,"A":[[true]]}')

    def test_integral_float_accepted(self):
        job = parse_input('{"d":1,"A":[[2.0]]}')
        assert job.payload["a"].entries == ((2,),)

    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (2, 2)], ids=["first", "middle", "last"])
    @pytest.mark.parametrize(("value", "message"), [
        ("true", "booleans are not integers"),
        ("1.5", "1.5 is not an integer"),
        ('"3"', "'3' is not an integer"),
        ("[1]", "[1] is not an integer"),
        ("1e400", "inf is not an integer"),
    ], ids=["bool", "float", "string", "list", "1e400"])
    def test_bad_entry_of_a_is_named(self, capsys, tmp_path, where, value, message):
        # The first bad entry in row order is named, whichever rows before it
        # pass the one-pass type scan and whatever bad entry comes later.
        i, j = where
        rows = [["1", "-2", "3"], [str(10 ** 50), "0", "5"], ["7", "8", "9"]]
        rows[i][j] = value
        if i < 2:
            rows[2][1] = "false"
        job = '{"d":3,"A":[%s]}' % ",".join("[%s]" % ",".join(row) for row in rows)
        with pytest.raises(NonIntegerInputError) as raised:
            parse_input(job)
        assert str(raised.value) == "A[%d][%d]: %s" % (i, j, message)
        path = tmp_path / "job.json"
        path.write_text(job)
        code, out = run_cli(["semicascade", "--input", str(path)], capsys)
        assert code == 2
        assert json.loads(out)["result"]["error"] == {
            "code": "NONINTEGER", "message": "A[%d][%d]: %s" % (i, j, message)}

    def test_bad_entry_comes_before_the_entry_cap(self):
        # Every row is validated before the entry cap is checked.
        d = 8
        rows = [[0] * d for _ in range(d)]
        rows[0][0] = 2 ** (MAX_DECIDE_ENTRY_WORK // d ** 4 + 1)
        with pytest.raises(CapExceededError):
            parse_input(json.dumps({"d": d, "A": rows}))
        rows[d - 1][d - 1] = 0.5
        with pytest.raises(NonIntegerInputError, match=r"^A\[7\]\[7\]: 0.5 is not an integer$"):
            parse_input(json.dumps({"d": d, "A": rows}))

    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (2, 2)], ids=["first", "middle", "last"])
    def test_integral_float_accepted_anywhere_in_a(self, where):
        rows = [[1, -2, 3], [4, 0, 5], [7, 8, 9]]
        rows[where[0]][where[1]] = 2.0
        job = parse_input(json.dumps({"d": 3, "A": rows}))
        entries = job.payload["a"].entries
        assert entries[where[0]][where[1]] == 2
        assert {type(e) for row in entries for e in row} == {int}
        assert all(type(row) is tuple for row in entries)
        assert job.payload["a"] == IntMatrix([[int(e) for e in row] for row in rows])

    @pytest.mark.parametrize("field", ["b", "x0"])
    @pytest.mark.parametrize(
        "value",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e400", "10^400"],
    )
    def test_non_finite_angle_exit_2(self, capsys, tmp_path, field, value):
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[1,0],[0,1]],"%s":[0.5,%s]}' % (field, value))
        code, out = run_cli(
            ["simulate", "--input", str(path), "--iters", "3", "--grid", "4"], capsys
        )
        assert code == 2
        assert json.loads(out)["result"]["error"]["code"] == "MALFORMED"

    def test_integer_beyond_digit_limit_exit_2(self, capsys, tmp_path):
        # CPython refuses to parse integers of more than 4300 digits; a
        # "p/q" angle or a --range bound that long once crashed in
        # Fraction() or int() with a traceback and exit 1
        path = tmp_path / "job.json"
        for argv, job in [
            (["semicascade"], '{"d":1,"A":[[%s]]}' % ("1" * 5000)),
            (["semicascade"], '{"d":1,"A":[[1]],"b":["%s/3"]}' % ("1" * 5000)),
            (["simulate"], '{"d":1,"A":[[1]],"x0":["1/%s"]}' % ("7" * 5000)),
            (["sweep", "--range=%s..%s" % ("1" + "0" * 5000, "1" + "0" * 5000)], "{}"),
            (["sweep", "--range=-1..%s" % ("9" * 5000)], "{}"),
        ]:
            path.write_text(job)
            code = main(argv + ["--input", str(path)])
            captured = capsys.readouterr()
            assert code == 2, argv
            assert json.loads(captured.out)["result"]["error"]["code"] == "MALFORMED"
            assert captured.err == ""

    def test_bad_translation_string(self):
        with pytest.raises(MalformedInputError):
            parse_input('{"d":1,"A":[[1]],"b":["half"]}')
        with pytest.raises(DimensionInputError):
            parse_input('{"d":2,"A":[[1,0],[0,1]],"b":[0.1]}')


class TestRunAndEmit:
    def test_semicascade_report(self):
        job = parse_input('{"d":2,"A":[[1,0],[0,1]]}')
        report = run(job)
        cert = report.result["exact"]["certificate"]
        assert cert["verdict"] == "TAME"
        assert cert["minimal_pair"] == [0, 1]

    def test_json_round_trip_fixed_point(self):
        job = parse_input('{"d":2,"A":[[2,1],[1,1]]}')
        report = run(job)
        text = emit(report, "json")
        again = emit(parse_report(text), "json")
        assert text == again
        assert parse_report(text) == report

    def test_text_contains_pair(self):
        job = parse_input('{"d":2,"A":[[0,1],[0,0]]}')
        text = emit(run(job), "text")
        assert "A^2 = A^3" in text

    def test_text_cascade_order(self):
        job = parse_input('{"d":2,"A":[[0,-1],[1,0]]}', command="cascade")
        text = emit(run(job), "text")
        assert "A^4 = I" in text

    def test_text_names_witness_polynomial(self):
        job = parse_input('{"d":2,"A":[[1,1],[0,1]]}')
        text = emit(run(job), "text")
        assert "x^2 - 2*x + 1" in text

    def test_exact_results_have_no_floats(self):
        job = parse_input('{"d":2,"A":[[2,1],[1,1]]}', command="frequencies",
                          options={"iters": 10, "bound": 100})
        report = run(job)

        def no_floats(obj):
            if isinstance(obj, float):
                return False
            if isinstance(obj, dict):
                return all(no_floats(v) for v in obj.values())
            if isinstance(obj, list):
                return all(no_floats(v) for v in obj)
            return True

        assert no_floats(report.result["exact"])


def _past_the_digit_limit(digits: int) -> int:
    return -(10 ** digits) if digits % 2 else 10 ** digits


# Every JSON value kind a report may hold: ints past CPython's int-to-str
# digit limit among the integers, non-ASCII text, -0.0, NaN and +-inf.
_JSON_SCALARS = (st.none() | st.booleans() | st.floats() | st.integers() | st.text()
                 | st.integers(4300, 4400).map(_past_the_digit_limit))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=5)
                   | st.lists(st.integers() | st.booleans() | st.none(), max_size=6)),
    max_leaves=30,
)


def _json_dumps_or_error(obj):
    try:
        return json.dumps(obj, sort_keys=True, indent=2)
    except ValueError as exc:
        return type(exc)


class TestJsonWriter:
    """emit's writer, cli._dumps, equals json.dumps(sort_keys=True, indent=2)."""

    @staticmethod
    def _dumps_or_error(obj):
        try:
            return tametorus.cli._dumps(obj)
        except ValueError as exc:
            return type(exc)

    @settings(max_examples=400, deadline=None)
    @given(_JSON_VALUES)
    def test_equals_json_dumps(self, obj):
        assert self._dumps_or_error(obj) == _json_dumps_or_error(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[]], {"a": {}}, [1, True], [False, 0], [None, 1], [1, 2.0], [-0.0],
        [math.nan, math.inf, -math.inf], {"\u00e9\u2603\U0001f600": "\n\"\\\x00"},
        {"b": (1, 2), "a": [(), ((3,),)]}, [10 ** 4300], [1, [10 ** 4300]], 2 ** 64 - 1,
    ])
    def test_edge_values(self, obj):
        assert self._dumps_or_error(obj) == _json_dumps_or_error(obj)

    def test_int_past_the_digit_limit_is_exit_4(self):
        report = Report(command="semicascade", input={"A": [[10 ** 4300]]}, options={},
                        result={}, timing_ms=0.0)
        with pytest.raises(CapExceededError) as raised:
            emit(report)
        assert str(raised.value) == str(CapExceededError.digit_limit("report holds an integer"))

    def test_every_report_kind_equals_json_dumps(self):
        jobs = [("semicascade", '{"d":2,"A":[[2,1],[1,1]],"b":["1/3",0.25]}', {}),
                ("cascade", '{"d":2,"A":[[0,-1],[1,0]]}', {}),
                ("frequencies", '{"d":2,"A":[[2,1],[1,1]]}', {"iters": 10, "bound": 100}),
                ("simulate", '{"d":2,"A":[[0,-1],[1,0]],"x0":[0.5,-0.0]}',
                 {"iters": 8, "grid": 4, "tol": 1e-9})]
        for command, text, options in jobs:
            report = run(parse_input(text, command, options))
            assert emit(report) == json.dumps(report.to_dict(), sort_keys=True, indent=2)


class TestMainExitCodes:
    @pytest.mark.parametrize("lower", [1, 0], ids=["squarefree", "square"])
    def test_witness_past_the_digit_limit_is_4_without_the_gcd(self, capsys, tmp_path,
                                                               monkeypatch, lower):
        # g = x^2 - 2c x + c^2 - lower has a coefficient of ~6000 digits, so
        # no report can print it, and the squarefree test is not run for it.
        c = 10 ** 3000 + 7
        calls = []
        monkeypatch.setattr(tametorus.tameness, "poly_gcd", lambda *args: calls.append(args))
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"d": 2, "A": [[c, 1], [lower, c]]}))
        code, out = run_cli(["semicascade", "--input", str(path)], capsys)
        assert code == 4
        assert json.loads(out)["result"]["error"] == {
            "code": "CAP_EXCEEDED",
            "message": str(CapExceededError.digit_limit("polynomial coefficient"))}
        assert calls == []

    def test_success(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[1,0],[0,1]]}')
        code, out = run_cli(["semicascade", "--input", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["exact"]["verdict"] == "TAME"

    def test_input_error_is_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, out = run_cli(["semicascade", "--input", str(path)], capsys)
        assert code == 2
        assert json.loads(out)["result"]["error"]["code"] == "MALFORMED"

    def test_precondition_error_is_3(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[1,0],[0,0]]}')
        code, out = run_cli(["cascade", "--input", str(path)], capsys)
        assert code == 3
        assert json.loads(out)["result"]["error"] == {
            "code": "DETERMINANT_NOT_UNIT",
            "message": "cascade undefined: |det A| = 0, need 1",
        }

    def test_precondition_error_names_a_nonzero_determinant(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[2,0],[0,1]]}')
        code, out = run_cli(["cascade", "--input", str(path)], capsys)
        assert code == 3
        assert json.loads(out)["result"]["error"] == {
            "code": "DETERMINANT_NOT_UNIT",
            "message": "cascade undefined: |det A| = 2, need 1",
        }

    def test_stream_exhausted_is_3(self, capsys, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("1 0\n-1 0\n" * 10)
        code, out = run_cli(["sidon", "--input", str(path), "--iters", "3"], capsys)
        assert code == 3
        assert json.loads(out)["result"]["error"]["code"] == "STREAM_EXHAUSTED"

    def test_cap_exceeded_is_4(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"d":3}')
        code, out = run_cli(
            ["sweep", "--range=-2..2", "--input", str(path)], capsys
        )
        assert code == 4
        assert json.loads(out)["result"]["error"]["code"] == "CAP_EXCEEDED"

    @pytest.mark.parametrize("command", ["semicascade", "cascade", "certify", "simulate"])
    def test_dimension_beyond_cap_is_4_before_any_algebra(self, capsys, tmp_path, monkeypatch,
                                                           command):
        def no_algebra(a):
            raise AssertionError("min_poly ran on a job beyond the dimension cap")

        monkeypatch.setattr(tametorus.tameness, "min_poly", no_algebra)
        d = MAX_DECIDE_DIMENSION + 1
        job = {"d": d, "A": [[int(i == j) for j in range(d)] for i in range(d)],
               "certificate": {"verdict": "TAME", "kind": "SEMICASCADE", "index_k": 0,
                               "period_s": 1, "minimal_pair": [0, 1]}}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, out = run_cli([command, "--input", str(path)], capsys)
        assert code == 4
        error = json.loads(out)["result"]["error"]
        assert error["code"] == "CAP_EXCEEDED"
        assert error["message"] == "d = %d exceeds the cap of %d for %s" % (
            d, MAX_DECIDE_DIMENSION, command)

    def test_sweep_dimension_beyond_cap_is_4_before_any_work(self, capsys, tmp_path,
                                                               monkeypatch):
        def no_work(a):
            raise AssertionError("a sweep beyond the dimension cap did work")

        monkeypatch.setattr(tametorus.tameness, "min_poly", no_work)
        monkeypatch.setattr(tametorus.tameness, "oracle_semicascade_batch", no_work)
        assert MAX_SWEEP_DIMENSION == 4
        assert 2 ** (MAX_SWEEP_DIMENSION ** 2) <= MAX_SWEEP_ENTRIES
        assert 2 ** ((MAX_SWEEP_DIMENSION + 1) ** 2) > MAX_SWEEP_ENTRIES
        path = tmp_path / "job.json"
        for d in (MAX_SWEEP_DIMENSION + 1, 20):
            path.write_text(json.dumps({"d": d}))
            code, out = run_cli(["sweep", "--range=1..1", "--input", str(path)], capsys)
            assert code == 4
            error = json.loads(out)["result"]["error"]
            assert error == {"code": "CAP_EXCEEDED",
                             "message": "d = %d exceeds the cap of 4 for sweep" % d}

    def test_sweep_dimension_cap_is_inclusive(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"d": MAX_SWEEP_DIMENSION}))
        code, out = run_cli(["sweep", "--range=1..1", "--input", str(path)], capsys)
        assert code == 0
        exact = json.loads(out)["result"]["exact"]
        assert exact["total"] == 1 and exact["all_agree"] is True

    def test_sweep_beyond_int64_guard_is_untame(self, capsys, tmp_path):
        # 2^32 fails the int64 guard at d = 1 and goes to the bigint oracle
        path = tmp_path / "job.json"
        path.write_text('{"d":1}')
        code, out = run_cli(
            ["sweep", "--range=4294967296..4294967296", "--input", str(path)], capsys)
        assert code == 0
        exact = json.loads(out)["result"]["exact"]
        assert exact["untame_count"] == 1 and exact["all_agree"] is True
        assert exact["entries"][0]["oracle_verdict"] == "UNTAME"

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.integers(1, MAX_SWEEP_DIMENSION),
           magnitude=st.integers(2 ** MAX_SWEEP_ENTRY_BITS, 2 ** (MAX_SWEEP_ENTRY_BITS + 1) - 1),
           negative=st.booleans(), width=st.integers(1, 2))
    def test_sweep_bound_beyond_bit_cap_is_4_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                             d, magnitude, negative, width):
        def no_work(*args):
            raise AssertionError("a sweep beyond the entry-bit cap did work")

        monkeypatch.setattr(tametorus.cli, "sweep_box", no_work)
        if negative:
            lo, hi = -magnitude, -magnitude + width - 1
        else:
            lo, hi = magnitude - width + 1, magnitude
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"d": d}))
        start = time.perf_counter()
        code, out = run_cli(["sweep", "--range=%d..%d" % (lo, hi), "--input", str(path)], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 4
        assert json.loads(out)["result"]["error"] == {
            "code": "CAP_EXCEEDED",
            "message": "sweep range bound of %d bits exceeds the cap of %d bits"
            % (MAX_SWEEP_ENTRY_BITS + 1, MAX_SWEEP_ENTRY_BITS)}

    @pytest.mark.parametrize("d, lo, hi", [
        (1, 2 ** MAX_SWEEP_ENTRY_BITS - 1, 2 ** MAX_SWEEP_ENTRY_BITS - 1),
        (2, 1 - 2 ** MAX_SWEEP_ENTRY_BITS, 2 - 2 ** MAX_SWEEP_ENTRY_BITS),
        (MAX_SWEEP_DIMENSION, 2 ** MAX_SWEEP_ENTRY_BITS - 1, 2 ** MAX_SWEEP_ENTRY_BITS - 1),
    ])
    def test_sweep_bound_of_exactly_the_bit_cap_runs(self, capsys, tmp_path, d, lo, hi):
        assert max(abs(lo), abs(hi)).bit_length() == MAX_SWEEP_ENTRY_BITS
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"d": d}))
        code, out = run_cli(["sweep", "--range=%d..%d" % (lo, hi), "--input", str(path)], capsys)
        assert code == 0
        exact = json.loads(out)["result"]["exact"]
        assert exact["total"] == (hi - lo + 1) ** (d * d) and exact["all_agree"] is True

    def test_entry_cap_values(self):
        # bits * d^4 <= 2^25: 32 bits at d = 32, 512 at d = 16; from d = 7 down
        # the cap passes what a JSON integer of at most 4300 digits can hold
        caps = {d: MAX_DECIDE_ENTRY_WORK // d ** 4 for d in (32, 24, 16, 8, 7, 6)}
        assert caps == {32: 32, 24: 101, 16: 512, 8: 8192, 7: 13975, 6: 25890}
        limit = 10 ** sys.get_int_max_str_digits()
        assert 2 ** caps[7] < limit <= 2 ** (caps[6] - 1)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.integers(7, MAX_DECIDE_DIMENSION), negative=st.booleans(),
           place=st.integers(0, 31), command=st.sampled_from(["semicascade", "certify"]))
    def test_entry_of_exactly_the_cap_runs_and_one_bit_more_is_4(
            self, capsys, tmp_path, monkeypatch, d, negative, place, command):
        def no_algebra(a):
            raise AssertionError("min_poly ran on a job beyond the entry cap")

        cap = MAX_DECIDE_ENTRY_WORK // d ** 4
        i, j = divmod(place % (d * d), d)
        path = tmp_path / "job.json"
        for bits in (cap, cap + 1):
            entry = (1 - 2 ** bits) if negative else 2 ** bits - 1
            a = [[0] * d for _ in range(d)]
            a[i][j] = entry
            path.write_text(json.dumps({"d": d, "A": a, "certificate": {
                "verdict": "TAME", "kind": "SEMICASCADE", "index_k": 0, "period_s": 1,
                "minimal_pair": [0, 1]}}))
            with monkeypatch.context() as patch:
                if bits > cap:
                    patch.setattr(tametorus.tameness, "min_poly", no_algebra)
                start = time.perf_counter()
                code, out = run_cli([command, "--input", str(path)], capsys)
                elapsed = time.perf_counter() - start
            if bits == cap:
                assert code == 0, out
            else:
                assert elapsed < 0.5
                assert code == 4
                assert json.loads(out)["result"]["error"] == {
                    "code": "CAP_EXCEEDED",
                    "message": "largest entry of A has %d bits, beyond the cap of %d bits "
                               "for d = %d" % (cap + 1, cap, d)}

    @pytest.mark.parametrize("command", ["semicascade", "cascade", "certify", "simulate"])
    def test_every_deciding_command_has_the_entry_cap(self, capsys, tmp_path, monkeypatch,
                                                      command):
        def no_algebra(a):
            raise AssertionError("min_poly ran on a job beyond the entry cap")

        monkeypatch.setattr(tametorus.tameness, "min_poly", no_algebra)
        d = MAX_DECIDE_DIMENSION
        a = [[int(i == j) for j in range(d)] for i in range(d)]
        a[d - 1][0] = -2 ** 32
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"d": d, "A": a, "certificate": {
            "verdict": "UNTAME", "kind": "SEMICASCADE",
            "witness": {"reason": "NON_SQUAREFREE", "stripped_min_poly": [1]}}}))
        code, out = run_cli([command, "--input", str(path)], capsys)
        assert code == 4
        report = json.loads(out)
        assert (report["input"], report["options"]) == ({}, {})
        assert report["result"]["error"]["message"] == (
            "largest entry of A has 33 bits, beyond the cap of 32 bits for d = 32")

    def test_frequencies_has_no_entry_cap(self, capsys, tmp_path):
        # frequencies decides nothing; its output has caps of its own
        d = MAX_DECIDE_DIMENSION
        a = [[int(i == j) for j in range(d)] for i in range(d)]
        a[0][0] = 2 ** 40
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"d": d, "A": a}))
        code, out = run_cli(["frequencies", "--input", str(path), "--iters", "3"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["exact"]["terms"][-1][0] == 2 ** 120

    def test_closed_stdout_exits_1(self, capsys, monkeypatch):
        read_end, write_end = os.pipe()

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return write_end

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["sweep", "--range=0..1"]) == 1
            # stdout's descriptor now points at devnull: a final flush is quiet
            assert os.write(write_end, b"rest") == 4
            os.close(write_end)
            assert os.read(read_end, 16) == b""
        finally:
            os.close(read_end)

    def test_process_closed_stdout_has_no_traceback(self, tmp_path):
        # a d=3 box prints ~230 KB, more than a pipe buffers
        path = tmp_path / "job.json"
        path.write_text('{"d":3}')
        proc = subprocess.Popen(
            [sys.executable, "-m", "tametorus", "sweep", "--range=0..1", "--input", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""

    def test_dimension_cap_is_inclusive_and_only_for_deciders(self):
        d = MAX_DECIDE_DIMENSION
        identity = [[int(i == j) for j in range(d)] for i in range(d)]
        assert parse_input(json.dumps({"d": d, "A": identity})).payload["d"] == d
        d += 1
        identity = [[int(i == j) for j in range(d)] for i in range(d)]
        job = parse_input(json.dumps({"d": d, "A": identity}), command="frequencies")
        assert job.payload["d"] == d
        assert order_bound(d).s_max > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--iters", "0"],
            ["simulate", "--iters", "-3"],
            ["simulate", "--grid", "0"],
            ["simulate", "--tol", "0"],
            ["simulate", "--tol", "-1"],
            ["simulate", "--tol", "nan"],
            ["simulate", "--tol", "inf"],
            ["frequencies", "--iters", "0"],
            ["frequencies", "--bound", "0"],
            ["sidon", "--iters", "0"],
            ["sidon", "--grid", "0"],
            ["sidon", "--seed", "-1"],
            ["sidon", "--bound", "0"],
            ["sidon", "--bound", "-1"],
        ],
        ids=" ".join,
    )
    def test_bad_numeric_flag_is_2(self, capsys, tmp_path, argv):
        path = tmp_path / "job"
        if argv[0] == "sidon":
            path.write_text("".join("%d %d\n" % (k, k * k) for k in range(1, 100)))
        else:
            path.write_text('{"d":2,"A":[[2,1],[1,1]]}')
        code, out = run_cli(argv + ["--input", str(path)], capsys)
        assert code == 2
        error = json.loads(out)["result"]["error"]
        assert error["code"] == "MALFORMED"
        assert error["message"].startswith(argv[1] + " must be ")

    def test_exit_code_per_error_class(self):
        assert TameTorusError.exit_code == 2
        assert DimensionMismatchError.exit_code == 2
        assert MalformedInputError.exit_code == 2
        assert StreamExhaustedError.exit_code == 3
        assert CapExceededError.exit_code == 4

    def test_frequency_term_beyond_digit_limit_is_4(self, capsys, tmp_path):
        # the cat map's terms pass CPython's 4300-digit int-to-str limit
        # near index 10,300; the text report prints the last term
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[2,1],[1,1]]}')
        code, out = run_cli(
            ["frequencies", "--input", str(path), "--iters", "20000", "--format", "text"],
            capsys,
        )
        assert code == 4
        assert out.splitlines()[1] == "error: CAP_EXCEEDED"

    def test_frequency_orbit_stops_at_the_first_unprintable_term(self, capsys, tmp_path):
        # --iters 100,000 once built every term, 1.8 GB of them, in 6.8 s
        # before the report failed to print the first term past the limit
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[2,1],[1,1]]}')
        start = time.perf_counter()
        code, out = run_cli(["frequencies", "--input", str(path), "--iters", "100000"], capsys)
        elapsed = time.perf_counter() - start
        assert code == 4
        assert json.loads(out)["result"]["error"] == {
            "code": "CAP_EXCEEDED",
            "message": "report holds an integer beyond the %d-digit limit of int-to-str "
                       "conversion" % sys.get_int_max_str_digits()}
        assert elapsed < 1.0

    def test_error_report_echoes_the_parsed_job(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[2,1],[1,1]]}')
        code, out = run_cli(["frequencies", "--input", str(path), "--iters", "100001"], capsys)
        assert code == 4
        report = json.loads(out)
        assert report["result"]["error"]["code"] == "CAP_EXCEEDED"
        assert report["input"] == {"d": 2, "A": [[2, 1], [1, 1]]}
        assert report["options"] == {"iters": 100001, "bound": 10 ** 6}
        # a job that did not parse has nothing to echo
        path.write_text('{"d":2,"A":[[2,1]]}')
        code, out = run_cli(["frequencies", "--input", str(path), "--iters", "5"], capsys)
        assert code == 2
        report = json.loads(out)
        assert (report["input"], report["options"]) == ({}, {})

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_witness_coefficient_beyond_digit_limit_is_4(self, capsys, tmp_path, fmt):
        # entries of 2,501 digits parse; g = x^2 - 2*10^2500*x + 10^5000 - 1
        # has a 5,000-digit coefficient, which the witness detail prints
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[%d,1],[1,%d]]}' % (10 ** 2500, 10 ** 2500))
        code, out = run_cli(["semicascade", "--input", str(path), "--format", fmt], capsys)
        assert code == 4
        assert "CAP_EXCEEDED" in out

    def test_simulate_prints_no_witness_beyond_the_digit_limit(self, capsys, tmp_path):
        # g = mu of 10^250 I + B, B = [[2,1,0],[1,0,1],[0,1,-3]], has a coefficient
        # of about 750 digits: semicascade prints it in the witness and fails,
        # simulate decides the same untame A but builds no witness
        big = 10 ** 250
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"d": 3, "A": [[big + 2, 1, 0], [1, big, 1], [0, 1, big - 3]]}))
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            code, out = run_cli(["simulate", "--input", str(path), "--iters", "3", "--grid", "2"],
                                capsys)
            assert code == 0 and json.loads(out)["result"]["exact"]["subsequence"] == [0]
            code, out = run_cli(["semicascade", "--input", str(path)], capsys)
            assert code == 4 and "640-digit limit" in json.loads(out)["result"]["error"]["message"]
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "a",
        [[[10 ** 400]], [[1, 2 ** 600, 0], [0, 0, 2 ** 600], [0, 0, 0]]],
        ids=["entry_of_A", "entry_of_A_squared"],
    )
    def test_simulate_entry_beyond_double_range_is_4(self, capsys, tmp_path, a):
        # A itself, or the A^2 = A^3 that the convergence probe applies
        # (2^1200), has no float64 value
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"d": len(a), "A": a}))
        code, out = run_cli(["simulate", "--input", str(path), "--iters", "5"], capsys)
        assert code == 4
        assert json.loads(out)["result"]["error"]["code"] == "CAP_EXCEEDED"

    @pytest.mark.parametrize(
        "job",
        [{"d": 1, "A": [[10 ** 308]], "b": [1.0]}, {"d": 2, "A": [[1, 10 ** 308], [0, 0]]}],
        ids=["orbit_point", "probe_image"],
    )
    def test_simulate_point_beyond_double_range_is_4(self, capsys, tmp_path, job):
        # A fits a double, but 1e308 times the orbit point 6.148... does
        # not, nor (for the idempotent A = A^2) 1e308 times the grid's
        # coordinate pi; both once gave NaN with exit 0
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code = main(["simulate", "--input", str(path), "--iters", "3", "--grid", "4"])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out)["result"]["error"]["code"] == "CAP_EXCEEDED"
        assert captured.err == ""

    def test_simulate_iters_beyond_cap_is_4_before_any_work(self, capsys, tmp_path,
                                                            monkeypatch):
        def no_work(*args):
            raise AssertionError("a simulate job beyond the iterate cap did work")

        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[0,-1],[1,0]]}')
        monkeypatch.setattr(tametorus.cli, "AffineMap", no_work)
        n = MAX_SIMULATE_ITERS + 1
        code, out = run_cli(["simulate", "--input", str(path), "--iters", str(n)], capsys)
        assert code == 4
        assert json.loads(out)["result"]["error"] == {
            "code": "CAP_EXCEEDED",
            "message": "--iters %d exceeds the cap of %d" % (n, MAX_SIMULATE_ITERS)}
        # the cap is inclusive; a small stand-in keeps the job quick
        monkeypatch.undo()
        monkeypatch.setattr(tametorus.cli, "MAX_SIMULATE_ITERS", 10)
        code, _ = run_cli(["simulate", "--input", str(path), "--iters", "10"], capsys)
        assert code == 0
        code, _ = run_cli(["simulate", "--input", str(path), "--iters", "11"], capsys)
        assert code == 4

    def test_frequencies_iters_beyond_cap_is_4_before_any_term(self, capsys, tmp_path,
                                                               monkeypatch):
        # every term is kept: --iters 100,000 on the d = 32 identity took
        # 6.8 s and 319 MB, and memory grows linearly beyond that
        def no_work(*args):
            raise AssertionError("a frequencies job beyond the iterate cap built a term")

        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[1,0],[0,1]]}')
        monkeypatch.setattr(tametorus.cli, "frequency_orbit", no_work)
        n = MAX_SIMULATE_ITERS + 1
        message = "--iters %d exceeds the cap of %d" % (n, MAX_SIMULATE_ITERS)
        code, out = run_cli(["frequencies", "--input", str(path), "--iters", str(n)], capsys)
        assert code == 4
        assert json.loads(out)["result"]["error"] == {"code": "CAP_EXCEEDED", "message": message}
        code, out = run_cli(["frequencies", "--input", str(path), "--iters", str(n),
                             "--format", "text"], capsys)
        assert code == 4
        assert out.splitlines()[1:3] == ["error: CAP_EXCEEDED", message]
        # the cap is inclusive; a small stand-in keeps the job quick
        monkeypatch.undo()
        monkeypatch.setattr(tametorus.cli, "MAX_SIMULATE_ITERS", 10)
        code, _ = run_cli(["frequencies", "--input", str(path), "--iters", "10"], capsys)
        assert code == 0
        code, out = run_cli(["frequencies", "--input", str(path), "--iters", "11"], capsys)
        assert code == 4
        assert json.loads(out)["result"]["error"] == {
            "code": "CAP_EXCEEDED", "message": "--iters 11 exceeds the cap of 10"}

    def test_simulate_work_beyond_cap_is_4_before_any_work(self, capsys, tmp_path,
                                                           monkeypatch):
        # --iters 1000 on the d = 3 identity over the default 32^3 grid once
        # ran for 8 s; 1,100 iterates are 1,101 * 32^3 * 3 coordinate updates
        def no_work(*args):
            raise AssertionError("a simulate job beyond the work cap did work")

        path = tmp_path / "job.json"
        path.write_text('{"d":3,"A":[[1,0,0],[0,1,0],[0,0,1]]}')
        for name in ("AffineMap", "torus_grid", "convergence_probe"):
            monkeypatch.setattr(tametorus.cli, name, no_work)
        work = 1101 * 32 ** 3 * 3
        assert work > MAX_SIMULATE_WORK
        code, out = run_cli(["simulate", "--input", str(path), "--iters", "1100"], capsys)
        assert code == 4
        assert json.loads(out)["result"]["error"] == {
            "code": "CAP_EXCEEDED",
            "message": "--iters 1100 over 32^3 grid points is %d coordinate updates, "
                       "beyond the cap of %d" % (work, MAX_SIMULATE_WORK)}
        # the cap is inclusive; a small stand-in keeps the job quick
        monkeypatch.undo()
        monkeypatch.setattr(tametorus.cli, "MAX_SIMULATE_WORK", 11 * 4 ** 3 * 3)
        args = ["simulate", "--input", str(path), "--grid", "4", "--iters"]
        assert run_cli(args + ["10"], capsys)[0] == 0
        assert run_cli(args + ["11"], capsys)[0] == 4

    def test_simulate_work_cap_admits_the_benchmark_probe_job(self, capsys, tmp_path):
        # the largest simulate job of the probes workload: 51 iterates over
        # the 32^3 grid, here on a permutation of order 3
        assert 51 * 32 ** 3 * 3 <= MAX_SIMULATE_WORK
        path = tmp_path / "job.json"
        path.write_text('{"d":3,"A":[[0,1,0],[0,0,1],[1,0,0]]}')
        code, out = run_cli(
            ["simulate", "--input", str(path), "--iters", "50", "--grid", "32"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["exact"]["subsequence"] == list(range(0, 51, 3))

    def test_grid_beyond_32_axes_is_4(self, capsys, tmp_path):
        # np.meshgrid takes at most 32 axes, even at one point per axis;
        # this once ended in a RuntimeError traceback and exit 1
        path = tmp_path / "stream.txt"
        path.write_text("".join("%d %d%s\n" % (k, k * k, " 0" * 31) for k in range(1, 50)))
        code = main(["sidon", "--input", str(path), "--iters", "3", "--grid", "1"])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out)["result"]["error"] == {
            "code": "CAP_EXCEEDED",
            "message": "stream line 1 has more than 32 components, the grid dimension cap"}
        assert captured.err == ""
        # simulate at d = 40 stops at the decide cap, before any grid
        d = 40
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"d": d, "A": [[int(i == j) for j in range(d)]
                                                  for i in range(d)]}))
        code, out = run_cli(["simulate", "--input", str(path), "--grid", "1"], capsys)
        assert code == 4
        assert json.loads(out)["result"]["error"]["code"] == "CAP_EXCEEDED"

    def test_sidon_phase_beyond_double_range_is_4(self, capsys, tmp_path):
        # 1e308 fits a double, but its products with grid angles do not;
        # this once reported a ratio of 0, below the true minimum of 1
        path = tmp_path / "stream.txt"
        path.write_text("1\n%d\n" % 10 ** 308)
        code = main(["sidon", "--input", str(path), "--iters", "2"])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out)["result"]["error"]["code"] == "CAP_EXCEEDED"
        assert captured.err == ""

    def test_sidon_entry_beyond_double_range_is_4_before_the_grid(
        self, capsys, tmp_path, monkeypatch
    ):
        import tametorus.sidon

        grids = []
        real_grid = tametorus.sidon.torus_grid

        def counting_grid(*args):
            grids.append(args)
            return real_grid(*args)

        monkeypatch.setattr(tametorus.sidon, "torus_grid", counting_grid)
        path = tmp_path / "stream.txt"
        path.write_text("1\n%d\n" % 10 ** 400)
        code, out = run_cli(["sidon", "--input", str(path), "--iters", "2"], capsys)
        assert code == 4
        assert json.loads(out)["result"]["error"]["code"] == "CAP_EXCEEDED"
        assert grids == []

    def test_emit_json_integer_beyond_digit_limit(self):
        report = Report(command="frequencies", input={}, options={},
                        result={"exact": {"terms": [[10 ** 5000]]}}, timing_ms=0.0)
        with pytest.raises(CapExceededError):
            emit(report, "json")

    def test_missing_file_is_2(self, capsys):
        code, out = run_cli(["semicascade", "--input", "/does/not/exist.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command, data", [
        ("semicascade", b'{"d":1,"A":[[1]]}\xff'),
        ("sidon", b"1 2\n\xff 3\n"),
    ])
    def test_file_that_is_not_utf8_is_2(self, capsys, tmp_path, command, data):
        # the same bytes on stdin are read with surrogate escapes and fail to parse
        path = tmp_path / "job"
        path.write_bytes(data)
        code = main([command, "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["result"]["error"]
        assert error["code"] == "MALFORMED"
        assert error["message"].startswith("cannot read input %r: 'utf-8' codec" % str(path))
        assert captured.err == ""

    @pytest.mark.parametrize("width, code", [(2, 2), (5, 4)])
    def test_sidon_reads_the_stream_as_it_parses(self, capsys, tmp_path, width, code):
        # Bytes that are not UTF-8, 200 KB into the file, fail a stream whose
        # first vector passes the grid cap; a first vector whose 32^5 points
        # exceed the grid cap exits 4 before the reader gets that far.
        path = tmp_path / "stream.txt"
        path.write_bytes(b"1 " * width + b"\n" + b"1 2\n" * 50_000 + b"\xff 3\n")
        code_seen, out = run_cli(["sidon", "--input", str(path)], capsys)
        assert code_seen == code
        error = json.loads(out)["result"]["error"]
        if code == 2:
            assert error["code"] == "MALFORMED"
            assert error["message"].startswith("cannot read input %r: 'utf-8' codec" % str(path))
        else:
            assert error == {"code": "CAP_EXCEEDED",
                             "message": "grid of 32^5 points exceeds the cap of 32768"}

    @pytest.mark.parametrize("width, tokens, code, message", [
        (32, "1 ", 2, "stream vectors must share one dimension: got 2 then 32"),
        (33, "1 ", 4, "stream line 2 has more than 32 components, the grid dimension cap"),
        (33, "x ", 4, "stream line 2 has more than 32 components, the grid dimension cap"),
    ])
    def test_sidon_line_at_the_component_cap_and_one_past_it(
            self, capsys, tmp_path, width, tokens, code, message):
        # A later line one component past the cap exits 4, where it exited 2
        # for its dimension; its components are counted, not converted.
        path = tmp_path / "stream.txt"
        path.write_text("1 2\n" + tokens * width + "\n")
        code_seen, out = run_cli(["sidon", "--input", str(path)], capsys)
        assert code_seen == code
        assert json.loads(out)["result"]["error"]["message"] == message

    def test_sidon_line_past_the_component_cap_after_the_selection_is_4(self, capsys, tmp_path):
        # the extraction keeps (1) and (2) before it would reach the wide line
        path = tmp_path / "stream.txt"
        path.write_text("1\n2\n" + "1 " * 33 + "\n")
        code, out = run_cli(["sidon", "--input", str(path), "--iters", "2"], capsys)
        assert code == 4
        assert json.loads(out)["result"]["error"]["message"] == (
            "stream line 3 has more than 32 components, the grid dimension cap")

    def test_sidon_line_of_millions_of_components_is_4_fast(self, capsys, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("1 " * 5_000_000 + "\n")
        start = time.perf_counter()
        code, out = run_cli(["sidon", "--input", str(path)], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 4
        assert json.loads(out)["result"]["error"] == {
            "code": "CAP_EXCEEDED",
            "message": "stream line 1 has more than 32 components, the grid dimension cap"}

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(before=st.lists(st.sampled_from(["1 2", "", "  -3\t4 "]), max_size=4),
           width=st.integers(33, 300),
           tokens=st.lists(st.sampled_from(["0", "-7", "12345678901234567890", "x", "1.5"]),
                           min_size=1, max_size=3),
           separator=st.sampled_from([" ", "\t", "  ", "\xa0", "\u3000"]))
    def test_sidon_line_past_the_component_cap_is_4_fast(
            self, capsys, tmp_path, before, width, tokens, separator):
        # whatever precedes it that parses, and whatever its components are
        line = separator.join(tokens[i % len(tokens)] for i in range(width))
        path = tmp_path / "stream.txt"
        path.write_text("\n".join(before + [line, "1 2"]) + "\n")
        start = time.perf_counter()
        code, out = run_cli(["sidon", "--input", str(path)], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 4
        assert json.loads(out)["result"]["error"] == {
            "code": "CAP_EXCEEDED",
            "message": "stream line %d has more than 32 components, the grid dimension cap"
                       % (len(before) + 1)}

    @pytest.mark.parametrize("text", [
        "1 2\r3 4\r\n5 6\n", "1 2\x0c3 4\u20285 6", "\n\n1 2\v\v3 4\n5 6"])
    def test_sidon_stream_lines_split_as_the_whole_text_splits(self, text, tmp_path,
                                                                monkeypatch):
        # Each vector on a line of its own however the lines end, from a file
        # or from stdin.
        expected = [(1, 2), (3, 4), (5, 6)]
        assert list(tametorus.cli.parse_stream(text.splitlines())) == expected
        path = tmp_path / "stream.txt"
        path.write_bytes(text.encode())
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        for source in (str(path), "-"):
            args = tametorus.cli._build_parser().parse_args(["sidon", "--input", source])
            assert tametorus.cli._job_from_args(args).payload["stream"] == expected

    def test_process_level_exit_codes(self, tmp_path):
        # one real subprocess round to pin the installed entry point behavior
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[1,0],[0,0]]}')
        proc = subprocess.run(
            [sys.executable, "-m", "tametorus", "cascade", "--input", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["result"]["error"]["code"] == "DETERMINANT_NOT_UNIT"


class TestCommands:
    def test_simulate(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[0,-1],[1,0]],"b":["1/4","0/1"]}')
        code, out = run_cli(
            ["simulate", "--input", str(path), "--iters", "20", "--grid", "8"], capsys
        )
        assert code == 0
        report = json.loads(out)
        sub = report["result"]["exact"]["subsequence"]
        assert len(sub) >= 5
        assert report["result"]["floating"]["max_deviation"] <= 1e-9
        assert len(report["result"]["floating"]["orbit"]) == 21

    def test_simulate_custom_start_point(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[1,0],[0,1]],"b":[0.0,0.0],"x0":["1/8",1.0]}')
        code, out = run_cli(
            ["simulate", "--input", str(path), "--iters", "3", "--grid", "4"], capsys
        )
        assert code == 0
        orbit = json.loads(out)["result"]["floating"]["orbit"]
        import math

        assert abs(orbit[0][0] - math.pi / 4) < 1e-15
        assert orbit[0] == orbit[3]

    def test_frequencies(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[1,1],[0,1]],"u":[1,0]}')
        code, out = run_cli(
            ["frequencies", "--input", str(path), "--iters", "30", "--bound", "10"],
            capsys,
        )
        report = json.loads(out)
        exact = report["result"]["exact"]
        assert exact["escaped"] is True
        assert exact["first_escape_index"] == 11
        assert exact["terms"][3] == [1, 3]

    def test_frequencies_default_basis_vector(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[1,1],[0,1]]}')
        code, out = run_cli(
            ["frequencies", "--input", str(path), "--iters", "5", "--bound", "100"],
            capsys,
        )
        exact = json.loads(out)["result"]["exact"]
        assert exact["u"] == [1, 0]
        assert exact["escaped"] is False

    def test_sidon(self, capsys, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("".join("%d %d\n" % (k, k * k) for k in range(1, 100)))
        code, out = run_cli(
            ["sidon", "--input", str(path), "--iters", "6", "--seed", "9"], capsys
        )
        assert code == 0
        report = json.loads(out)
        exact = report["result"]["exact"]
        assert exact["selected"][:3] == [[1, 1], [2, 4], [3, 9]]
        assert exact["quasi_independent"] is True
        assert report["result"]["floating"]["estimated_ratio"] > 0

    def test_sidon_checks_the_first_twelve_of_more_vectors(self, capsys, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("".join("%d\n" % 2 ** k for k in range(20)))
        for fmt in ("json", "text"):
            code, out = run_cli(
                ["sidon", "--input", str(path), "--iters", "14", "--format", fmt], capsys
            )
            assert code == 0
            if fmt == "json":
                exact = json.loads(out)["result"]["exact"]
                assert exact["selected"] == [[2 ** k] for k in range(14)]
                assert exact["quasi_independence_checked_up_to"] == 12
            else:
                assert "quasi-independent: True (checked up to 12)" in out

    def test_sidon_grid_within_cap_runs_at_d3(self, capsys, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("".join("%d %d %d\n" % (k, k * k, 1) for k in range(1, 100)))
        code, out = run_cli(["sidon", "--input", str(path), "--iters", "4"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["floating"]["estimated_ratio"] > 0

    def test_sidon_grid_beyond_cap_exit_4(self, capsys, tmp_path):
        # the default --grid 32 on a d=5 stream is 32^5 points
        path = tmp_path / "stream.txt"
        path.write_text("".join("%d %d 0 0 1\n" % (k, k * k) for k in range(1, 100)))
        code, out = run_cli(["sidon", "--input", str(path), "--iters", "4"], capsys)
        assert code == 4
        assert json.loads(out)["result"]["error"]["code"] == "CAP_EXCEEDED"

    def test_sidon_stream_too_wide_for_the_grid_is_4_before_the_extraction(
        self, capsys, tmp_path, monkeypatch
    ):
        import tametorus.sidon

        checks = []
        real_check = tametorus.sidon.verify_quasi_independence

        def counting_check(vectors):
            checks.append(vectors)
            return real_check(vectors)

        monkeypatch.setattr(tametorus.sidon, "verify_quasi_independence", counting_check)
        width = 60_000
        path = tmp_path / "stream.txt"
        # enough vectors under the norm-growth rule, and then a stream too short
        for lines in (4, 1):
            path.write_text("".join(("%d " % 2 ** k) * width + "\n" for k in range(lines)))
            code, out = run_cli(["sidon", "--input", str(path), "--iters", "4"], capsys)
            assert code == 4
            assert json.loads(out)["result"]["error"] == {
                "code": "CAP_EXCEEDED",
                "message": "stream line 1 has more than 32 components, the grid dimension cap",
            }
        assert checks == []

    def test_sidon_grid_caps_come_after_the_first_vector(self, capsys, tmp_path, monkeypatch):
        parsed = []
        real_parse = tametorus.cli.parse_stream

        def counting_parse(lines):
            for vector in real_parse(lines):
                parsed.append(vector)
                yield vector

        monkeypatch.setattr(tametorus.cli, "parse_stream", counting_parse)
        width = 5
        path = tmp_path / "stream.txt"
        # 32^5 points, too many for the grid, after a blank line, and malformed
        # further down
        path.write_text("\n" + ("1 " * width + "\n") * 5 + "1 x\n")
        code, out = run_cli(["sidon", "--input", str(path)], capsys)
        assert code == 4
        assert parsed == [(1,) * width]
        report = json.loads(out)
        assert (report["input"], report["options"]) == ({}, {})
        assert report["result"]["error"] == {
            "code": "CAP_EXCEEDED", "message": "grid of 32^5 points exceeds the cap of 32768"}
        # a job that reaches run without the command line meets the same check
        job = JobSpec(command="sidon", input={}, payload={"stream": [(1,) * width] * 5},
                      options={"count": 4, "max_scan": 10, "grid": 32, "seed": 0, "trials": 200})
        with pytest.raises(CapExceededError, match=r"grid of 32\^5 points exceeds the cap of 32768"):
            run(job)

    def test_only_sweep_calls_an_oracle(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(tametorus.tameness, name)

            def oracle(arg):
                calls.append(name)
                return real(arg)

            return oracle

        for name in ("oracle_semicascade", "oracle_semicascade_batch"):
            monkeypatch.setattr(tametorus.tameness, name, counting(name))
        rot4, catmap = [[0, -1], [1, 0]], [[2, 1], [1, 1]]
        untame = decide_semicascade(IntMatrix(catmap)).to_dict()
        tame = {"verdict": "TAME", "kind": "SEMICASCADE", "index_k": 0, "period_s": 4,
                "minimal_pair": [0, 4]}
        jobs = [("semicascade", {"A": rot4}, []), ("cascade", {"A": rot4}, []),
                ("certify", {"A": rot4, "certificate": tame}, []),
                ("certify", {"A": catmap, "certificate": untame}, []),
                ("simulate", {"A": rot4}, ["--iters", "8", "--grid", "4"]),
                ("sweep", {}, ["--range=0..1"])]
        path = tmp_path / "job.json"
        for command, job, flags in jobs:
            calls.clear()
            path.write_text(json.dumps({"d": 2, **job}))
            code, out = run_cli([command, "--input", str(path), *flags], capsys)
            assert code == 0, out
            assert calls == (["oracle_semicascade_batch"] if command == "sweep" else []), command

    def test_sweep_small(self, capsys):
        code, out = run_cli(["sweep", "--range=-1..1", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        exact = report["result"]["exact"]
        assert exact["total"] == 81
        assert len(exact["entries"]) == 81
        assert exact["all_agree"] is True

    def test_sweep_text(self, capsys):
        code, out = run_cli(["sweep", "--range=0..1", "--format", "text"], capsys)
        assert code == 0
        assert "decider/oracle agree: True" in out

    def test_certify_valid_and_invalid(self, capsys, tmp_path):
        good = {
            "d": 2,
            "A": [[0, -1], [1, 0]],
            "certificate": {
                "verdict": "TAME",
                "kind": "CASCADE",
                "period_s": 4,
                "minimal_order_m": 4,
            },
        }
        path = tmp_path / "good.json"
        path.write_text(json.dumps(good))
        code, out = run_cli(["certify", "--input", str(path)], capsys)
        assert code == 0 and json.loads(out)["result"]["exact"]["valid"] is True

        bad = dict(good)
        bad["certificate"] = {
            "verdict": "TAME",
            "kind": "CASCADE",
            "period_s": 2,
            "minimal_order_m": 2,
        }
        path.write_text(json.dumps(bad))
        code, out = run_cli(["certify", "--input", str(path)], capsys)
        assert code == 0 and json.loads(out)["result"]["exact"]["valid"] is False

    _ROT4 = [[0, -1], [1, 0]]
    _CATMAP = [[2, 1], [1, 1]]
    _SEMI = {"verdict": "TAME", "kind": "SEMICASCADE", "index_k": 0, "period_s": 4,
             "minimal_pair": [0, 4]}
    _CASC = {"verdict": "TAME", "kind": "CASCADE", "period_s": 4, "minimal_order_m": 4}
    _WITNESS = {"reason": "ORDER_BOUND_EXHAUSTED", "stripped_min_poly": [1, -3, 1], "s_max": 6}
    _UNTAME = {"verdict": "UNTAME", "kind": "SEMICASCADE", "witness": _WITNESS}
    _SHEAR = [[1, 1], [0, 1]]
    _NON_SQUAREFREE = {"verdict": "UNTAME", "kind": "SEMICASCADE", "witness": {
        "reason": "NON_SQUAREFREE", "stripped_min_poly": [1, -2, 1]}}
    _SINGULAR = [[2, 0], [0, 0]]  # mu = x (x - 2): untame, with a zero eigenvalue
    _ZERO_EIGENVALUE = {"verdict": "UNTAME", "kind": "SEMICASCADE", "witness": {
        "reason": "ZERO_EIGENVALUE", "stripped_min_poly": [-2, 1]}}

    @pytest.mark.parametrize(
        "a, certificate, valid",
        [
            (_ROT4, _SEMI, True),
            (_ROT4, {**_SEMI, "minimal_order_m": 4}, False),
            (_ROT4, {**_SEMI, "index_k": 1}, False),
            (_ROT4, {**_SEMI, "period_s": 2}, False),
            (_ROT4, {**_SEMI, "witness": _WITNESS}, False),
            (_ROT4, {**_CASC, "index_k": 0}, True),
            (_ROT4, {**_CASC, "period_s": 2}, False),
            (_ROT4, {**_CASC, "minimal_pair": [0, 4]}, False),
            (_ROT4, {**_CASC, "index_k": 1}, False),
            (_ROT4, {**_CASC, "witness": _WITNESS}, False),
            (_ROT4, {**_CASC, "kind": "GROUP"}, False),
            (_ROT4, {**_UNTAME, "kind": "GROUP"}, False),
            (_ROT4, {"verdict": "UNTAME", "kind": "SEMICASCADE"}, False),
            (_ROT4, {**_CASC, "verdict": "MAYBE"}, False),
            (_CATMAP, _UNTAME, True),
            (_CATMAP, {**_UNTAME, "kind": "GROUP"}, False),
            (_CATMAP, {"verdict": "UNTAME", "kind": "SEMICASCADE"}, False),
            (_CATMAP, {**_UNTAME, "verdict": "MAYBE"}, False),
            (_CATMAP, {**_UNTAME, "minimal_pair": [0, 4], "index_k": 0, "period_s": 4}, False),
            (_CATMAP, {**_UNTAME, "kind": "CASCADE", "minimal_order_m": 4}, False),
            (_SHEAR, _NON_SQUAREFREE, True),
            (_SHEAR, {**_NON_SQUAREFREE,
                      "witness": {**_NON_SQUAREFREE["witness"], "s_max": 12}}, False),
            (_SINGULAR, _ZERO_EIGENVALUE, True),
            (_SINGULAR, {**_ZERO_EIGENVALUE,
                         "witness": {**_ZERO_EIGENVALUE["witness"], "s_max": 6}}, False),
        ],
        ids=["semicascade", "semicascade_with_order", "semicascade_index_not_p",
             "semicascade_period_not_q_minus_p", "semicascade_with_witness",
             "cascade_index_zero", "cascade_period_not_m", "cascade_with_pair",
             "cascade_index_one", "cascade_with_witness", "tame_group", "untame_group", "untame_without_witness",
             "maybe", "catmap_untame", "catmap_untame_group", "catmap_untame_without_witness",
             "catmap_maybe", "catmap_untame_with_pair", "catmap_untame_cascade_with_order",
             "shear_non_squarefree", "shear_non_squarefree_with_s_max", "zero_eigenvalue",
             "zero_eigenvalue_with_s_max"],
    )
    def test_certify_reads_every_claim_field(self, capsys, tmp_path, a, certificate, valid):
        path = tmp_path / "claim.json"
        path.write_text(json.dumps({"d": 2, "A": a, "certificate": certificate}))
        code, out = run_cli(["certify", "--input", str(path)], capsys)
        assert code == 0 and json.loads(out)["result"]["exact"]["valid"] is valid

    @pytest.mark.parametrize(
        "certificate",
        [
            {"verdict": "TAME", "kind": "SEMICASCADE", "index_k": 0,
             "period_s": 10 ** 12, "minimal_pair": [0, 10 ** 12]},
            {"verdict": "TAME", "kind": "CASCADE",
             "period_s": 10 ** 12, "minimal_order_m": 10 ** 12},
        ],
    )
    def test_certify_rejects_claim_beyond_bound_without_products(
        self, capsys, tmp_path, monkeypatch, certificate
    ):
        import tametorus.exactalg
        import tametorus.tameness

        calls = []
        real_mul = tametorus.exactalg.mat_mul

        def counting_mul(a, b):
            calls.append(1)
            return real_mul(a, b)

        monkeypatch.setattr(tametorus.exactalg, "mat_mul", counting_mul)
        monkeypatch.setattr(tametorus.tameness, "mat_mul", counting_mul, raising=False)
        path = tmp_path / "claim.json"
        path.write_text(json.dumps({"d": 2, "A": [[1, 0], [0, 1]], "certificate": certificate}))
        code, out = run_cli(["certify", "--input", str(path)], capsys)
        assert code == 0 and json.loads(out)["result"]["exact"]["valid"] is False
        assert calls == []

    @pytest.mark.parametrize(
        "certificate",
        [
            {"verdict": "TAME", "kind": "SEMICASCADE", "index_k": 0, "period_s": 4,
             "minimal_pair": [0, 4, 5]},
            {"verdict": "TAME", "kind": "SEMICASCADE", "index_k": 0, "period_s": 4,
             "minimal_pair": [0, "4"]},
            {"verdict": "TAME", "kind": "CASCADE", "period_s": 4, "minimal_order_m": 4.0},
            {"verdict": "UNTAME", "kind": "SEMICASCADE",
             "witness": {"reason": "NON_SQUAREFREE", "stripped_min_poly": [1e400]}},
            {"verdict": "UNTAME", "kind": "SEMICASCADE",
             "witness": {"reason": "NON_SQUAREFREE", "stripped_min_poly": [1.0, 0, 1]}},
            {"verdict": "UNTAME", "kind": "SEMICASCADE",
             "witness": {"reason": "NON_SQUAREFREE", "stripped_min_poly": [1, "0", 1]}},
            {"verdict": "UNTAME", "kind": "SEMICASCADE",
             "witness": {"reason": "NON_SQUAREFREE", "stripped_min_poly": [1, False, 1]}},
            {"verdict": "UNTAME", "kind": "SEMICASCADE",
             "witness": {"reason": "NON_SQUAREFREE", "stripped_min_poly": "x^2 + 1"}},
        ],
        ids=["pair_of_three", "string_exponent", "float_order", "infinite_coefficient",
             "float_coefficient", "string_coefficient", "bool_coefficient",
             "polynomial_not_a_list"],
    )
    def test_certify_malformed_certificate_exit_2(self, capsys, tmp_path, certificate):
        path = tmp_path / "claim.json"
        # 1e400 is serialized as Infinity, which Python's json reads back
        path.write_text(json.dumps({"d": 2, "A": [[0, -1], [1, 0]], "certificate": certificate}))
        code, out = run_cli(["certify", "--input", str(path)], capsys)
        assert code == 2
        assert json.loads(out)["result"]["error"]["code"] == "MALFORMED"

    @pytest.mark.parametrize(
        "certificate, message",
        [
            ("oops", "certificate must be a JSON object, got 'oops'"),
            (None, "certificate must be a JSON object, got None"),
            ({"verdict": "UNTAME", "kind": "SEMICASCADE", "witness": 5},
             "witness must be a JSON object, got 5"),
            ({"verdict": "UNTAME", "kind": "SEMICASCADE", "witness": ["a"]},
             "witness must be a JSON object, got ['a']"),
            ({"verdict": "UNTAME", "kind": "SEMICASCADE", "witness": "oops"},
             "witness must be a JSON object, got 'oops'"),
            ({"verdict": "UNTAME", "kind": "SEMICASCADE", "witness": True},
             "witness must be a JSON object, got True"),
            ({"kind": "SEMICASCADE", "index_k": 0, "period_s": 4, "minimal_pair": [0, 4]},
             "certificate is missing 'verdict'"),
            ({"verdict": "TAME", "index_k": 0, "period_s": 4, "minimal_pair": [0, 4]},
             "certificate is missing 'kind'"),
            ({"verdict": "UNTAME", "kind": "SEMICASCADE",
              "witness": {"stripped_min_poly": [1, 0, 1]}},
             "witness is missing 'reason'"),
            ({"verdict": "UNTAME", "kind": "SEMICASCADE",
              "witness": {"reason": "NON_SQUAREFREE"}},
             "witness is missing 'stripped_min_poly'"),
        ],
        ids=["certificate_string", "certificate_null", "witness_int", "witness_list",
             "witness_string", "witness_bool", "no_verdict", "no_kind", "no_reason",
             "no_polynomial"],
    )
    def test_certify_malformed_certificate_names_the_field(
        self, capsys, tmp_path, certificate, message
    ):
        path = tmp_path / "claim.json"
        path.write_text(json.dumps({"d": 2, "A": [[0, -1], [1, 0]], "certificate": certificate}))
        code, out = run_cli(["certify", "--input", str(path)], capsys)
        assert code == 2
        error = json.loads(out)["result"]["error"]
        assert error == {"code": "MALFORMED", "message": "bad certificate: " + message}

    def test_certify_strips_trailing_zero_coefficients(self, capsys, tmp_path):
        witness = {"reason": "ORDER_BOUND_EXHAUSTED", "stripped_min_poly": [1, -3, 1, 0, 0],
                   "s_max": 6}
        path = tmp_path / "claim.json"
        path.write_text(json.dumps({"d": 2, "A": [[2, 1], [1, 1]], "certificate": {
            "verdict": "UNTAME", "kind": "SEMICASCADE", "witness": witness}}))
        code, out = run_cli(["certify", "--input", str(path)], capsys)
        assert code == 0 and json.loads(out)["result"]["exact"]["valid"] is True

    @pytest.mark.parametrize("kind", ["SEMICASCADE", "CASCADE"])
    def test_certify_false_tame_claim_on_untame_matrix_builds_no_power(
        self, capsys, tmp_path, monkeypatch, kind
    ):
        # a false claim (0, s_max) used to raise A to powers near s_max
        import random

        import tametorus.exactalg
        import tametorus.tameness

        calls = []
        real_mul = tametorus.exactalg.mat_mul

        def counting_mul(a, b):
            calls.append(1)
            return real_mul(a, b)

        monkeypatch.setattr(tametorus.exactalg, "mat_mul", counting_mul)
        monkeypatch.setattr(tametorus.tameness, "mat_mul", counting_mul, raising=False)
        rng = random.Random(16)
        d = 16
        a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        s_max = tametorus.tameness.order_bound(d).s_max
        if kind == "SEMICASCADE":
            claim = {"verdict": "TAME", "kind": kind, "index_k": 0, "period_s": s_max,
                     "minimal_pair": [0, s_max]}
        else:
            claim = {"verdict": "TAME", "kind": kind, "period_s": s_max, "minimal_order_m": s_max}
        path = tmp_path / "claim.json"
        path.write_text(json.dumps({"d": d, "A": a, "certificate": claim}))
        code, out = run_cli(["certify", "--input", str(path)], capsys)
        assert code == 0 and json.loads(out)["result"]["exact"]["valid"] is False
        assert calls == []
        from tametorus import IntMatrix, decide_semicascade

        assert decide_semicascade(IntMatrix(a)).verdict == "UNTAME"

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO('{"d":1,"A":[[1]]}'))
        code, out = run_cli(["semicascade", "--input", "-"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["exact"]["verdict"] == "TAME"

    def test_emit_unknown_format_rejected(self):
        job = parse_input('{"d":1,"A":[[1]]}')
        with pytest.raises(ValueError):
            emit(run(job), "xml")

    def test_to_dict_is_shallow(self):
        report = run(parse_input('{"d":1,"A":[[1]]}'))
        assert report.to_dict()["result"] is report.result

    def test_help_keeps_flag_names(self, capsys):
        # sidon stores --iters and --bound under the option keys count and max_scan
        with pytest.raises(SystemExit):
            main(["sidon", "--help"])
        out = capsys.readouterr().out
        assert "--iters ITERS" in out and "--bound BOUND" in out

    def test_jobspec_echo_matches_input(self):
        raw = {"d": 2, "A": [[1, 0], [0, 1]], "b": [0.25, "1/2"]}
        job = parse_input(json.dumps(raw))
        assert job.input == raw
        report = run(JobSpec(command="semicascade", input=job.input,
                             options={}, payload=job.payload))
        assert report.input == raw


# Runs CLI jobs, given as JSON [argv, stdin] pairs in argv[1], in a fresh
# interpreter and prints their exit codes and which of numpy, fractions and
# decimal got loaded.
_NUMPY_FREE_CHILD = """\
import contextlib, io, json, sys
import tametorus
import tametorus.cli
def loaded_now():
    return [m for m in ("numpy", "fractions", "decimal") if m in sys.modules]
loaded = [loaded_now()]
codes = []
for argv, stdin in json.loads(sys.argv[1]):
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(tametorus.cli.main(argv))
    loaded.append(loaded_now())
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


class TestProcessState:
    def test_exact_commands_never_load_numpy(self):
        rotation = '{"d":2,"A":[[0,-1],[1,0]],"b":["1/4",0.5]}'
        jobs = [
            (["semicascade"], rotation, 0),
            (["cascade"], rotation, 0),
            (["cascade"], '{"d":2,"A":[[1,0],[0,0]]}', 3),
            (["certify"], '{"d":2,"A":[[0,-1],[1,0]],"certificate":{"verdict":"TAME",'
                          '"kind":"CASCADE","period_s":4,"minimal_order_m":4}}', 0),
            (["frequencies", "--iters", "30"], '{"d":2,"A":[[1,1],[0,1]],"b":[0.1,"1/3"]}', 0),
            (["semicascade"], '{"d":1,"A":[[1]],"b":["%s/3"]}' % ("1" * 5000), 2),
            (["certify"], '{"d":1,"A":[[1]],"certificate":{"verdict":"TAME"}}', 2),
            (["cascade"], json.dumps({"d": MAX_DECIDE_DIMENSION + 1, "A": []}), 4),
            (["frequencies", "--iters", "2"], '{"d":1,"A":[[%d]]}' % 10 ** 2500, 4),
        ]
        calls = [[argv + ["--input", "-", "--format", fmt], stdin]
                 for argv, stdin, _ in jobs for fmt in ("json", "text")]
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_FREE_CHILD, json.dumps(calls)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["codes"] == [code for _, _, code in jobs for _ in ("json", "text")]
        assert not any(result["loaded"])

    def test_repeated_main_calls_repeat_their_output(self, capsys, tmp_path, monkeypatch):
        # main builds its argument parser once per process; a parse that
        # failed, or printed help, must leave nothing behind for later calls
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[0,-1],[1,1]],"b":["1/6",0.25],"x0":[0.5,"2/3"]}')
        job = ["--input", str(path)]
        calls = [
            ["semicascade", *job],
            ["simulate", "--iters", "5"],
            ["cascade", *job, "--format", "text"],
            ["frequencies", *job, "--iters", "9", "--bound", "3"],
            ["simulate", *job, "--iters", "12", "--grid", "4", "--format", "text"],
            ["sweep", "--range=0..1", "--format", "text"],
            ["--help"],
            ["sidon", "--help"],
            ["semicascade", *job, "--format", "xml"],
            ["simulate", *job, "--iters", "12", "--grid", "4"],
            ["frequencies", *job, "--format", "text"],
            ["certify", *job],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = "SystemExit(%r)" % exc.code
            captured = capsys.readouterr()
            out = re.sub(r'"timing_ms": [0-9.e+-]+', '"timing_ms": T', captured.out)
            out = re.sub(r"^timing: \d+\.\d ms$", "timing: T ms", out, flags=re.M)
            return code, out, captured.err

        monkeypatch.setenv("COLUMNS", "80")
        tametorus.cli._build_parser.cache_clear()
        first = [call(argv) for argv in calls]
        assert [code for code, _, _ in first] == [
            0, "SystemExit(2)", 0, 0, 0, 0, "SystemExit(0)", "SystemExit(0)",
            "SystemExit(2)", 0, 0, 2,
        ]
        for _ in range(2):
            assert [call(argv) for argv in calls] == first


class TestTextReports:
    """Exact --format text output, with the timing line masked."""

    CASES = {
        "certify-valid": (
            ["certify"],
            '{"d":2,"A":[[0,-1],[1,0]],"certificate":{"verdict":"TAME","kind":"CASCADE",'
            '"period_s":4,"minimal_order_m":4}}',
            0,
            ["certificate valid: True"],
        ),
        "certify-invalid": (
            ["certify"],
            '{"d":2,"A":[[0,-1],[1,0]],"certificate":{"verdict":"TAME","kind":"CASCADE",'
            '"period_s":2,"minimal_order_m":2}}',
            0,
            ["certificate valid: False"],
        ),
        "simulate": (
            ["simulate", "--iters", "20", "--grid", "8"],
            '{"d":2,"A":[[0,-1],[1,0]],"b":["1/4","0/1"]}',
            0,
            [
                "convergent-looking subsequence (6 indices): [0, 4, 8, 12, 16, 20]",
                "max deviation: 0.000e+00",
            ],
        ),
        "frequencies-escaped": (
            ["frequencies", "--iters", "30", "--bound", "10"],
            '{"d":2,"A":[[1,1],[0,1]],"u":[1,0]}',
            0,
            ["start frequency: [1, 0]", "escaped: True at index 11", "last term: [1, 30]"],
        ),
        "frequencies-bounded": (
            ["frequencies", "--iters", "5", "--bound", "100"],
            '{"d":2,"A":[[2,1],[1,1]]}',
            0,
            ["start frequency: [1, 0]", "escaped: False", "last term: [89, 55]"],
        ),
        "sidon": (
            ["sidon", "--iters", "6", "--seed", "9"],
            "".join("%d %d\n" % (k, k * k) for k in range(1, 100)),
            0,
            [
                "selected 6 vectors: [[1, 1], [2, 4], [3, 9], [5, 25], [7, 49], [10, 100]]",
                "quasi-independent: True (checked up to 6)",
                "estimated ratio: 1.2396",
            ],
        ),
        "error-exit-2": (
            ["semicascade"],
            '{"d":2,"A":[[1,1]]}',
            2,
            ["error: DIMENSION", "'A' must be 2x2, got rows of lengths [2]"],
        ),
        "error-exit-3": (
            ["cascade"],
            '{"d":2,"A":[[1,0],[0,0]]}',
            3,
            ["error: DETERMINANT_NOT_UNIT", "cascade undefined: |det A| = 0, need 1"],
        ),
        "error-exit-4": (
            ["sweep", "--range=-2..2"],
            '{"d":3}',
            4,
            ["error: CAP_EXCEEDED", "sweep of 1953125 matrices exceeds the cap of 1000000"],
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_exact_text(self, capsys, tmp_path, name):
        argv, job, expected_code, body = self.CASES[name]
        path = tmp_path / "job"
        path.write_text(job)
        code, out = run_cli(argv + ["--input", str(path), "--format", "text"], capsys)
        assert code == expected_code
        masked = re.sub(r"^timing: \d+\.\d ms$", "timing: T ms", out, flags=re.M)
        header = "tametorus %s - %s" % (__version__, argv[0])
        assert masked == "\n".join([header, *body, "timing: T ms"]) + "\n"


def _orbit_sweep(d, lo, hi):
    """The exact block of a sweep's json report, as a user reads it."""
    job = parse_input(json.dumps({"d": d}), "sweep", {"range": [lo, hi]})
    return json.loads(emit(run(job)))["result"]["exact"]


def _per_matrix_sweep(d, lo, hi, matrices, certs, oracle):
    """The exact block of a sweep that decides every matrix of the box, the
    reference for the orbit sweep: box_reference's matrices in product order,
    each with its own decide_semicascade certificate and the tests' reference
    oracle's answer, which box_reference shares per orbit."""
    entries = []
    for a, cert, (verdict, pair) in zip(matrices, certs, oracle, strict=True):
        entries.append({
            "A": a.to_lists(),
            "verdict": cert.verdict,
            "minimal_pair": list(cert.minimal_pair) if cert.minimal_pair else None,
            "oracle_verdict": verdict,
            "oracle_pair": list(pair) if pair else None,
            "agree": cert.verdict == verdict and (cert.verdict != TAME or cert.minimal_pair == pair),
        })
    tame = sum(entry["verdict"] == TAME for entry in entries)
    return {"d": d, "range": [lo, hi], "total": len(matrices), "tame_count": tame,
            "untame_count": len(matrices) - tame,
            "all_agree": all(entry["agree"] for entry in entries), "entries": entries}


def _orbit(a):
    """The images of A under A -> P A P^T and A -> (P A P^T)^T, P a
    permutation matrix, by matrix products."""
    m = np.array(a.entries, dtype=np.int64)
    images = set()
    for perm in permutations(range(a.d)):
        p = np.eye(a.d, dtype=np.int64)[list(perm)]
        b = p @ m @ p.T
        images.update((tuple(map(tuple, b.tolist())), tuple(map(tuple, b.T.tolist()))))
    return images


def _plant_untame_oracle(monkeypatch, a):
    """Make sweep's oracle call the orbit of A UNTAME."""
    orbit = _orbit(a)

    def planted(matrices):
        return [(UNTAME, None) if m.entries in orbit else result
                for m, result in zip(matrices, oracle_semicascade_batch(matrices))]

    monkeypatch.setattr(tametorus.tameness, "oracle_semicascade_batch", planted)


class TestOrbitSweep:
    """sweep decides one representative per orbit of A -> P A P^T, A -> A^T."""

    @pytest.mark.parametrize("box", [(2, -2, 2), (3, -1, 1), (3, -2, -1), (3, -1, 0), (3, 0, 1),
                                     (3, 1, 2), (2, -3, 0), (1, -3, 3)])
    def test_equals_per_matrix_reference(self, box_reference, box):
        assert _orbit_sweep(*box) == _per_matrix_sweep(*box, *box_reference(*box))

    def test_exhaustive_d4_agreement(self, box_reference):
        # all 65,536 4x4 matrices with entries in {0, 1}, each decided on its
        # own and held to the reference oracle, which runs once per orbit; the
        # batch oracle runs on each matrix, in chunks to bound its arrays
        matrices, certs, oracle = box_reference(4, 0, 1)
        assert [answer for start in range(0, len(matrices), 4096)
                for answer in oracle_semicascade_batch(matrices[start : start + 4096])] == oracle
        reference = _per_matrix_sweep(4, 0, 1, matrices, certs, oracle)
        assert reference["total"] == 65536
        assert all(entry["agree"] for entry in reference["entries"])
        assert reference["all_agree"] is True
        assert reference["tame_count"] == 4647
        assert _orbit_sweep(4, 0, 1) == reference

    def test_planted_disagreement_marks_every_member_of_its_orbit(self, monkeypatch):
        # The nilpotent [[0,1],[0,0]] is TAME with pair (2, 3); an oracle that
        # calls its orbit UNTAME disagrees on both members, and on no other.
        _plant_untame_oracle(monkeypatch, IntMatrix([[0, 1], [0, 0]]))
        exact = _orbit_sweep(2, 0, 1)
        assert exact["all_agree"] is False
        assert [entry for entry in exact["entries"] if not entry["agree"]] == [
            {"A": a, "agree": False, "minimal_pair": [2, 3], "oracle_pair": None,
             "oracle_verdict": UNTAME, "verdict": TAME}
            for a in ([[0, 0], [1, 0]], [[0, 1], [0, 0]])]

    @pytest.mark.parametrize(("d", "lo", "hi", "orbits"),
                             [(3, 0, 1, 74), (2, -2, 2, 225), (4, 0, 1, 1740)])
    def test_each_orbit_is_decided_once(self, monkeypatch, d, lo, hi, orbits):
        decided_matrices, oracle_chunks = [], []

        def deciding(a):
            decided_matrices.append(a)
            return min_poly(a)

        def oracle(matrices):
            oracle_chunks.append(list(matrices))
            return oracle_semicascade_batch(matrices)

        # sweep_box computes min_poly once for each matrix it decides.
        monkeypatch.setattr(tametorus.tameness, "min_poly", deciding)
        monkeypatch.setattr(tametorus.tameness, "oracle_semicascade_batch", oracle)
        exact = _orbit_sweep(d, lo, hi)
        assert [a for chunk in oracle_chunks for a in chunk] == decided_matrices
        assert max(map(len, oracle_chunks)) <= 1024
        decided = [a.entries for a in decided_matrices]
        assert len(decided) == orbits
        assert len(set(decided)) == orbits
        # Each decided matrix is the least member of its orbit, so no two
        # share an orbit; their orbits fill the box, so every orbit is decided.
        covered = 0
        for entries in decided:
            images = _orbit(IntMatrix(entries))
            assert min(images) == entries
            covered += len(images)
        assert covered == exact["total"] == (hi - lo + 1) ** (d * d)


class TestSweepReportBytes:
    """emit writes a sweep's entries with their own formatter, while a parsed
    report holds plain lists: emit and json.dumps write those with the same
    bytes."""

    @staticmethod
    def _round_trip(job_input, lo, hi):
        report = run(parse_input(json.dumps(job_input), "sweep", {"range": [lo, hi]}))
        assert not isinstance(report.result["exact"]["entries"], list)
        text = emit(report)
        assert emit(parse_report(text)) == text
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) == text
        return json.loads(text)

    @pytest.mark.parametrize(("d", "lo", "hi"), [(1, -3, 3), (2, -2, 2), (2, -12, -10),
                                                 (3, -1, 1), (2, 117, 118)])
    def test_formatter_equals_json_dumps(self, d, lo, hi):
        exact = self._round_trip({"d": d}, lo, hi)["result"]["exact"]
        assert len(exact["entries"]) == exact["total"] == (hi - lo + 1) ** (d * d)
        assert exact["entries"][-1]["A"] == [[hi] * d] * d

    def test_planted_disagreement(self, monkeypatch):
        _plant_untame_oracle(monkeypatch, IntMatrix([[0, 1], [0, 0]]))
        exact = self._round_trip({"d": 2}, 0, 1)["result"]["exact"]
        assert sum(not entry["agree"] for entry in exact["entries"]) == 2

    @pytest.mark.parametrize("job_input", [
        {"d": 2, "entries": []},
        {"d": 2, "x": {"entries": []}},
        {"d": 2, "x": {"y": {"entries": []}}},
        {"d": 2, "note": '"entries": []'},
    ])
    def test_entries_in_the_input_echo_stay_there(self, job_input):
        # Only result.exact.entries takes the formatted entries.
        report = self._round_trip(job_input, -1, 1)
        assert report["input"] == job_input
        exact = report["result"]["exact"]
        assert len(exact["entries"]) == exact["total"] == 81
