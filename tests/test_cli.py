import json
import re
import subprocess
import sys

import pytest

from tametorus import __version__
from tametorus.cli import JobSpec, Report, emit, main, parse_input, parse_report, run
from tametorus.errors import (
    CapExceededError,
    DimensionInputError,
    DimensionMismatchError,
    MalformedInputError,
    NonIntegerInputError,
    StreamExhaustedError,
    TameTorusError,
)


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
        # CPython refuses to parse integers of more than 4300 digits
        path = tmp_path / "job.json"
        path.write_text('{"d":1,"A":[[%s]]}' % ("1" * 5000))
        code, out = run_cli(["semicascade", "--input", str(path)], capsys)
        assert code == 2
        assert json.loads(out)["result"]["error"]["code"] == "MALFORMED"

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


class TestMainExitCodes:
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
        assert json.loads(out)["result"]["error"]["code"] == "DETERMINANT_NOT_UNIT"

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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_witness_coefficient_beyond_digit_limit_is_4(self, capsys, tmp_path, fmt):
        # entries of 2,501 digits parse; g = x^2 - 2*10^2500*x + 10^5000 - 1
        # has a 5,000-digit coefficient, which the witness detail prints
        path = tmp_path / "job.json"
        path.write_text('{"d":2,"A":[[%d,1],[1,%d]]}' % (10 ** 2500, 10 ** 2500))
        code, out = run_cli(["semicascade", "--input", str(path), "--format", fmt], capsys)
        assert code == 4
        assert "CAP_EXCEEDED" in out

    def test_emit_json_integer_beyond_digit_limit(self):
        report = Report(command="frequencies", input={}, options={},
                        result={"exact": {"terms": [[10 ** 5000]]}}, timing_ms=0.0)
        with pytest.raises(CapExceededError):
            emit(report, "json")

    def test_missing_file_is_2(self, capsys):
        code, out = run_cli(["semicascade", "--input", "/does/not/exist.json"], capsys)
        assert code == 2

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
        monkeypatch.setattr(tametorus.tameness, "mat_mul", counting_mul)
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

        import tametorus.tameness

        calls = []
        real_pow = tametorus.tameness.mat_pow

        def counting_pow(a, n):
            calls.append(n)
            return real_pow(a, n)

        monkeypatch.setattr(tametorus.tameness, "mat_pow", counting_pow)
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
