import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adelic
from adelic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDocumentedInvocations:
    def test_verify_norm_product(self, capsys):
        code, out, _ = run(capsys, "verify", "norm-product", "12")
        assert code == 0
        assert out.strip() == "1 = 12 × 1/4 × 1/3 ✓ exact"

    def test_dynamics_classify_json(self, capsys):
        code, out, _ = run(capsys, "dynamics", "classify", "2", "0", "1", "1/2", "--json")
        assert code == 0
        payload = json.loads(out)
        points = {fp["point"]: fp for fp in payload["fixed_points"]}
        assert set(points) == {"0", "3/2"}
        assert set(points["0"]["exceptional"]) == {"inf", "2"}
        assert points["0"]["multiplier"] == "4"

    def test_verify_norm_product_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "norm-product", "0")
        assert code == 2
        assert "must be a nonzero rational" in err


class TestEvaluationCommands:
    def test_norm(self, capsys):
        code, out, _ = run(capsys, "norm", "7/8", "2")
        assert code == 0 and "= 8" in out

    def test_digits(self, capsys):
        code, out, _ = run(capsys, "digits", "7/8", "2", "3", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["valuation"] == -3
        assert payload["digits"] == [1, 1, 1]

    def test_digits_of_zero_rejected(self, capsys):
        code, _, err = run(capsys, "digits", "0", "2", "3")
        assert code == 2 and "expansion" in err

    def test_frac(self, capsys):
        code, out, _ = run(capsys, "frac", "7/8", "3")
        assert code == 0 and "= 0" in out

    def test_char(self, capsys):
        code, out, _ = run(capsys, "char", "7/8", "inf", "--json")
        assert code == 0
        assert json.loads(out)["phase"] == "1/8"

    def test_legendre(self, capsys):
        code, out, _ = run(capsys, "legendre", "3", "7")
        assert code == 0 and "-1" in out

    def test_hilbert(self, capsys):
        code, out, _ = run(capsys, "hilbert", "-1", "-1", "inf")
        assert code == 0 and "-1" in out

    def test_lambda(self, capsys):
        code, out, _ = run(capsys, "lambda", "1", "2", "--json")
        assert code == 0
        assert json.loads(out)["eighth_root_exponent"] == 1

    def test_gauss(self, capsys):
        code, out, _ = run(capsys, "gauss", "1", "0", "inf", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["eighth_root_exponent"] == 7
        assert payload["magnitude_base"] == "2"

    def test_kernel(self, capsys):
        code, out, _ = run(capsys, "kernel", "0", "0", "0", "1", "inf", "--json")
        assert code == 0
        assert json.loads(out)["eighth_root_exponent"] == 1

    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "gamma", "2", "2", "--json")
        assert code == 0
        value = json.loads(out)["value"]
        assert abs(value[0] + 4.0 / 3.0) < 1e-12

    def test_beta(self, capsys):
        code, out, _ = run(capsys, "beta", "2", "2", "2", "--json")
        assert code == 0
        value = json.loads(out)["value"]
        assert abs(value[0] + 5.0 / 21.0) < 1e-12

    def test_zeta_local_and_adelic(self, capsys):
        code, out, _ = run(capsys, "zeta", "2", "3", "--json")
        assert code == 0
        assert abs(json.loads(out)["value"][0] - 1.125) < 1e-12
        code, out, _ = run(capsys, "zeta", "2", "--json")
        assert code == 0
        assert abs(json.loads(out)["value"][0] - 0.5235987755982988) < 1e-9

    def test_zeta_pole_is_domain_error(self, capsys):
        code, _, err = run(capsys, "zeta", "1")
        assert code == 2 and "pole" in err.lower()

    def test_zeta_past_series_range_is_domain_error(self, capsys):
        code, out, err = run(capsys, "zeta", "0.5+300i")
        assert code == 2 and out == ""
        assert "|Im s| < 265.71" in err and "Traceback" not in err

    def test_mellin(self, capsys):
        code, out, _ = run(capsys, "mellin", "2", "--json")
        assert code == 0
        assert json.loads(out)["residual"] < 1e-8

    def test_wavefn(self, capsys):
        code, out, _ = run(capsys, "wavefn", "1/2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gate"] == 0 and payload["value"] == 0

    def test_dynamics_orbit(self, capsys):
        code, out, _ = run(
            capsys, "dynamics", "orbit", "2", "0", "1", "1/2",
            "--x0", "2", "--fixed-point", "0", "--place", "2", "--steps", "5", "--json",
        )
        assert code == 0
        assert json.loads(out)["entries"] == ["3", "5", "7", "9", "11"]


class TestVerifyAndSuite:
    def test_verify_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "gauss-product", "3/4", "2/5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "ExactPass"
        assert json.loads(json.dumps(payload)) == payload

    def test_verify_numeric(self, capsys):
        code, out, _ = run(capsys, "verify", "functional-equation", "2", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "NumericPass"

    def test_verify_extra_places_are_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "norm-product", "12", "--places", "5,11", "--json")
        assert code == 0
        factors = {f["place"]: f["value"] for f in json.loads(out)["factors"]}
        assert factors["5"] == "1" and factors["11"] == "1"

    def test_verify_unknown_family(self, capsys):
        code, _, err = run(capsys, "verify", "nope-product", "1")
        assert code == 2 and "unknown family" in err

    def test_verify_wrong_arity(self, capsys):
        code, _, err = run(capsys, "verify", "hilbert-product", "3")
        assert code == 2 and "expected 2" in err

    def test_suite(self, capsys):
        code, out, _ = run(
            capsys, "suite", "character-product", "--trials", "25", "--seed", "3",
            "--height", "1000", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["verdicts"] == {"ExactPass": 25}

    def test_suite_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "suite", "hilbert-product", "--trials", "10", "--seed", "5", "--json")
        _, out2, _ = run(capsys, "suite", "hilbert-product", "--trials", "10", "--seed", "5", "--json")
        assert out1 == out2


class TestJsonRoundTripAllCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "7/8", "2"),
            ("digits", "-1", "5", "3"),
            ("frac", "16/3", "3"),
            ("char", "7/8", "2"),
            ("legendre", "2", "7"),
            ("hilbert", "2", "5", "2"),
            ("lambda", "-1", "inf"),
            ("gauss", "1", "1", "2"),
            ("kernel", "1", "0", "0", "1", "2"),
            ("gamma", "2", "inf"),
            ("beta", "0.25", "0.5", "3"),
            ("zeta", "2", "inf"),
            ("mellin", "3"),
            ("wavefn", "3"),
            ("dynamics", "classify", "1", "0", "1", "1"),
            ("verify", "lambda-product", "-22/7"),
            ("suite", "norm-product", "--trials", "5"),
        ],
    )
    def test_emit_parse_reemit_stable(self, capsys, argv):
        code = main(list(argv) + ["--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload


class TestUsageErrors:
    def test_nonprime_place(self, capsys):
        code, _, err = run(capsys, "norm", "3", "6")
        assert code == 2 and "not prime" in err

    def test_malformed_rational(self, capsys):
        code, _, err = run(capsys, "norm", "1.5", "2")
        assert code == 2 and "rational" in err

    def test_zero_denominator(self, capsys):
        code, _, err = run(capsys, "frac", "3/0", "2")
        assert code == 2 and "denominator" in err

    def test_missing_subcommand(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 2


class TestDoubleRange:
    @pytest.mark.parametrize("argv", [("zeta", "0.5+1000i", "inf"), ("zeta", "400"), ("gamma", "400", "inf")])
    def test_gamma_overflow_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "double range" in err

    def test_mellin_overflow_exits_2_without_traceback(self):
        # a fresh process, so that an escaping exception would show as exit 1
        env = dict(os.environ, PYTHONIOENCODING="utf-8")
        package_root = str(Path(adelic.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "adelic.cli", "mellin", "400"],
            env=env, capture_output=True, encoding="utf-8", timeout=60,
        )
        assert result.returncode == 2 and result.stdout == ""
        assert "double range" in result.stderr and "Traceback" not in result.stderr
