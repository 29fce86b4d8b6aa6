import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import adelic
from adelic.cli import build_parser, commands, main
from adelic.local import Place
from adelic.special import gamma_local


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

    def test_gamma_negative_exponent_token(self, capsys):
        code, out, _ = run(capsys, "gamma", "-1e-05+2i", "3", "--json")
        assert code == 0
        value = complex(*json.loads(out)["value"])
        assert value == gamma_local(complex(-1e-5, 2), Place(3))

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

    def test_verify_extra_places_are_listed_once(self, capsys):
        code, out, _ = run(
            capsys, "verify", "norm-product", "12", "--places", "5,5,05,3", "--json"
        )
        assert code == 0
        places = [f["place"] for f in json.loads(out)["factors"]]
        assert places == ["inf", "2", "3", "5"]

    @pytest.mark.parametrize(
        "argv", [("gamma-product", "2"), ("beta-product", "2", "3"), ("functional-equation", "2")]
    )
    def test_verify_places_of_a_numeric_family_refused(self, capsys, argv):
        # a numeric report holds no exact factor to tabulate at an extra place
        code, out, err = run(capsys, "verify", *argv, "--places", "5", "--json")
        assert (code, out) == (2, "")
        assert err == "error: --places tabulates the factors of an exact family only\n"

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


class TestParser:
    @staticmethod
    def subparsers(parser: argparse.ArgumentParser) -> dict:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_only_the_command_argv_names_gets_its_arguments(self):
        names = [c.name for c in commands()]
        for argv, runs in (
            (["verify", "norm", "7/8"], "verify"),
            (["--json", "norm", "7/8", "2"], "norm"),
            (["nosuch", "norm"], "norm"),
            (["-h"], None),
        ):
            subparsers = self.subparsers(build_parser(argv))
            assert list(subparsers) == names
            built = [name for name, p in subparsers.items() if p._actions]
            assert built == ([runs] if runs else [])

    def test_no_top_level_option_takes_a_value(self):
        # build_parser takes the first token naming a command as the one
        # argparse dispatches to; an option value could be such a token
        parser = build_parser([])
        assert all(a.nargs == 0 for a in parser._actions if a.option_strings)

    @pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 wraps usage differently")
    def test_pinned_usage_is_what_argparse_writes(self, monkeypatch):
        # build_parser pins the top-level usage that argparse itself writes
        # at the golden's 80 columns, so a new command or top-level option
        # cannot leave the pinned text stale
        monkeypatch.setenv("COLUMNS", "80")
        parser = build_parser([])
        pinned = parser.format_usage()
        parser.usage = None
        assert pinned == parser.format_usage()
        assert pinned.startswith("usage: adelic [-h]\n")

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["adelic", "norm", "7/8", "2"])
        assert main() == 0
        assert capsys.readouterr().out == "|7/8|_2 = 8\n"


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

    @pytest.mark.parametrize("argv", [
        ("gauss", f"1/{10**400}", "0", "inf"),
        ("kernel", "0", "0", "0", f"1/{10**400}", "inf"),
    ])
    def test_exact_value_past_the_double_range_exits_2(self, argv):
        # |2a|^(-1/2) and |4T|^(-1/2) are exact, but their approximation is a double
        result = run_process(*argv, timeout=30)
        assert result.returncode == 2 and result.stdout == ""
        assert "double range" in result.stderr and "Traceback" not in result.stderr


def run_process(*argv, timeout):
    """One fresh `python -m adelic.cli` process; an escaping exception shows as exit 1."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    package_root = str(Path(adelic.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "adelic.cli", *argv],
        env=env, capture_output=True, encoding="utf-8", timeout=timeout,
    )


ORBIT = ("dynamics", "orbit", "2", "0", "1", "1/2", "--x0", "1/3", "--fixed-point", "0")


class TestInputGuards:
    """Inputs that used to hang, crash or pass: each exits 2 with an error line."""

    @pytest.mark.parametrize("argv", [
        # a height below 1 redrew randint(0, 0) forever or raised ValueError
        *(("suite", f, "--height", "0") for f in (
            "norm-product", "character-product", "lambda-product",
            "hilbert-product", "gauss-product", "kernel-product",
        )),
        ("suite", "norm-product", "--height", "-1"),
        # the height was checked only when a rational was drawn: both passed
        ("suite", "gamma-product", "--height", "0"),
        ("suite", "norm-product", "--height", "0", "--trials", "0"),
        # printed "-3 trials" and exited 0
        ("suite", "norm-product", "--trials", "-3"),
        # non-finite a came out as residual nan, a failed verification
        ("mellin", "nan"),
        ("mellin", "inf"),
        ("mellin", "1e400"),
        # a NaN tolerance failed every comparison
        ("verify", "functional-equation", "2", "--tol", "nan"),
        ("verify", "functional-equation", "2", "--tol", "-1"),
        ("suite", "gamma-product", "--tol", "nan"),
        ("mellin", "2", "--tol", "nan"),
        # printed an empty orbit
        (*ORBIT, "--steps", "-2"),
        # OverflowError: 10**400 * log2(3), an infinite a, a power past the double range
        ("digits", "7/8", "3", "1" + "0" * 400),
        ("verify", "functional-equation", "1e400"),
        ("gamma", "700", "3"),
        # AttributeError: argparse gave accel an empty list, place "--json"
        ("kernel", "5", "--", "7", "--", "-inf", "--json"),
    ])
    def test_exits_2_without_traceback(self, argv):
        result = run_process(*argv, timeout=30)
        assert result.returncode == 2 and result.stdout == ""
        assert "error: " in result.stderr.splitlines()[-1]
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [
        (*ORBIT, "--steps", "100000"),  # cubic in the steps: 23.8 s at 4000
        ("digits", "1/3", "2", "100000"),  # quadratic in the digits
        ("suite", "norm-product", "--trials", str(2**61 - 1)),  # ran for ages
        ("suite", "norm-product", "--trials", "1", "--height", "1" + "0" * 400),  # 11 s of rho
    ])
    def test_cost_guard_answers_within_a_second(self, capsys, argv):
        result = run_process(*argv, timeout=30)
        assert result.returncode == 2 and "Traceback" not in result.stderr
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == ""
        assert time.perf_counter() - start < 1.0


def readme_commands() -> list[str]:
    """The commands of README.md's CLI block, without the leading `adelic`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        " ".join(line.split("#", 1)[0].split()[1:])
        for line in block.splitlines() if line.startswith("adelic ")
    ]


class TestReadme:
    def test_cli_block_shows_every_subcommand(self):
        documented = {cmd.split()[0] for cmd in readme_commands()}
        assert documented == {c.name for c in commands()}

    def test_cli_block_is_pinned_by_the_golden(self):
        from test_cli_golden import CASES

        assert set(readme_commands()) <= set(CASES)
