"""Byte-for-byte CLI output against golden files.

``cli_golden.json`` holds, for every invocation in ``CASES``, the exit code,
stdout and stderr of ``adelic.cli.main`` run in-process, with ``COLUMNS=80``
because argparse wraps its usage and help text at the terminal width.  A
refactor that keeps the CLI unchanged keeps this test green.  To re-capture
after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import functools
import io
import json
import os
import pathlib
import sys
from unittest import mock

import pytest

from adelic.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

# the commands README.md documented when the golden was first captured
DOCUMENTED = (
    "verify norm-product 12",
    "verify gauss-product 3/4 2/5 --json",
    "verify functional-equation 2.5+0.5i --tol 1e-8",
    "suite lambda-product --trials 1000 --height 1000000 --seed 42",
    "dynamics classify 2 0 1 1/2 --json",
    "dynamics orbit 2 0 1 1/2 --x0 2 --fixed-point 0 --place 2 --steps 5",
    "norm 7/8 2",
    "digits 7/8 2 3",
    "char 7/8 inf",
    "lambda -1 2",
    "gauss 1 0 2",
    "kernel 0 0 0 1 inf",
    "gamma 2 2",
    "zeta 2",
    "mellin 2",
    "wavefn 1/2",
)

# one invocation per family: the exact ones print their factor tables
FAMILIES = (
    "norm-product 12",
    "character-product 7/60",
    "lambda-product -18/35",
    "hilbert-product 6 -10/7",
    "gauss-product 3/4 2/5",
    "kernel-product 1/2 1/3 2 3/5",
    "gamma-product 2.5+0.5i",
    "beta-product 0.3+0.2i 1.7-0.4i",
    "functional-equation 0.25+1.5i",
)


# every subcommand, in the order of the help text
SUBCOMMANDS = (
    "norm", "digits", "frac", "char", "legendre", "hilbert", "lambda", "gauss", "kernel",
    "gamma", "beta", "zeta", "mellin", "wavefn", "dynamics", "verify", "suite",
)

# subcommands and argument kinds those commands leave out
MORE = (
    "frac 7/8 2",
    "frac 16/3 3 --json",
    "frac 0 5",
    "legendre 3 7",
    "legendre 0 7 --json",
    "legendre -1 5",
    "hilbert -1 -1 inf",
    "hilbert 2 5 2 --json",
    "beta 0.25 0.5 3",
    "beta 2 2 2 --json",
    "beta 0.3+0.2i 1.7-0.4i inf --json",
    "zeta 2 3",
    "zeta 1 2",
    "zeta 2 inf --json",
    "zeta 2 adelic",
    "zeta 2 a --json",
    "zeta 0.5+1i ADELIC",
    "gamma 2 inf",
    "gamma 0.5+1i inf --json",
    "norm 0 5 --json",
    "char -22/7 7 --json",
    "lambda 3/5 inf --json",
    "gauss 3/4 2/5 3",
    "kernel 1/2 1/3 2 3/5 2 --json",
    "gauss 1 0 5",
    "gauss 1 0 5 --json",
    "kernel 1/2 1/3 2 3/5 3",
    "wavefn 3 --json",
    "dynamics classify 1 1 0 1",
    "dynamics orbit 2 0 1 1/2 --x0 1/3 --fixed-point 0 --place inf --steps 3",
)

# domain errors (exit 2, one line on stderr) and a failed comparison (exit 1)
FAILURES = (
    "frac 1/4 inf",
    "frac 1/4 6",
    "legendre 3 2",
    "legendre 3 inf",
    "digits 7/8 inf 3",
    "digits 0 2 3",
    "digits 7/8 2 0",
    "hilbert 0 1 2",
    "hilbert 1 1 4",
    "beta 0.5 0.5 inf",
    "zeta 1",
    "gamma 1 inf",
    "gamma 2 0",
    "norm 3 6",
    "norm 1.5 2",
    "norm 7/8 x",
    "wavefn x",
    "mellin 1",
    "dynamics classify 1 0 0 1",
    "verify beta-product 1",
    "suite no-such-family --trials 1",
    "mellin 3 --tol 1e-30",
)

# argparse rejections and help texts
USAGE = (
    "norm 7/8",
    "digits 7/8 2 x",
    "mellin x",
    "verify norm-product 12 --tol x",
    "nosuch 1",
    "",
    "--help",
) + tuple(f"{cmd} --help" for cmd in SUBCOMMANDS)


# the parser builds the arguments of only the subcommand argv names: a global
# option before it, a command name after another token, and options between
# a command's positionals
PARSER = (
    "--json norm 7/8 2",
    "-h norm",
    "nosuch norm 7/8 2",
    "verify norm 7/8",
    "norm --json 7/8 2",
)


# finite-place factors past the double range or the phase bound (exit 2), a
# vacuum point past the double range, where the value is 0, and the completed
# zeta at 300, where the Lanczos power alone would leave the double range
RANGE = (
    "gamma 700 3",
    "gamma -1e10 3",
    "zeta -1e4 3",
    "beta 1e4 1 2",
    "gamma 1e10 2305843009213693951",
    "gamma 0.5+1e300i 3",
    "zeta 0.5+1e300i 3",
    "beta 0.5+1e300i 1 3",
    "wavefn 1" + "0" * 400,
    "zeta 300",
)


# the gamma and beta products where a factor cancels: zeta(1 - u) vanishes at
# u = 3, so the gamma product there and the beta product at (3, -5, 3) print
# "cancelled" for that factor
CANCELLED = (
    "verify gamma-product 3 --json",
    "verify beta-product 3 -5 --json",
)


def _toggle_json(cmd: str) -> str:
    return cmd.replace(" --json", "") if "--json" in cmd else cmd + " --json"


# dict.fromkeys drops the family cases that repeat a documented one
CASES = tuple(dict.fromkeys(
    DOCUMENTED
    + tuple(_toggle_json(cmd) for cmd in DOCUMENTED)
    + tuple(f"verify {f}" for f in FAMILIES)
    + tuple(f"verify {f} --json" for f in FAMILIES)
    + (
        "verify norm-product 12 --places 5,7,inf",
        "verify kernel-product 1/2 1/3 2 3/5 --places 7,11 --json",
        "verify gamma-product 2 --places 5",
        "verify norm-product 0",
        "verify no-such-family 1",
    )
    + tuple(
        f"suite {f.split()[0]} --trials 20 --height 1000 --seed 7 --json" for f in FAMILIES
    )
    + MORE
    + FAILURES
    + USAGE
    + PARSER
    + RANGE
    + CANCELLED
))


def run_cli(cmd: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(cmd.split())
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("cmd", CASES)
def test_cli_matches_golden(cmd):
    assert run_cli(cmd) == _load()[cmd]


if __name__ == "__main__":
    golden = {cmd: run_cli(cmd) for cmd in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)
