"""Byte-for-byte CLI output against golden files.

``cli_golden.json`` holds, for every invocation in ``CASES``, the exit code,
stdout and stderr of ``adelic.cli.main`` run in-process.  A refactor that
keeps the CLI unchanged keeps this test green.  To re-capture after an
intended output change, run ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import functools
import io
import json
import pathlib
import sys

import pytest

from adelic.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

# the commands documented in README.md
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
        "verify norm-product 0",
        "verify no-such-family 1",
    )
    + tuple(
        f"suite {f.split()[0]} --trials 20 --height 1000 --seed 7 --json" for f in FAMILIES
    )
))


def run_cli(cmd: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
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
