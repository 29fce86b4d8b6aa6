"""Mutation suite: each row breaks the library on purpose, and named tests must notice.

Run it from anywhere with ``python tests/mutants.py`` (standard library and
pytest only).  For each row it copies ``src/`` to a temporary directory,
replaces the row's old text, which must occur exactly once in the row's file,
by its new text, and runs only the row's test files against that copy with
``python -m pytest -x -q``.  A test failure kills the mutant; a passing run
lets it survive.  Rows run one after another.

The last row, the control, changes nothing, and runs every test file the
other rows name: it must survive, which shows that each kill comes from its
mutant.  The exit status is 1 when a mutant survives or the control is
killed, and 2 when a row cannot be applied or pytest does not run its tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# old and new text of one mutant that two rows apply
_HILBERT_FLIPPED_AT_2_AND_INFINITY = (
    "    return -1 if exponent % 2 else 1\n",
    "    return -1 if exponent % 2 else 1\n\n\n_hilbert_symbol = hilbert_symbol\n\n\n"
    "def hilbert_symbol(x, y, place):\n    sign = _hilbert_symbol(x, y, place)\n"
    "    return -sign if place.is_infinite or place.prime == 2 else sign\n",
)

# (name, file under src/adelic, old text, new text, test files that must fail)
MUTANTS = (
    (
        "from_magnitude keeps the magnitude unsquared",
        "symbols.py",
        "cls._make(_ROOTS[0], m * m, _PHASE_ONE)",
        "cls._make(_ROOTS[0], m, _PHASE_ONE)",
        ("tests/test_value_classes.py",),
    ),
    (
        "from_magnitude takes a zero magnitude",
        "symbols.py",
        "        if m == 0:\n",
        "        if False:\n",
        ("tests/test_value_classes.py",),
    ),
    (
        "the archimedean character is conjugated",
        "local.py",
        "RootOfUnity._make(-x % 1)",
        "RootOfUnity._make(x % 1)",
        ("tests/test_local.py",),
    ),
    (
        "the kernel terms hold 1/(2T) for 1/(4T)",
        "gauss.py",
        "1 / (4 * T)",
        "1 / (2 * T)",
        ("tests/test_gauss.py",),
    ),
    (
        "the kernel phase's cubic term is -lam**2 T**3 / 12",
        "gauss.py",
        "-(lam**2) * T**3 / 24",
        "-(lam**2) * T**3 / 12",
        ("tests/test_local_laws.py",),
    ),
    (
        "the kernel phase's linear term divides by 2, not 4",
        "gauss.py",
        "(lam * (x2 + x1) - 2) * T / 4",
        "(lam * (x2 + x1) - 2) * T / 2",
        ("tests/test_local_laws.py",),
    ),
    (
        "the kernel's Weil index argument is 8T for -8T",
        "gauss.py",
        "return -8 * T,",
        "return 8 * T,",
        ("tests/test_local_laws.py",),
    ),
    (
        "_gauss_terms uses the magnitude 1/a for 1/(2a)",
        "gauss.py",
        "1 / (2 * a)",
        "1 / a",
        ("tests/test_gauss.py",),
    ),
    (
        "the term memo ignores its function",
        "gauss.py",
        "if terms_of is not last_of or args != last_args:",
        "if args != last_args:",
        ("tests/test_gauss.py",),
    ),
    (
        "kernel_places drops the proven prime 2",
        "gauss.py",
        "sorted({2, *extra, *support(args[3])})",
        "sorted({*extra, *support(args[3])})",
        ("tests/test_gauss.py",),
    ),
    (
        "_split gives a denominator's valuation the wrong sign",
        "rational.py",
        "return -v, a, b",
        "return v, a, b",
        ("tests/test_rational.py",),
    ),
    (
        "_multiplicity returns the undivided cofactor",
        "rational.py",
        "return e, n\n",
        "return e, n * p**e\n",
        ("tests/test_rational.py",),
    ),
    (
        "_as_fraction lets a float through",
        "rational.py",
        "if isinstance(x, Fraction):",
        "if isinstance(x, (Fraction, float)):",
        ("tests/test_exact_arguments.py",),
    ),
    (
        "psi_2 = 1373653 is off by two",
        "rational.py",
        "    1373653,\n",
        "    1373655,\n",
        ("tests/test_rational.py",),
    ),
    (
        "the rho cap is 2**8",
        "rational.py",
        "_RHO_STEP_LIMIT = 1 << 20",
        "_RHO_STEP_LIMIT = 1 << 8",
        ("tests/test_rational.py",),
    ),
    (
        "factorize takes every perfect power for a square",
        "rational.py",
        "pending.append((root, k * j))",
        "pending.append((root, k * 2))",
        ("tests/test_rational.py",),
    ),
    (
        "a perfect power's exponent is dropped",
        "rational.py",
        "pending.append((root, k * j))",
        "pending.append((root, k))",
        ("tests/test_rational.py",),
    ),
    (
        "the cofactor guard takes a non-power past it",
        "rational.py",
        "        elif guarded:\n",
        "        elif False:\n",
        ("tests/test_rational.py",),
    ),
    (
        "the residue screen rejects every j",
        "rational.py",
        "if all(pow(m % q, e, q) <= 1 for q, e in _screen_primes(j)):",
        "if all(pow(m % q, e, q) < 0 for q, e in _screen_primes(j)):",
        ("tests/test_rational.py",),
    ),
    (
        "the odd sieve starts crossing out at i * i, twice too far",
        "rational.py",
        "start = i * i // 2",
        "start = i * i",
        ("tests/test_rational.py",),
    ),
    (
        "primes_up_to drops 2",
        "rational.py",
        "return (2, *compress(range(1, n + 1, 2), sieve))",
        "return tuple(compress(range(1, n + 1, 2), sieve))",
        ("tests/test_rational.py",),
    ),
    (
        "odd-place Hilbert symbol without (-1)**(alpha beta)",
        "symbols.py",
        "_legendre((-1) ** (alpha * beta % 2) * u ** (beta % 2) * w ** (alpha % 2), p)",
        "_legendre(u ** (beta % 2) * w ** (alpha % 2), p)",
        ("tests/test_symbols.py",),
    ),
    (
        "odd-place Hilbert symbol with the exponents swapped",
        "symbols.py",
        "_legendre((-1) ** (alpha * beta % 2) * u ** (beta % 2) * w ** (alpha % 2), p)",
        "_legendre((-1) ** (alpha * beta % 2) * u ** (alpha % 2) * w ** (beta % 2), p)",
        ("tests/test_symbols.py",),
    ),
    (
        # every product of Weil indices is conjugated too, so it stays 1
        "the Weil index is conjugated at every place",
        "symbols.py",
        "    return _ROOTS[u8]\n",
        "    return _ROOTS[u8]\n\n\n_weil_index = weil_index\n\n\n"
        "def weil_index(x, place):\n    return _ROOTS[-_weil_index(x, place).k % 8]\n",
        ("tests/test_symbols.py",),
    ),
    (
        # two sign flips cancel in every Hilbert product
        "the Hilbert symbol is flipped at 2 and at infinity together",
        "symbols.py",
        *_HILBERT_FLIPPED_AT_2_AND_INFINITY,
        ("tests/test_symbols.py",),
    ),
    (
        "the Hilbert symbol is flipped at 2 and at infinity together, against Weil's relations",
        "symbols.py",
        *_HILBERT_FLIPPED_AT_2_AND_INFINITY,
        ("tests/test_local_laws.py",),
    ),
    (
        "is_identity ignores the phase",
        "symbols.py",
        "self.root.is_one and self.mag2 == 1 and self.phase.is_one",
        "self.root.is_one and self.mag2 == 1",
        ("tests/test_symbols.py",),
    ),
    (
        "is_identity ignores the magnitude",
        "symbols.py",
        "self.root.is_one and self.mag2 == 1 and self.phase.is_one",
        "self.root.is_one and self.phase.is_one",
        ("tests/test_verifier.py",),
    ),
    (
        "is_identity ignores the eighth root",
        "symbols.py",
        "self.root.is_one and self.mag2 == 1 and self.phase.is_one",
        "self.mag2 == 1 and self.phase.is_one",
        ("tests/test_verifier.py",),
    ),
    (
        "local_abs takes the valuation off by one",
        "local.py",
        "Fraction(1, p**v)",
        "Fraction(1, p ** (v + 1))",
        ("tests/test_local.py",),
    ),
    (
        "_frac_part reduces modulo p times too much",
        "local.py",
        "q = p**-v",
        "q = p ** (1 - v)",
        ("tests/test_local.py",),
    ),
    (
        "the dyadic Weil index of an even valuation is conjugated",
        "symbols.py",
        "(1 - (u8 & 2)) % 8",
        "(1 + (u8 & 2)) % 8",
        ("tests/test_local_laws.py",),
    ),
    (
        "the dyadic Hilbert symbol drops alpha * omega(w)",
        "symbols.py",
        " + alpha * omega_w",
        "",
        ("tests/test_local_laws.py",),
    ),
    (
        "the suite's FAIL line shows the diagnostic alone",
        "cli.py",
        "{_failure(failure)}",
        "{failure['diagnostic']}",
        ("tests/test_cli.py",),
    ),
    (
        "mellin skips the tolerance rule",
        "cli.py",
        "    _check_tolerance(ns.tol)\n",
        "",
        ("tests/test_cli.py",),
    ),
    (
        "the orbit probe starts at the fixed point",
        "dynamics.py",
        "    if x == x_star:\n",
        "    if False:\n",
        ("tests/test_dynamics.py",),
    ),
    (
        "the spot check is skipped",
        "verifier.py",
        "off_place = self._spot_check_place(places, rendered)",
        "off_place = None",
        ("tests/test_verifier.py",),
    ),
    (
        "the numeric verdict compares against 10 * tol",
        "verifier.py",
        "verdict = NUMERIC_PASS if evaluation.residual <= tol else FAIL",
        "verdict = NUMERIC_PASS if evaluation.residual <= 10 * tol else FAIL",
        ("tests/test_verifier.py",),
    ),
    (
        "the gamma overflow fallback drops exp(-t)",
        "special.py",
        "(half * (half * cmath.exp(-t)))",
        "(half * half)",
        ("tests/test_special.py",),
    ),
    (
        # zeta(2) reads 1.62865 for 1.64493
        "d_n scaled by 1.01 in _borwein_series",
        "special.py",
        "    return weights, dn\n",
        "    return weights, dn * 1.01\n",
        ("tests/test_special.py",),
    ),
)

CONTROL = (
    "control: the old text unchanged",
    "local.py",
    "RootOfUnity._make(-x % 1)",
    "RootOfUnity._make(-x % 1)",
    tuple(sorted({path for row in MUTANTS for path in row[4]})),
)


def _abort(message: str) -> None:
    print(message, file=sys.stderr)
    sys.exit(2)


def run(name: str, file: str, old: str, new: str, tests: tuple[str, ...]) -> str | None:
    """Apply one mutant to a copy of src/ and run its tests: the first failed test, or None."""
    source = (ROOT / "src" / "adelic" / file).read_text(encoding="utf-8")
    if source.count(old) != 1:
        _abort(f"{name}: the old text occurs {source.count(old)} times in {file}")
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        (src / "adelic" / file).write_text(source.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        imported = subprocess.run(
            [sys.executable, "-c", "import adelic; print(adelic.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        if not Path(imported.strip()).is_relative_to(src):
            _abort(f"{name}: adelic was imported from {imported.strip()}, not from the copy")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if result.returncode not in (0, 1):  # 1: a test failed; anything else: the tests did not run
        _abort(f"{name}: pytest exited with {result.returncode}\n{result.stdout}{result.stderr}")
    if result.returncode == 0:
        return None
    summary = (line.split()[1] for line in result.stdout.splitlines() if line.startswith(("FAILED ", "ERROR ")))
    return next(summary, "a test")


def main() -> int:
    failures = 0
    for row in MUTANTS + (CONTROL,):
        start = time.perf_counter()
        failed = run(*row)
        wrong = (failed is not None) == (row is CONTROL)
        failures += wrong
        verdict = "survived" if failed is None else f"killed by {failed}"
        mark = "WRONG " if wrong else ""
        print(f"{mark}{time.perf_counter() - start:5.1f} s  {row[0]}: {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants and one control; {failures} wrong")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
