"""End-to-end acceptance checks.

Each test enforces one acceptance criterion at its stated tolerance and time
budget and prints a single PASS/FAIL line (run pytest with -s to see them).
"""

import contextlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import adelic
from adelic.cli import main as cli_main
from adelic.dynamics import (
    MoebiusMap,
    classify,
    random_map_with_rational_fixed_points,
)
from adelic.gauss import (
    free_gauss_parameters,
    gauss_factor,
    gaussian_fourier_residual,
    ground_state,
    kernel,
    kernel_phase_argument,
    kernel_places,
    padic_gauss_oracle,
)
from adelic.local import (
    INFINITY_PLACE,
    Place,
    additive_character,
    frac_part,
    integer_indicator,
    local_abs,
    parse_place,
)
from adelic.rational import DomainError, support, valuation
from adelic.special import (
    gamma_local,
    mellin_vacuum,
    riemann_zeta,
    verify_beta_product,
    verify_gamma_product,
)
from adelic.symbols import (
    EighthRoot,
    ExactFactor,
    legendre_symbol,
    weil_index,
)
from adelic.verifier import (
    default_registry,
    verify_functional_equation,
    verify_gauss_product,
    verify_hilbert_product,
    verify_kernel_product,
    verify_lambda_product,
)

from oracles import hilbert_solvable, legendre_table
from test_dynamics import confirm_label_by_orbit

REGISTRY = default_registry()

# the directory that holds the adelic package, for child interpreters
_PACKAGE_ROOT = str(Path(adelic.__file__).resolve().parents[1])


@contextlib.contextmanager
def criterion(name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] {name} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded {budget}s budget"


def _rand_rational(rng, height, nonzero=False):
    num = rng.randint(-height, height)
    while nonzero and num == 0:
        num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, height))


def _rand_with_valuation(rng, p, low, high, height=20):
    while True:
        num = rng.randint(1, height)
        den = rng.randint(1, height)
        if num % p and den % p:
            break
    sign = rng.choice([-1, 1])
    return Fraction(sign * num, den) * Fraction(p) ** rng.randint(low, high)


def test_norm_product_identity_bulk():
    with criterion("norm product: 1000 seeded trials exact", budget=1.0):
        suite = REGISTRY.random_suite("norm-product", 1000, 10**6, seed=42)
        assert suite.verdicts == (("ExactPass", 1000),)


def test_character_product_integer_gap_bulk():
    with criterion("character product: 1000 seeded integer-gap checks", budget=1.0):
        rng = random.Random(43)
        for _ in range(1000):
            x = _rand_rational(rng, 10**6)
            total = x
            if x != 0:
                for p in support(x):
                    total -= frac_part(x, p)
            assert total.denominator == 1


def test_lambda_product_bulk():
    with criterion("lambda product: 1000 trials, exponent sum 0 mod 8", budget=5.0):
        rng = random.Random(44)
        for _ in range(1000):
            x = _rand_rational(rng, 10**6, nonzero=True)
            report = verify_lambda_product(x)
            assert report.verdict == "ExactPass"
            roots = [weil_index(x, parse_place(place)) for place, _ in report.factors]
            assert [value for _, value in report.factors] == [str(w) for w in roots]
            assert sum(w.k for w in roots) % 8 == 0


def test_hilbert_product_and_solvability_oracle():
    with criterion("hilbert product: 1000 exact trials + oracle agreement", budget=30.0):
        rng = random.Random(45)
        for _ in range(1000):
            x = _rand_rational(rng, 10**6, nonzero=True)
            y = _rand_rational(rng, 10**6, nonzero=True)
            assert verify_hilbert_product(x, y).verdict == "ExactPass"
        from adelic.symbols import hilbert_symbol

        for _ in range(200):
            x = _rand_rational(rng, 100, nonzero=True)
            y = _rand_rational(rng, 100, nonzero=True)
            for p in (2, 3, 5, 7):
                closed = hilbert_symbol(x, y, Place.finite(p))
                assert (closed == 1) == hilbert_solvable(x, y, p)


def test_legendre_exhaustive_small_primes():
    with criterion("Legendre symbol: exhaustive match to square tables, p <= 97"):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97):
            table = legendre_table(p)
            for a in range(p):
                assert legendre_symbol(a, p) == table[a]


def test_gauss_product_and_oracle():
    with criterion("Gauss product: 500 exact trials + 50 oracle agreements", budget=60.0):
        rng = random.Random(46)
        for _ in range(500):
            a = _rand_rational(rng, 10**4, nonzero=True)
            b = _rand_rational(rng, 10**4)
            assert verify_gauss_product(a, b).verdict == "ExactPass"
        cases = 0
        while cases < 50:
            p = (2, 3, 5, 7)[cases % 4]
            a = _rand_with_valuation(rng, p, -2, 2)
            b = _rand_with_valuation(rng, p, -1, 1, height=10) if rng.random() < 0.7 else Fraction(0)
            closed = gauss_factor(a, b, Place.finite(p)).to_complex()
            va = int(valuation(a, p))
            center_v = 0
            if b != 0:
                center_v = int(valuation(b, p)) - int(valuation(2 * a, p))
            n0 = max(2, (-va + 3) // 2, -center_v + 1)
            assert abs(padic_gauss_oracle(a, b, p, n0) - closed) < 1e-9
            cases += 1


def test_kernel_product_and_free_reduction():
    with criterion("kernel product: 500 exact trials + 100 free-case reductions", budget=10.0):
        rng = random.Random(47)
        for _ in range(500):
            args = (
                _rand_rational(rng, 50),
                _rand_rational(rng, 50),
                _rand_rational(rng, 50),
                _rand_rational(rng, 50, nonzero=True),
            )
            assert verify_kernel_product(*args).verdict == "ExactPass"
        for _ in range(100):
            x2 = _rand_rational(rng, 30)
            x1 = _rand_rational(rng, 30)
            T = _rand_rational(rng, 30, nonzero=True)
            assert kernel_phase_argument(x2, x1, 0, T) == -T / 2 + (x2 - x1) ** 2 / (8 * T)
            a, b = free_gauss_parameters(x2, x1, T)
            for place in kernel_places(x2, x1, 0, T):
                correction = ExactFactor(
                    EighthRoot.one(),
                    local_abs(4 * T, place) ** -2,
                    additive_character(-T / 2, place),
                )
                assert kernel(x2, x1, 0, T, place).exact() == gauss_factor(a, b, place).exact() * correction


def test_ground_state_gate_and_fourier():
    with criterion("ground state gate over 1000 rationals + Fourier residuals"):
        rng = random.Random(48)
        for _ in range(1000):
            x = _rand_rational(rng, 10**4)
            gate = 1
            if x != 0:
                for p in support(x):
                    gate *= integer_indicator(x, p)
            psi = ground_state(x)
            assert psi.padic_gate == gate
            assert (psi.padic_gate == 1) == (x.denominator == 1)
        for k in (0.0, 1.0, 2.0):
            assert gaussian_fourier_residual(k) < 1e-8


def test_gamma_reflection_and_regularized_products():
    with criterion("gamma reflection + regularized gamma/beta products"):
        rng = random.Random(49)
        for p in (2, 3, 5):
            place = Place.finite(p)
            done = 0
            while done < 100:
                a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                try:
                    product = gamma_local(a, place) * gamma_local(1 - a, place)
                except DomainError:
                    continue
                assert abs(product - 1) < 1e-12
                done += 1
        u = -2.5
        while u <= 3.5:
            if not any(abs(u - c) < 0.2 for c in (0.0, 1.0, -2.0)):
                assert verify_gamma_product(u).residual < 1e-9
            u += 0.25
        done = 0
        while done < 30:
            a = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            c = 1 - a - b
            if any(
                abs(z.imag) < 0.2 and abs(z.real - round(z.real)) < 0.2
                for z in (a, b, c)
            ):
                continue
            report = verify_beta_product(a, b)
            assert abs(a + b + report.c - 1) < 1e-12
            assert report.residual < 1e-9
            done += 1


def test_functional_equation_and_zeta_references():
    with criterion("functional equation grid + 100 random points + zeta references"):
        assert abs(riemann_zeta(2) - math.pi**2 / 6) < 1e-10
        assert abs(riemann_zeta(-1) - (-1.0 / 12.0)) < 1e-10
        assert abs(riemann_zeta(3) - 1.2020569031595943) < 1e-10
        grid = [-2.5, -1.7, -0.8, 0.3, 0.5, 1.3, 2.0, 2.6, 3.4, 4.1,
                complex(0.5, 0.5), complex(0.5, 1.5), complex(0.5, 3.0),
                complex(2.2, -1.1), complex(-1.3, 0.7), complex(3.7, 2.2),
                complex(1.6, -2.4), complex(-0.4, 1.9), complex(4.4, 0.8),
                complex(2.9, 3.1)]
        assert len(grid) == 20
        for a in grid:
            assert verify_functional_equation(a) < 1e-8
        rng = random.Random(50)
        done = 0
        while done < 100:
            a = complex(rng.uniform(-4.5, 4.5), rng.uniform(-3, 3))
            if abs(a) > 5:
                continue
            if abs(a.imag) < 0.2 and abs(a.real - round(a.real)) < 0.2:
                continue
            assert verify_functional_equation(a) < 1e-8
            done += 1


def test_mellin_identity():
    with criterion("vacuum Mellin transform at a in {1.5, 2, 3, 4}"):
        for a in (1.5, 2.0, 3.0, 4.0):
            assert mellin_vacuum(a).residual < 1e-8


def test_dynamics_exceptional_sets_and_orbits():
    with criterion("dynamics: 200 maps, finite exceptional sets, orbit confirmation"):
        rng = random.Random(51)
        maps = [random_map_with_rational_fixed_points(rng, 8) for _ in range(200)]
        for f in maps:
            for r in classify(f).reports:
                allowed = {INFINITY_PLACE} | {Place.finite(p) for p in support(r.multiplier)}
                assert set(r.exceptional) <= allowed
                assert len(r.exceptional) < math.inf
        for p in (2, 3, 5):
            confirmed = 0
            index = 0
            while confirmed < 20:
                f = maps[index % len(maps)]
                index += 1
                for r in classify(f).reports:
                    if confirm_label_by_orbit(f, r, p):
                        confirmed += 1
        worked = MoebiusMap(2, 0, 1, Fraction(1, 2))
        report = classify(worked)
        by_point = {r.point: r for r in report.reports}
        origin = by_point[Fraction(0)]
        assert origin.multiplier == 4
        assert origin.label_at(INFINITY_PLACE) == "repelling"
        assert origin.label_at(Place.finite(2)) == "attractive"
        assert set(origin.exceptional) == {INFINITY_PLACE, Place.finite(2)}
        other = by_point[Fraction(3, 2)]
        assert other.multiplier == Fraction(1, 4)
        assert other.label_at(INFINITY_PLACE) == "attractive"
        assert other.label_at(Place.finite(2)) == "repelling"


def test_factoring_past_trial_division(capsys):
    with criterion("2^61-1 verified in < 0.2s; prime above 2^64 rejected, exit 2, in < 0.5s"):
        start = time.perf_counter()
        code = cli_main(["verify", "norm-product", "2305843009213693951", "--json"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "ExactPass"
        assert elapsed < 0.2, f"2^61-1 took {elapsed:.2f}s"

        start = time.perf_counter()
        code = cli_main(["verify", "norm-product", "18446744073709551629"])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert "18446744073709551629" in capsys.readouterr().err
        assert elapsed < 0.5, f"2^64+13 took {elapsed:.2f}s"


def test_cli_contract(capsys):
    with criterion("CLI: documented exit codes + JSON round trip per subcommand"):
        code = cli_main(["verify", "norm-product", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "1 = 12 × 1/4 × 1/3 ✓ exact"

        code = cli_main(["dynamics", "classify", "2", "0", "1", "1/2", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert {fp["point"] for fp in payload["fixed_points"]} == {"0", "3/2"}

        code = cli_main(["verify", "norm-product", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "nonzero" in err

        for argv in (
            ["norm", "7/8", "2"],
            ["digits", "7/8", "2", "3"],
            ["frac", "16/3", "3"],
            ["char", "7/8", "inf"],
            ["legendre", "2", "7"],
            ["hilbert", "-1", "-1", "2"],
            ["lambda", "-1", "inf"],
            ["gauss", "1", "0", "2"],
            ["kernel", "0", "0", "0", "1", "2"],
            ["gamma", "2", "2"],
            ["beta", "2", "2", "2"],
            ["zeta", "2", "inf"],
            ["zeta", "2"],
            ["mellin", "2"],
            ["wavefn", "3"],
            ["dynamics", "classify", "2", "0", "1", "1/2"],
            ["dynamics", "orbit", "2", "0", "1", "1/2", "--x0", "2"],
            ["verify", "gauss-product", "3/4", "2/5"],
            ["verify", "kernel-product", "1/2", "1/3", "2", "3/5"],
            ["verify", "hilbert-product", "-1", "-1"],
            ["verify", "lambda-product", "-1"],
            ["verify", "character-product", "7/8"],
            ["verify", "gamma-product", "2"],
            ["verify", "beta-product", "2.3+0.4i", "-1.2+0.3i"],
            ["verify", "functional-equation", "2"],
            ["suite", "norm-product", "--trials", "10"],
        ):
            code = cli_main(argv + ["--json"])
            out = capsys.readouterr().out
            assert code == 0, argv
            payload = json.loads(out)
            assert json.loads(json.dumps(payload, sort_keys=True)) == payload, argv


def _run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this adelic, with UTF-8 output."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, encoding="utf-8", timeout=60
    )


_IMPORT_PROBE = """
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in ("numpy", "scipy") if m in sys.modules)
stages = {}
import adelic
stages["import adelic"] = loaded()
import adelic.cli
stages["import adelic.cli"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [adelic.cli.main(argv) for argv in (
        ["verify", "norm-product", "12"], ["gauss", "1", "0", "2"], ["wavefn", "1/2"])]
stages["three commands"] = loaded()
residual = adelic.mellin_vacuum(2.0).residual
stages["mellin_vacuum"] = loaded()
fourier = adelic.gaussian_fourier_residual(1.0)
stages["gaussian_fourier_residual"] = loaded()
oracle = abs(adelic.padic_gauss_oracle(3, 0, 2, 3) - (1 - 1j))
stages["padic_gauss_oracle"] = loaded()
print(json.dumps({"stages": stages, "codes": codes, "residual": residual,
                  "fourier": fourier, "oracle": oracle}))
"""


def test_scipy_and_numpy_load_only_where_used():
    with criterion("no command or library function loads scipy or numpy"):
        result = _run_python(["-c", _IMPORT_PROBE])
        assert result.returncode == 0, result.stderr
        probe = json.loads(result.stdout)
        stages = probe["stages"]
        assert stages == {
            "import adelic": [],
            "import adelic.cli": [],
            "three commands": [],
            "mellin_vacuum": [],
            "gaussian_fourier_residual": [],
            "padic_gauss_oracle": [],
        }
        assert probe["codes"] == [0, 0, 0]
        assert probe["residual"] <= 1e-8
        assert probe["fourier"] < 1e-8
        assert probe["oracle"] < 1e-9


def test_cli_cold_start():
    with criterion("CLI cold start: best of 3 `python -m adelic.cli verify norm-product 12` < 0.3s"):
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            result = _run_python(["-m", "adelic.cli", "verify", "norm-product", "12"])
            elapsed.append(time.perf_counter() - start)
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == "1 = 12 × 1/4 × 1/3 ✓ exact"
        assert min(elapsed) < 0.3, f"cold starts took {', '.join(f'{t:.2f}' for t in elapsed)}s"


def test_cli_cold_start_mellin():
    with criterion("CLI cold start: best of 3 `python -m adelic.cli mellin 2` < 0.3s"):
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            result = _run_python(["-m", "adelic.cli", "mellin", "2"])
            elapsed.append(time.perf_counter() - start)
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == (
                "mellin(2.0): numeric 0.740480489693, closed 0.740480489693, residual 5.551e-16"
            )
        assert min(elapsed) < 0.3, f"cold starts took {', '.join(f'{t:.2f}' for t in elapsed)}s"
