"""The public names of the package, pinned: an added or removed name shows here.

The package's imports are pinned too: no module of it imports test code.  The
tests import adelic themselves, so that the import scan, which reads the
source, names its lines even when importing the package fails.
"""

import ast
from pathlib import Path
from types import ModuleType

PUBLIC_NAMES = [
    "AT_INFINITY",
    "DigitExpansion",
    "DomainError",
    "EighthRoot",
    "ExactFactor",
    "INFINITE",
    "INFINITY_PLACE",
    "MoebiusMap",
    "Place",
    "PoleError",
    "ProductFamily",
    "Registry",
    "RootOfUnity",
    "SuiteReport",
    "VerificationReport",
    "WaveFunctionValue",
    "ZetaEvaluator",
    "additive_character",
    "beta_local",
    "classify",
    "complex_gamma",
    "default_registry",
    "digit_expansion",
    "factorize",
    "fixed_points",
    "frac_part",
    "gamma_local",
    "gauss_factor",
    "ground_state",
    "hilbert_symbol",
    "is_prime",
    "kernel",
    "kernel_phase_argument",
    "legendre_symbol",
    "local_abs",
    "mellin_vacuum",
    "orbit_probe",
    "parse_place",
    "parse_rational",
    "places_for",
    "random_map_with_rational_fixed_points",
    "riemann_zeta",
    "support",
    "valuation",
    "weil_index",
    "zeta_adelic",
    "zeta_local",
]


def test_public_names_are_pinned():
    import adelic

    assert sorted(adelic.__all__) == PUBLIC_NAMES


def test_no_submodule_is_a_public_name():
    import adelic

    # the submodules stay importable as adelic.<name>, outside __all__
    assert [name for name in adelic.__all__ if isinstance(getattr(adelic, name), ModuleType)] == []


# the test oracles live in tests/; no module of the package may import them,
# the tests or a package of the test extra
TEST_ONLY = {"oracles", "tests", "pytest", "hypothesis", "mpmath", "scipy", "numpy"}


def test_the_library_imports_no_test_code():
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "adelic").glob("*.py"))
    assert paths, "no module found in the package"
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] in TEST_ONLY
            ]
    assert not found, "imports of test code:\n" + "\n".join(found)
