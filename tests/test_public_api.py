"""The public names of the package, pinned: an added or removed name shows here.

The package's imports are pinned too: no module of it imports test code.  The
tests import adelic themselves, so that the import scan, which reads the
source, names its lines even when importing the package fails.  So are the
record types, field by field, and what an import may not do: build a record
type through typing.NamedTuple or compile a regex.
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


def _package_sources() -> list[Path]:
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "adelic").glob("*.py"))
    assert paths, "no module found in the package"
    return paths


def test_the_library_imports_no_test_code():
    found = []
    for path in _package_sources():
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


def _import_time_nodes(tree: ast.AST):
    """The nodes an import runs: all but the bodies of functions and lambdas."""
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _import_time_nodes(node)


def test_an_import_builds_no_typed_record_and_compiles_no_regex():
    # typing.NamedTuple compiles every field annotation at import, and re.compile
    # a pattern; a record type is a collections.namedtuple, a regex compiled by
    # its first use
    found = []
    for path in _package_sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                "NamedTuple" in ast.unparse(base) for base in node.bases
            ):
                found.append(f"{path.name}:{node.lineno}: class {node.name} on NamedTuple")
        for node in _import_time_nodes(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "re.compile":
                found.append(f"{path.name}:{node.lineno}: re.compile at import")
    assert not found, "\n".join(found)


def _record_types():
    # imported here, as the other tests import adelic: the scans above run even
    # when importing the package fails
    from adelic import cli, dynamics, gauss, quadrature, rational, special, verifier

    # (type, fields, defaults): field order and defaults as the library declares them
    return (
        (rational.DigitExpansion, ("valuation", "digits", "prime"), {}),
        (dynamics.FixedPoint, ("point", "multiplier"), {}),
        (dynamics.FixedPointSolve, ("points", "irrational_discriminant"), {}),
        (dynamics.FixedPointReport, ("point", "multiplier", "per_place", "exceptional"), {}),
        (dynamics.DynamicsReport, ("reports", "irrational_discriminant"), {}),
        (dynamics.OrbitProbe, ("entries", "pole_escape"), {}),
        (gauss.WaveFunctionValue, ("real_factor", "padic_gate"), {}),
        (special.MellinComparison, ("numeric", "closed", "residual"), {}),
        (quadrature.QuadResult, ("value", "abserr", "last"), {}),
        (verifier.NumericEvaluation, ("factors", "residual"), {}),
        (
            verifier.VerificationReport,
            ("family", "args", "factors", "verdict", "residual", "diagnostic"),
            {"residual": None, "diagnostic": None},
        ),
        (verifier.SuiteReport, ("family", "trials", "height_bound", "seed", "verdicts", "failures"), {}),
        (cli.Kind, ("parse", "payload", "shows_token", "options"), {"payload": str, "shows_token": False, "options": {}}),
        (
            cli.Command,
            ("name", "help", "args", "handler", "evaluate", "head"),
            {"handler": cli._cmd_local, "evaluate": None, "head": ""},
        ),
    )


def test_record_types_are_plain_tuples_with_their_fields():
    for cls, fields, defaults in _record_types():
        name = cls.__name__
        assert (cls._fields, cls._field_defaults) == (fields, defaults), name
        # a docstring of its own, which says what the field names alone do not
        assert cls.__doc__ and cls.__doc__ != f"{name}({', '.join(fields)})", name
        values = tuple(range(len(fields)))
        record = cls(*values)
        assert record == values and tuple(record) == values, name
        assert record._asdict() == dict(zip(fields, values)), name
        assert cls(**dict(zip(fields, values))) == record, name
        assert repr(record) == f"{name}({', '.join(f'{f}={v}' for f, v in zip(fields, values))})"
        assert not hasattr(record, "__dict__"), name
        required = values[: len(fields) - len(defaults)]
        assert cls(*required) == required + tuple(defaults.values()), name
