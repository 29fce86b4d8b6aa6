"""The public names of the package, pinned: an added or removed name shows here."""

from types import ModuleType

import adelic

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
    assert sorted(adelic.__all__) == PUBLIC_NAMES


def test_no_submodule_is_a_public_name():
    # the submodules stay importable as adelic.<name>, outside __all__
    assert [name for name in adelic.__all__ if isinstance(getattr(adelic, name), ModuleType)] == []
