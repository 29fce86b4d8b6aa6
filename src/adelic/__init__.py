"""Exact arithmetic over the places of the rationals and machine verification
of adelic product identities: norms, characters, quadratic symbols, Weil
indices, Gauss integrals, propagator kernels, local gamma/beta/zeta factors,
and the arithmetic of determinant-one linear fractional maps.
"""

from types import ModuleType as _ModuleType

from .rational import (
    DigitExpansion,
    DomainError,
    INFINITE,
    digit_expansion,
    factorize,
    is_prime,
    parse_rational,
    support,
    valuation,
)
from .local import (
    INFINITY_PLACE,
    Place,
    RootOfUnity,
    additive_character,
    frac_part,
    local_abs,
    parse_place,
    places_for,
)
from .symbols import (
    EighthRoot,
    ExactFactor,
    hilbert_symbol,
    legendre_symbol,
    weil_index,
)
from .gauss import (
    WaveFunctionValue,
    gauss_factor,
    ground_state,
    kernel,
    kernel_phase_argument,
)
from .special import (
    PoleError,
    ZetaEvaluator,
    beta_local,
    complex_gamma,
    gamma_local,
    mellin_vacuum,
    riemann_zeta,
    zeta_adelic,
    zeta_local,
)
from .dynamics import (
    AT_INFINITY,
    MoebiusMap,
    classify,
    fixed_points,
    orbit_probe,
    random_map_with_rational_fixed_points,
)
from .verifier import (
    ProductFamily,
    Registry,
    SuiteReport,
    VerificationReport,
    default_registry,
)

# the names imported above, without the submodules those imports bind
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
