"""Determinant-one linear fractional maps over the rationals.

Fixed points, multipliers, per-place attractive/indifferent/repelling
classification, and exact orbit probes.  The multiplier at a rational fixed
point is an exact rational, so the norm product pins down the finite set of
places where the point fails to be indifferent.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .local import Place, _Value, places_for
from .rational import DomainError, RationalLike, _as_fraction, _as_int, _valuation, random_rational
from .symbols import _sqrt_exact

ATTRACTIVE = "attractive"
INDIFFERENT = "indifferent"
REPELLING = "repelling"


class _AtInfinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


AT_INFINITY = _AtInfinity()

PointLike = Fraction | _AtInfinity


class MoebiusMap(_Value):
    """x -> (a x + b) / (c x + d) with exact rational entries and a d - b c = 1."""

    __slots__ = ("a", "b", "c", "d")
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike) -> None:
        for name, entry in zip(self.__slots__, (a, b, c, d)):
            object.__setattr__(self, name, _as_fraction(entry, name))
        if self.a * self.d - self.b * self.c != 1:
            raise DomainError("map must have determinant exactly 1")

    @property
    def is_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def apply(self, x: PointLike) -> PointLike:
        if x is AT_INFINITY:
            if self.c == 0:
                return AT_INFINITY
            return self.a / self.c
        x = _as_fraction(x, "x")
        denom = self.c * x + self.d
        if denom == 0:
            return AT_INFINITY
        return (self.a * x + self.b) / denom

    def __str__(self) -> str:
        return f"({self.a}x + {self.b})/({self.c}x + {self.d})"


class FixedPoint(namedtuple("FixedPoint", "point multiplier")):
    """A fixed point, a Fraction or AT_INFINITY, and its multiplier, a Fraction."""

    __slots__ = ()


class FixedPointSolve(namedtuple("FixedPointSolve", "points irrational_discriminant")):
    """A tuple of FixedPoint, and the Fraction discriminant of an irrational pair, else None."""

    __slots__ = ()


def fixed_points(f: MoebiusMap) -> FixedPointSolve:
    """Exactly solve f(x) = x; multipliers are the exact derivatives there.

    With c = 0 the point at infinity is fixed (multiplier d/a in the 1/x
    chart).  Otherwise the quadratic has rational roots precisely when
    (a+d)**2 - 4 is a rational square; an irrational pair is reported through
    its discriminant.
    """
    if f.is_identity:
        raise DomainError("every point is fixed under the identity map")
    if f.c == 0:
        pts = [FixedPoint(AT_INFINITY, f.d / f.a)]
        if f.a != f.d:
            x = f.b / (f.d - f.a)
            pts.append(FixedPoint(x, f.a / f.d))
        return FixedPointSolve(tuple(pts), None)
    disc = (f.a + f.d) ** 2 - 4
    s = _sqrt_exact(disc)
    if s is None:
        return FixedPointSolve((), disc)
    roots = [(f.a - f.d + s) / (2 * f.c)]
    if s != 0:
        roots.append((f.a - f.d - s) / (2 * f.c))
    pts = []
    for x in roots:
        lam = f.c * x + f.d
        assert lam != 0
        pts.append(FixedPoint(x, 1 / lam**2))
    return FixedPointSolve(tuple(pts), None)


class FixedPointReport(namedtuple("FixedPointReport", "point multiplier per_place exceptional")):
    """A FixedPoint's fields, (Place, label) pairs, and the Places not labelled indifferent."""

    __slots__ = ()


class DynamicsReport(namedtuple("DynamicsReport", "reports irrational_discriminant")):
    """A tuple of FixedPointReport, and the Fraction discriminant of an irrational pair, else None."""

    __slots__ = ()


def _classify_at(m: Fraction, place: Place) -> str:
    # |m| at the place against 1; at a prime p, |m|_p < 1 exactly when v_p(m) > 0
    if place.is_infinite:
        size = abs(m)
        return ATTRACTIVE if size < 1 else REPELLING if size > 1 else INDIFFERENT
    v = _valuation(m, place.prime)
    return ATTRACTIVE if v > 0 else REPELLING if v < 0 else INDIFFERENT


def classify(f: MoebiusMap) -> DynamicsReport:
    """Per-place behaviour of every rational fixed point.

    Places off the archimedean one and the support of the multiplier are
    indifferent automatically, so the exceptional set is finite; with no
    rational fixed point the report is empty and carries the discriminant.

    The multipliers of two fixed points are reciprocal: at the fixed points
    of a determinant-one map (c x1 + d)(c x2 + d) = a d - b c = 1, and the
    multiplier at x is (c x + d)**-2; with c = 0 they are d/a and a/d.  So
    the first multiplier is factored and its places serve the second too.
    """
    solve = fixed_points(f)
    reports = []
    places = None
    for fp in solve.points:
        m = fp.multiplier
        if places is None:
            places = places_for(m)
        table = tuple((v, _classify_at(m, v)) for v in places)
        exceptional = tuple(v for v, label in table if label != INDIFFERENT)
        reports.append(FixedPointReport(fp.point, m, table, exceptional))
    return DynamicsReport(tuple(reports), solve.irrational_discriminant)


class OrbitProbe(namedtuple("OrbitProbe", "entries pole_escape")):
    """Distances to a fixed point along an exact orbit.

    At a finite place the entries (a tuple) are valuations of x_k - x*; at
    the archimedean place, exact absolute distances.  A pole escape ends the
    orbit early and is reported, not raised.
    """

    __slots__ = ()


# Cost guards of orbit_probe.  On an orbit whose height grows, the valuation of
# each distance costs about its size squared, so the steps cost about their
# count cubed; an orbit that reaches the bit cap has taken about half a second.
_MAX_ORBIT_STEPS = 10_000
_MAX_ORBIT_BITS = 4096


def orbit_probe(
    f: MoebiusMap,
    x0: RationalLike,
    place: Place,
    steps: int,
    fixed_point: RationalLike,
) -> OrbitProbe:
    """Iterate f exactly from x0, recording the local distance to the fixed point.

    steps must lie in [0, _MAX_ORBIT_STEPS], and an orbit point whose
    numerator and denominator have more than _MAX_ORBIT_BITS bits together
    raises DomainError (cost guards).
    """
    if not 0 <= _as_int(steps, "orbit steps") <= _MAX_ORBIT_STEPS:
        raise DomainError(f"orbit steps must lie in [0, {_MAX_ORBIT_STEPS}], got {steps}")
    x_star = _as_fraction(fixed_point, "fixed_point")
    if f.apply(x_star) != x_star:
        raise DomainError(f"{x_star} is not fixed by {f}")
    x: PointLike = _as_fraction(x0, "x0")
    # f is a bijection of P^1(Q) fixing x*, so x_k = x* forces x_(k-1) = x* and,
    # by induction, x0 = x*: refused here, so every distance below is nonzero
    if x == x_star:
        raise DomainError("orbit probe requires a start away from the fixed point")
    entries: list[object] = []
    for _ in range(steps):
        x = f.apply(x)
        if x is AT_INFINITY:
            return OrbitProbe(tuple(entries), True)
        if x.numerator.bit_length() + x.denominator.bit_length() > _MAX_ORBIT_BITS:
            raise DomainError(f"orbit point {len(entries) + 1} exceeds {_MAX_ORBIT_BITS} bits (cost guard)")
        delta = x - x_star
        entries.append(abs(delta) if place.is_infinite else int(_valuation(delta, place.prime)))
    return OrbitProbe(tuple(entries), False)


_PARABOLIC_SHARE = 0.15


def random_map_with_rational_fixed_points(rng: random.Random, height: int) -> MoebiusMap:
    """Random determinant-one map guaranteed to have rational fixed points.

    Conjugates a diagonal (or unipotent, with probability _PARABOLIC_SHARE) model by
    a random invertible rational matrix; multipliers come out as exact squares
    lam**2 and lam**(-2), so the fixed points stay rational.  A height bound
    below 2 raises DomainError: at height 1 every lam would be +-1.
    """
    if _as_int(height, "height bound") < 2:
        raise DomainError(f"height bound must be at least 2 for a random map, got {height}")
    while True:
        g_a, g_b, g_c, g_d = (random_rational(rng, height) for _ in range(4))
        det = g_a * g_d - g_b * g_c
        if det != 0:
            break
    if rng.random() < _PARABOLIC_SHARE:
        m_b = random_rational(rng, height, nonzero=True)
        m_a, m_c, m_d = Fraction(1), Fraction(0), Fraction(1)
    else:
        lam = random_rational(rng, height, nonzero=True)
        while abs(lam) == 1:
            lam = random_rational(rng, height, nonzero=True)
        m_a, m_b, m_c, m_d = lam, Fraction(0), Fraction(0), 1 / lam
    # G M G^-1, with the 1/det of the inverse cancelling in the Moebius action
    a = g_a * m_a + g_b * m_c
    b = g_a * m_b + g_b * m_d
    c = g_c * m_a + g_d * m_c
    d = g_c * m_b + g_d * m_d
    return MoebiusMap(
        (a * g_d - b * g_c) / det,
        (-a * g_b + b * g_a) / det,
        (c * g_d - d * g_c) / det,
        (-c * g_b + d * g_a) / det,
    )
