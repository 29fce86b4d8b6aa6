import random
from fractions import Fraction

import pytest

from adelic import rational
from adelic.dynamics import (
    AT_INFINITY,
    ATTRACTIVE,
    INDIFFERENT,
    REPELLING,
    DynamicsReport,
    FixedPointReport,
    MoebiusMap,
    classify,
    fixed_points,
    orbit_probe,
    random_map_with_rational_fixed_points,
)
from adelic.local import INFINITY_PLACE, Place, local_abs
from adelic.rational import DomainError, random_rational, support, valuation

P2, P3, P5 = (Place(p) for p in (2, 3, 5))

WORKED = MoebiusMap(2, 0, 1, Fraction(1, 2))  # 2x/(x + 1/2)
PARABOLIC = MoebiusMap(1, 0, 1, 1)  # x/(x + 1)


def random_map(rng: random.Random, height: int) -> MoebiusMap:
    """Random determinant-one map: sample a, b, c and solve for d."""
    a = random_rational(rng, height, nonzero=True)
    b = random_rational(rng, height)
    c = random_rational(rng, height)
    return MoebiusMap(a, b, c, (1 + b * c) / a)


def label_at(report: FixedPointReport, place: Place) -> str:
    """The report's label at a place; a place off its table is indifferent."""
    return dict(report.per_place).get(place, INDIFFERENT)


def compose(f: MoebiusMap, g: MoebiusMap) -> MoebiusMap:
    """The matrix product: f applied after g."""
    return MoebiusMap(
        f.a * g.a + f.b * g.c, f.a * g.b + f.b * g.d, f.c * g.a + f.d * g.c, f.c * g.b + f.d * g.d
    )


def inverse(f: MoebiusMap) -> MoebiusMap:
    return MoebiusMap(f.d, -f.b, -f.c, f.a)


class TestMoebiusMap:
    def test_determinant_enforced(self):
        with pytest.raises(DomainError):
            MoebiusMap(1, 1, 1, 1)

    def test_apply_and_pole(self):
        assert WORKED.apply(2) == Fraction(8, 5)
        assert WORKED.apply(Fraction(-1, 2)) is AT_INFINITY
        assert WORKED.apply(AT_INFINITY) == 2

    def test_infinity_is_fixed_when_c_is_zero(self):
        assert MoebiusMap(1, 1, 0, 1).apply(AT_INFINITY) is AT_INFINITY

    def test_compose_inverse(self):
        rng = random.Random(1)
        for _ in range(30):
            f = random_map(rng, 9)
            g = compose(f, inverse(f))
            assert g.is_identity


class TestFixedPoints:
    def test_parabolic(self):
        solve = fixed_points(PARABOLIC)
        assert len(solve.points) == 1
        assert solve.points[0].point == 0
        assert solve.points[0].multiplier == 1

    def test_worked_map(self):
        solve = fixed_points(WORKED)
        table = {fp.point: fp.multiplier for fp in solve.points}
        assert table == {Fraction(0): Fraction(4), Fraction(3, 2): Fraction(1, 4)}

    def test_irrational(self):
        solve = fixed_points(MoebiusMap(2, 1, 1, 1))
        assert solve.points == ()
        assert solve.irrational_discriminant == 5

    def test_identity_rejected(self):
        with pytest.raises(DomainError):
            fixed_points(MoebiusMap(1, 0, 0, 1))
        with pytest.raises(DomainError):
            fixed_points(MoebiusMap(-1, 0, 0, -1))

    def test_translation_fixes_infinity_only(self):
        solve = fixed_points(MoebiusMap(1, 5, 0, 1))
        assert len(solve.points) == 1
        assert solve.points[0].point is AT_INFINITY
        assert solve.points[0].multiplier == 1

    def test_affine_map_infinity_and_finite(self):
        f = MoebiusMap(2, 1, 0, Fraction(1, 2))
        solve = fixed_points(f)
        table = {
            ("inf" if fp.point is AT_INFINITY else fp.point): fp.multiplier
            for fp in solve.points
        }
        assert table["inf"] == Fraction(1, 4)
        assert table[Fraction(-2, 3)] == Fraction(4)

    def test_multipliers_multiply_to_one(self):
        # classify reuses the first multiplier's places for the second
        rng = random.Random(2)
        for height in (8, 10, 10**3, 10**6):
            seen = 0
            while seen < 100:
                f = random_map_with_rational_fixed_points(rng, height)
                pts = fixed_points(f).points
                if len(pts) != 2:
                    continue
                assert pts[0].multiplier * pts[1].multiplier == 1
                seen += 1
            for _ in range(50):
                f = _affine_map(rng, height)
                pts = fixed_points(f).points
                assert len(pts) == 2
                assert pts[0].multiplier * pts[1].multiplier == 1


class TestRandomMap:
    def test_height_one_refused_before_any_draw(self):
        # at height 1 every nonzero draw is +-1, and the multiplier loop would
        # redraw forever; random.Random(0) hung there before the refusal
        for seed in range(20):
            rng = random.Random(seed)
            state = rng.getstate()
            with pytest.raises(DomainError, match="^height bound must be at least 2 for a random map, got 1$"):
                random_map_with_rational_fixed_points(rng, 1)
            assert rng.getstate() == state

    @pytest.mark.parametrize("height", [0, -5, True, 2.5])
    def test_bad_height_refused(self, height):
        with pytest.raises(DomainError, match="^height bound must be "):
            random_map_with_rational_fixed_points(random.Random(0), height)

    def test_height_two_gives_rational_fixed_points(self):
        rng = random.Random(0)
        for _ in range(200):
            report = classify(random_map_with_rational_fixed_points(rng, 2))
            assert report.reports and report.irrational_discriminant is None


def _affine_map(rng, height):
    # a determinant-one map with c = 0 and a != d: fixes infinity and one finite point
    b = random_rational(rng, height)
    while True:
        a = random_rational(rng, height, nonzero=True)
        if a * a != 1:
            return MoebiusMap(a, b, 0, 1 / a)


def _classify_factoring_each(f):
    # classify as it read before sharing places: factor every multiplier
    solve = fixed_points(f)
    reports = []
    for fp in solve.points:
        m = fp.multiplier
        places = [INFINITY_PLACE] + [Place(p) for p in (support(m) if m != 1 else ())]
        table = []
        for v in places:
            norm = local_abs(m, v)
            label = ATTRACTIVE if norm < 1 else REPELLING if norm > 1 else INDIFFERENT
            table.append((v, label))
        exceptional = tuple(v for v, label in table if label != INDIFFERENT)
        reports.append(FixedPointReport(fp.point, m, tuple(table), exceptional))
    return DynamicsReport(tuple(reports), solve.irrational_discriminant)


class TestClassify:
    def test_equals_factoring_each_multiplier(self):
        rng = random.Random(5)
        kinds = {"parabolic": 0, "c = 0": 0, "two points": 0}
        for height in (10, 10**3, 10**6, 10**12):
            maps = [random_map_with_rational_fixed_points(rng, height) for _ in range(300)]
            maps += [_affine_map(rng, height) for _ in range(40)]
            for f in maps:
                report = classify(f)
                assert report == _classify_factoring_each(f)
                multipliers = [r.multiplier for r in report.reports]
                if multipliers == [1]:
                    kinds["parabolic"] += 1
                elif len(multipliers) == 2:
                    kinds["c = 0" if f.c == 0 else "two points"] += 1
        assert sum(kinds.values()) == 4 * 340
        assert kinds["parabolic"] >= 50 and kinds["c = 0"] >= 120
    def test_worked_map_repelling_origin(self):
        report = classify(WORKED)
        by_point = {r.point: r for r in report.reports}
        origin = by_point[Fraction(0)]
        assert label_at(origin, INFINITY_PLACE) == REPELLING
        assert label_at(origin, P2) == ATTRACTIVE
        assert label_at(origin, P3) == INDIFFERENT
        assert set(origin.exceptional) == {INFINITY_PLACE, P2}

    def test_worked_map_attractive_three_halves(self):
        report = classify(WORKED)
        by_point = {r.point: r for r in report.reports}
        other = by_point[Fraction(3, 2)]
        assert label_at(other, INFINITY_PLACE) == ATTRACTIVE
        assert label_at(other, P2) == REPELLING
        assert set(other.exceptional) == {INFINITY_PLACE, P2}

    def test_parabolic_indifferent_everywhere(self):
        report = classify(PARABOLIC)
        assert len(report.reports) == 1
        assert report.reports[0].exceptional == ()

    def test_irrational_note(self):
        report = classify(MoebiusMap(2, 1, 1, 1))
        assert report.reports == ()
        assert report.irrational_discriminant == 5

    def test_square_multiplier_needs_no_rho(self, monkeypatch):
        # the multipliers q**2 and q**-2 are perfect squares: factorize takes
        # the square root instead of walking rho ~sqrt(q) steps
        splits = []

        def counting(n):
            splits.append(n)
            return rho_split(n)

        rho_split = rational._rho_split
        monkeypatch.setattr(rational, "_rho_split", counting)
        q = 2**31 - 1
        report = classify(MoebiusMap(q, 0, 0, Fraction(1, q)))
        assert [r.multiplier for r in report.reports] == [Fraction(1, q**2), Fraction(q**2)]
        assert report.reports[0].exceptional == (INFINITY_PLACE, Place(q))
        assert splits == []

    def test_exceptional_set_inside_multiplier_support(self):
        rng = random.Random(3)
        for _ in range(200):
            f = random_map_with_rational_fixed_points(rng, 10)
            for r in classify(f).reports:
                allowed = {INFINITY_PLACE} | {Place(p) for p in support(r.multiplier)}
                assert set(r.exceptional) <= allowed

    def test_never_attractive_everywhere(self):
        # norm product: |m| at infinity times all |m|_p is 1, so an attractive
        # place forces a repelling one
        rng = random.Random(4)
        for _ in range(200):
            f = random_map_with_rational_fixed_points(rng, 10)
            for r in classify(f).reports:
                labels = {label for _, label in r.per_place}
                if ATTRACTIVE in labels:
                    assert REPELLING in labels
                product = local_abs(r.multiplier, INFINITY_PLACE)
                for p in support(r.multiplier):
                    product *= local_abs(r.multiplier, Place(p))
                assert product == 1

    def test_conjugation_invariance(self):
        rng = random.Random(5)
        seen = 0
        while seen < 60:
            f = random_map_with_rational_fixed_points(rng, 8)
            g = random_map(rng, 8)
            pts_f = fixed_points(f).points
            conj = compose(compose(g, f), inverse(g))
            if conj.is_identity:
                continue
            for fp in pts_f:
                image = g.apply(fp.point)
                match = [q for q in fixed_points(conj).points if q.point == image]
                if not match:
                    continue  # image landed at infinity or the pole
                assert match[0].multiplier == fp.multiplier
                seen += 1


class TestOrbitProbe:
    def test_attractive_gains_two_per_step(self):
        probe = orbit_probe(WORKED, 2, P2, 5, 0)
        assert probe.entries == (3, 5, 7, 9, 11)
        assert not probe.pole_escape

    def test_archimedean_growth_rate(self):
        x0 = Fraction(1, 10**4)
        probe = orbit_probe(WORKED, x0, INFINITY_PLACE, 3, 0)
        ratios = [probe.entries[0] / x0]
        ratios += [probe.entries[k + 1] / probe.entries[k] for k in range(2)]
        for r in ratios:
            assert abs(float(r) - 4.0) < 0.05

    def test_parabolic_constant_valuation(self):
        probe = orbit_probe(PARABOLIC, 3, P3, 6, 0)
        assert probe.entries == (1, 1, 1, 1, 1, 1)

    def test_repelling_decreases(self):
        probe = orbit_probe(WORKED, Fraction(3, 2) + Fraction(2**5), P2, 2, Fraction(3, 2))
        assert probe.entries[0] < 5

    def test_requires_genuine_fixed_point(self):
        with pytest.raises(DomainError):
            orbit_probe(WORKED, 2, P2, 3, 1)

    @pytest.mark.parametrize("place", [P2, INFINITY_PLACE], ids=str)
    def test_start_at_the_fixed_point_refused(self, place):
        # f is a bijection fixing x*, so no other start ever reaches x*
        with pytest.raises(DomainError, match="start away from the fixed point"):
            orbit_probe(PARABOLIC, 0, place, 3, 0)

    @pytest.mark.parametrize("steps", [-2, 10_001, 10**5])
    def test_step_count_outside_the_cap_rejected(self, steps):
        with pytest.raises(DomainError, match="steps"):
            orbit_probe(WORKED, Fraction(1, 3), P2, steps, 0)

    def test_bit_cap(self):
        # x -> 4**50 x: each point has 100 bits more than the one before
        f = MoebiusMap(2**50, 0, 0, Fraction(1, 2**50))
        assert len(orbit_probe(f, Fraction(1, 3), P2, 40, 0).entries) == 40
        with pytest.raises(DomainError, match="cost guard"):
            orbit_probe(f, Fraction(1, 3), P2, 50, 0)

    def test_pole_escape_reported(self):
        # start at the second preimage of the pole -1/2, so the orbit hits it
        x0 = inverse(WORKED).apply(Fraction(-1, 2))
        assert WORKED.apply(WORKED.apply(x0)) is AT_INFINITY
        probe = orbit_probe(WORKED, x0, P2, 4, 0)
        assert probe.pole_escape
        assert len(probe.entries) < 4


def confirm_label_by_orbit(f: MoebiusMap, report, p: int) -> bool:
    """Empirically confirm the per-place label via two exact orbit steps.

    One step sends the distance delta to delta*m/(1 + (c/lam)*delta) exactly,
    so as soon as valuation(delta) exceeds valuation(lam) - valuation(c), each
    step shifts the valuation by exactly valuation(m).
    """
    if report.point is AT_INFINITY:
        return False
    place = Place(p)
    m = report.multiplier
    step = int(valuation(m, p))
    lam = f.c * Fraction(report.point) + f.d
    threshold = 0
    if f.c != 0:
        threshold = int(valuation(lam, p)) - int(valuation(f.c, p))
    v0 = max(1, threshold + 1) + 2 * abs(step) + 2
    start = Fraction(report.point) + Fraction(p) ** v0
    probe = orbit_probe(f, start, place, 2, report.point)
    if probe.pole_escape or len(probe.entries) < 2:
        return False
    expected = (v0 + step, v0 + 2 * step)
    assert probe.entries == expected, (f, report.point, probe.entries, expected)
    label = label_at(report, place)
    if step > 0:
        assert label == ATTRACTIVE
    elif step < 0:
        assert label == REPELLING
    else:
        assert label == INDIFFERENT
    return True


class TestOrbitMatchesClassification:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_labels_confirmed_empirically(self, p):
        rng = random.Random(60 + p)
        confirmed = 0
        while confirmed < 25:
            f = random_map_with_rational_fixed_points(rng, 6)
            for r in classify(f).reports:
                if confirm_label_by_orbit(f, r, p):
                    confirmed += 1
