"""Equi-affine geometry operations on analytic reference curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_elastica import curvature as cv
from affine_elastica import synthesis as sy
from affine_elastica.classifier import Branch, classify
from affine_elastica.elliptic import invariants_from_qQ
from affine_elastica.errors import (
    InflectionPoint,
    NegativeCurvature,
    NotCritical,
    ZeroC,
)
from conftest import (
    convex_support_curve,
    hypotrochoid_points,
    random_unimodular,
    scaled_curve,
)


@pytest.fixture(scope="module")
def circle():
    return cv.ellipse_samples(1.0, 1.0, 4096)


@pytest.fixture(scope="module")
def ellipse_2_half():
    return cv.ellipse_samples(2.0, 0.5, 4096)


@pytest.fixture(scope="module")
def a1_curve():
    label = classify(invariants_from_qQ(1.0, 3.940854279), Branch.closed_branch)
    return sy.synthesize(label)


class TestReparametrize:
    def test_circle(self):
        t = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        c = cv.reparametrize_equiaffine(np.column_stack([np.cos(t), np.sin(t)]), closed=True)
        assert c.period == pytest.approx(2 * np.pi, abs=1e-8)
        assert np.max(np.abs(cv.frame_and_curvature(c).kappa - 1.0)) < 1e-6

    def test_parabola_flat(self):
        t = np.linspace(-1, 1, 3000)
        c = cv.reparametrize_equiaffine(np.column_stack([t, t**2 / 2]), t=t)
        assert np.max(np.abs(cv.frame_and_curvature(c).kappa[c.interior()])) < 1e-4
        assert cv.unimodularity_defect(c) < 1e-6

    def test_ellipse_scaling_law(self):
        # semi-axes (a, b): kappa = (ab)^(-2/3), length = 2 pi (ab)^(1/3)
        a, b = 2.0, 0.5
        t = np.linspace(0, 2 * np.pi, 6000, endpoint=False)
        c = cv.reparametrize_equiaffine(
            np.column_stack([a * np.cos(t), b * np.sin(t)]), closed=True
        )
        assert c.period == pytest.approx(2 * np.pi * (a * b) ** (1 / 3), abs=1e-8)
        kappa = cv.frame_and_curvature(c).kappa
        assert np.max(np.abs(kappa - (a * b) ** (-2 / 3))) < 1e-6

    def test_idempotence(self):
        t = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        c = cv.reparametrize_equiaffine(np.column_stack([np.cos(t), np.sin(t)]), closed=True)
        c2 = cv.reparametrize_equiaffine(c.points(), closed=True, n_samples=c.n)
        assert np.max(np.abs(c2.x - c.x)) < 1e-8
        assert np.max(np.abs(c2.y - c.y)) < 1e-8

    def test_inflection_rejected(self):
        t = np.linspace(-1, 1, 2001)
        # an inflection at the origin; a line and a repeated point have |dgamma, d2gamma| = 0
        for pts in (np.column_stack([t, t**3]), np.column_stack([t, 2 * t]), np.ones((len(t), 2))):
            with pytest.raises(InflectionPoint):
                cv.reparametrize_equiaffine(pts, t=t)

    def test_raw_points_accurate(self):
        # raw points are differentiated by the same filters as curve samples
        t = np.linspace(0, 2 * np.pi, 800, endpoint=False)
        c = cv.reparametrize_equiaffine(np.column_stack([2.0 * np.cos(t), 0.5 * np.sin(t)]), closed=True)
        assert cv.unimodularity_defect(c) < 1e-12
        t = np.linspace(-1, 1, 600)
        c = cv.reparametrize_equiaffine(np.column_stack([t, t**2 / 2]), t=t)
        assert np.max(np.abs(cv.frame_and_curvature(c).kappa[c.interior()])) < 1e-8

    @pytest.mark.parametrize("n,closed", [(2, False), (3, False), (4, False), (2, True), (3, True)])
    def test_too_few_points(self, n, closed):
        t = np.arange(n) * 2 * np.pi / (n if closed else 2 * n)
        with pytest.raises(ValueError, match="at least"):
            cv.reparametrize_equiaffine(np.column_stack([np.cos(t), np.sin(t)]), closed=closed)

    def test_orientation_normalized(self):
        t = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        pts = np.column_stack([np.cos(-t), np.sin(-t)])  # negatively oriented
        c = cv.reparametrize_equiaffine(pts, closed=True)
        assert cv.unimodularity_defect(c) < 1e-6


class TestFrameAndCurvature:
    def test_circle(self, circle):
        assert np.max(np.abs(cv.frame_and_curvature(circle).kappa - 1.0)) < 1e-6

    def test_case_g_power_law(self):
        from affine_elastica.classifier import Case, CaseLabel

        c = sy.synthesize(CaseLabel(Case.G, {}, 0.0, 0.0))
        kappa = cv.frame_and_curvature(c).kappa
        sel = c.interior()
        assert np.max(np.abs(kappa[sel] + 6.0 / c.s[sel] ** 2)) < 1e-6

    def test_synthesized_matches_elliptic_form(self, a1_curve):
        kappa = cv.frame_and_curvature(a1_curve).kappa
        label = classify(invariants_from_qQ(1.0, 3.940854279), Branch.closed_branch)
        kex = sy.analytic_kappa(label, a1_curve.s)
        sel = a1_curve.interior()
        assert np.max(np.abs(kappa[sel] - kex[sel])) < 1e-4

    def test_derivatives_computed_once_per_order(self, rfft_calls):
        c = cv.ellipse_samples(2.0, 0.5, 512)
        first = cv._derivs(c)
        assert len(rfft_calls) == 2
        more = cv._derivs(c, orders=(1, 2, 3, 4))  # only order 4 is new
        assert len(rfft_calls) == 4
        assert all(more[m] is first[m] for m in (1, 2, 3))
        cv.el_residual_area_constrained(c)
        cv.el_residual_area_and_length(c)
        assert len(rfft_calls) == 5  # kappa once, for both fits

    def test_frame_ode_residual(self, ellipse_2_half):
        # N' + kappa T = 0 along the curve
        from affine_elastica._numerics import diff_samples

        fr = cv.frame_and_curvature(ellipse_2_half)
        h = ellipse_2_half.h
        for col in (0, 1):
            Np = diff_samples(fr.N[:, col], h, 1, periodic=True)
            assert np.max(np.abs(Np + fr.kappa * fr.T[:, col])) < 1e-8


class TestSupportFunction:
    def test_circle(self, circle):
        sup = cv.support_function(circle)
        assert np.max(np.abs(sup.rho - 1.0)) < 1e-8
        assert np.max(np.abs(sup.phi)) < 1e-8

    def test_ellipse_scaled(self, ellipse_2_half):
        sup = cv.support_function(ellipse_2_half)
        assert np.max(np.abs(sup.rho - 1.0)) < 1e-8  # (ab)^(2/3) with ab = 1

    def test_ellipse_support_value_generic_axes(self):
        c = cv.ellipse_samples(1.5, 0.8, 4096)
        sup = cv.support_function(c)
        assert np.max(np.abs(sup.rho - (1.5 * 0.8) ** (2.0 / 3.0))) < 1e-8

    def test_support_ode_residual(self, ellipse_2_half):
        from affine_elastica._numerics import diff_samples

        c = cv.ellipse_samples(1.5, 0.8, 4096)
        sup = cv.support_function(c, origin=(0.1, -0.2))
        kappa = cv.frame_and_curvature(c).kappa
        rho2 = diff_samples(sup.rho, c.h, 2, periodic=True)
        assert np.max(np.abs(rho2 + kappa * sup.rho - 1.0)) < 1e-6

    def test_support_reconstructs_position(self):
        c = cv.ellipse_samples(1.5, 0.8, 4096)
        origin = np.array([0.1, -0.2])
        sup = cv.support_function(c, origin=origin)
        fr = cv.frame_and_curvature(c)
        recon = origin + sup.phi[:, None] * fr.T - sup.rho[:, None] * fr.N
        assert np.max(np.abs(recon - c.points())) < 1e-8

    def test_canonical_origin_makes_rho_proportional_to_kappa(self, a1_curve):
        origin = cv.translate_to_canonical(a1_curve)
        fit = cv.el_residual_area_constrained(a1_curve)
        sup = cv.support_function(a1_curve, origin=origin)
        kappa = cv.frame_and_curvature(a1_curve).kappa
        sel = a1_curve.interior()
        assert np.max(np.abs(sup.rho[sel] - kappa[sel] / fit.C)) < 1e-6


class TestTranslateToCanonical:
    def test_circle_center(self, circle):
        assert np.max(np.abs(cv.translate_to_canonical(circle))) < 1e-8

    def test_constant_field_collapses(self, a1_curve):
        from affine_elastica._numerics import diff_samples

        origin = cv.translate_to_canonical(a1_curve)
        fr = cv.frame_and_curvature(a1_curve)
        k1 = diff_samples(fr.kappa, a1_curve.h, 1, periodic=False,
                          window=a1_curve.meta.get("fd_window"))
        fit = cv.el_residual_area_constrained(a1_curve)
        M = fr.kappa[:, None] * fr.N - k1[:, None] * fr.T
        P = a1_curve.points() - origin
        sel = a1_curve.interior()
        spread = np.std(P[sel] + M[sel] / fit.C, axis=0)
        assert np.max(spread) < 1e-6

    def test_a3_curve(self):
        label = classify(invariants_from_qQ(-1.0, 6.0), Branch.closed_branch)
        c = sy.synthesize(label)
        origin = cv.translate_to_canonical(c)
        assert np.all(np.isfinite(origin))

    def test_not_critical_raises(self, rng):
        c = cv.reparametrize_equiaffine(convex_support_curve(rng), closed=True)
        with pytest.raises(NotCritical):
            cv.translate_to_canonical(c)

    @pytest.mark.parametrize("lam", [1e-3, 1e3])
    def test_closed_curve_scale_free(self, lam):
        curve = sy.synthesize_closed(sy.solve_closure(3, 4), samples_per_period=400)
        origin = cv.translate_to_canonical(curve)
        span = np.ptp(curve.points(), axis=0).max()
        got = cv.translate_to_canonical(scaled_curve(curve, lam))
        assert np.max(np.abs(got - lam**1.5 * origin)) < 1e-9 * lam**1.5 * span

    @pytest.mark.parametrize("lam", [1e-2, 1e2])
    def test_scaled_hypotrochoid_not_critical(self, lam):
        c = cv.reparametrize_equiaffine(hypotrochoid_points(n=2000), closed=True)
        with pytest.raises(NotCritical):
            cv.translate_to_canonical(scaled_curve(c, lam))

    def test_zero_c_raises(self):
        from affine_elastica.classifier import Case, CaseLabel

        # the g2 = 0 family is critical with vanishing constant
        c = sy.synthesize(CaseLabel(Case.F, {"g3": -1.0}, 0.0, -1.0))
        with pytest.raises(ZeroC):
            cv.translate_to_canonical(c)


class TestELResiduals:
    def test_general_kappa_on_circle_not_critical(self, circle):
        one = lambda k: np.ones_like(k)
        zero = lambda k: np.zeros_like(k)
        A, B, res = cv.el_residual_general(circle, lambda k: k, one, zero, zero)
        assert res > 1.0  # constants are orthogonal to x', y' on a closed curve

    def test_general_kappa_on_zero_g2_family(self):
        from affine_elastica.classifier import Case, CaseLabel

        c = sy.synthesize(CaseLabel(Case.F, {"g3": -1.0}, 0.0, -1.0))
        one = lambda k: np.ones_like(k)
        zero = lambda k: np.zeros_like(k)
        _, _, res = cv.el_residual_general(c, lambda k: k, one, zero, zero)
        assert res < 1e-5

    def test_general_sqrt_on_ellipse(self, ellipse_2_half):
        A, B, res = cv.el_residual_general(
            ellipse_2_half,
            np.sqrt,
            lambda k: 0.5 * k**-0.5,
            lambda k: -0.25 * k**-1.5,
            lambda k: 0.375 * k**-2.5,
        )
        assert res < 1e-6
        assert abs(A) < 1e-8 and abs(B) < 1e-8

    def test_general_numeric_derivatives_fallback(self, ellipse_2_half):
        _, _, res = cv.el_residual_general(ellipse_2_half, np.sqrt)
        assert res < 1e-5

    def test_area_constrained_circle(self, circle):
        fit = cv.el_residual_area_constrained(circle)
        assert fit.residual < 1e-8
        assert fit.C == pytest.approx(1.0, abs=1e-10)

    def test_area_constrained_degenerate_family(self):
        from affine_elastica.classifier import Case, CaseLabel

        E = -0.5
        c = sy.synthesize(CaseLabel(Case.Da, {"E": E}, 3 * E * E, E**3))
        fit = cv.el_residual_area_constrained(c)
        assert fit.residual < 1e-5
        assert fit.C == pytest.approx(9.0 * E * E, abs=1e-6)  # C = 3 g2, g2 = 3 E^2

    def test_area_constrained_negative_control(self, rng):
        c = cv.reparametrize_equiaffine(convex_support_curve(rng), closed=True)
        assert cv.el_residual_area_constrained(c).residual > 0.05

    def test_area_and_length_circle_underdetermined(self, circle):
        fit = cv.el_residual_area_and_length(circle)
        assert fit.residual < 1e-8
        assert fit.underdetermined
        assert fit.C + fit.A == pytest.approx(1.0, abs=1e-8)
        # minimal-norm solution of C + A = 1
        assert fit.C == pytest.approx(0.5, abs=1e-6)

    def test_area_and_length_constrained_family(self):
        c = sy.synthesize_length_constrained(1.0, -0.15, c0="0")
        fit = cv.el_residual_area_and_length(c)
        assert fit.residual < 1e-4
        assert fit.A == pytest.approx(1.0, abs=1e-5)
        assert abs(fit.C) < 1e-5

    def test_area_and_length_negative_control(self, rng):
        c = cv.reparametrize_equiaffine(convex_support_curve(rng), closed=True)
        assert cv.el_residual_area_and_length(c).residual > 0.05

    def test_hypotrochoid_negative_control(self):
        c = cv.reparametrize_equiaffine(hypotrochoid_points(), closed=True)
        assert cv.el_residual_area_constrained(c).residual > 0.1
        assert cv.el_residual_area_and_length(c).residual > 0.1


class TestFunctionals:
    def test_circle(self, circle):
        f = cv.functionals(circle)
        assert f.length == pytest.approx(2 * np.pi, abs=1e-9)
        assert f.total_curvature == pytest.approx(2 * np.pi, abs=1e-8)
        assert f.area == pytest.approx(np.pi, abs=1e-5)
        assert f.full_affine_length == pytest.approx(2 * np.pi, abs=1e-8)

    def test_ellipse_isoperimetric_equality(self, ellipse_2_half):
        f = cv.functionals(ellipse_2_half)
        assert f.total_curvature * f.length == pytest.approx(4 * np.pi**2, abs=1e-6)

    def test_closed_oscillating_curve_strict_inequality(self):
        # the closed curve is 2m congruent arcs and winds n times, so the
        # simple-closed-curve product bound applies per curvature period
        sol = sy.solve_closure(3, 4)
        c = sy.synthesize_closed(sol)
        f = cv.functionals(c)
        arcs = 2 * sol.m
        per_period = (f.total_curvature / arcs) * (f.length / arcs)
        assert per_period < 4 * np.pi**2 - 1.0
        # while the full multi-winding product exceeds the simple-curve bound
        assert f.total_curvature * f.length > 4 * np.pi**2

    def test_negative_curvature_raises(self):
        from conftest import hyperbola_samples

        with pytest.raises(NegativeCurvature):
            cv.functionals(hyperbola_samples(), full_affine=True)
        f = cv.functionals(hyperbola_samples(), full_affine=False)
        assert f.full_affine_length is None


class TestInvariance:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_unimodular_invariance(self, seed):
        rng = np.random.default_rng(seed)
        base = cv.ellipse_samples(1.7, 0.9, 2048)
        M = random_unimodular(rng)
        moved = base.transformed(M, rng.uniform(-1, 1, 2))
        k0 = cv.frame_and_curvature(base).kappa
        k1 = cv.frame_and_curvature(moved).kappa
        assert np.max(np.abs(k0 - k1)) < 1e-8
        f0, f1 = cv.functionals(base), cv.functionals(moved)
        assert f1.length == pytest.approx(f0.length, abs=1e-10)
        assert f1.total_curvature == pytest.approx(f0.total_curvature, abs=1e-8)
        assert f1.area == pytest.approx(f0.area, abs=1e-8)
        assert f1.full_affine_length == pytest.approx(f0.full_affine_length, abs=1e-8)

    def test_unimodular_invariance_of_residuals(self, rng, a1_curve):
        M = random_unimodular(rng)
        moved = a1_curve.transformed(M, (0.3, -0.7))
        f0 = cv.el_residual_area_constrained(a1_curve)
        f1 = cv.el_residual_area_constrained(moved)
        assert f1.C == pytest.approx(f0.C, abs=1e-8)
        assert f1.residual == pytest.approx(f0.residual, abs=1e-8)


class TestFourVertex:
    def test_convex_battery_has_at_least_four_sextactic_points(self, rng):
        for _ in range(5):
            c = cv.reparametrize_equiaffine(convex_support_curve(rng), closed=True)
            assert cv.sextactic_sign_changes(c) >= 4


class TestSerialization:
    def test_csv_roundtrip_bit_exact(self, circle):
        text = cv.curve_to_csv(circle)
        c2 = cv.curve_from_csv(text, closed=True)
        assert np.array_equal(c2.s, circle.s)
        assert np.array_equal(c2.x, circle.x)
        assert np.array_equal(c2.y, circle.y)

    @pytest.fixture
    def extreme(self):
        s = -3.0 + 0.1 * np.arange(8)
        x = np.array([-1.5, -0.0, 1e-300, 1e300, -1e300, 0.1, 1.0 / 3.0, -2.5e-17])
        y = np.array([0.0, -0.0, -1e-300, 7.0, 1e-5, -1e300, 2.0**-1074, 123456789.0])
        return cv.CurveSamples(s, x, y)

    def test_csv_text_matches_csv_writer(self, extreme):
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["s", "x", "y"])
        for row in zip(extreme.s, extreme.x, extreme.y):
            w.writerow([f"{v:.17g}" for v in row])
        assert cv.curve_to_csv(extreme) == buf.getvalue()

    def test_csv_roundtrip_extreme_values(self, extreme):
        c2 = cv.curve_from_csv(cv.curve_to_csv(extreme))
        for k in "sxy":
            assert np.array_equal(getattr(c2, k), getattr(extreme, k))
        assert np.signbit(c2.x[1]) and np.signbit(c2.y[1])

    @pytest.mark.parametrize("text", ["s,x,y\n", "s,x,y\n\n  \n"])
    def test_csv_without_rows_raises_without_warning(self, text):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="3 columns"):
                cv.curve_from_csv(text)

    def test_json_roundtrip(self, circle, tmp_path):
        path = tmp_path / "c.json"
        cv.curve_to_json(circle, path)
        c2 = cv.curve_from_json(path)
        assert np.array_equal(c2.x, circle.x)
        assert c2.closed and c2.period == circle.period

    def test_csv_file_roundtrip(self, circle, tmp_path):
        path = tmp_path / "c.csv"
        cv.curve_to_csv(circle, path)
        c2 = cv.curve_from_csv(str(path), closed=True)
        assert np.array_equal(c2.x, circle.x)

    def test_validation(self):
        with pytest.raises(ValueError):
            cv.CurveSamples(np.arange(5.0), np.arange(5.0), np.arange(5.0))
        with pytest.raises(ValueError):
            cv.CurveSamples(np.array([0, 1, 2, 3.5, 4, 5, 6, 7.0]), np.zeros(8), np.zeros(8))
