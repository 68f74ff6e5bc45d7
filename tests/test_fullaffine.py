"""Full-affine invariants, criticality residuals and SL(2) congruences."""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from affine_elastica import curvature as cv
from affine_elastica import fullaffine as fa
from affine_elastica import synthesis as sy
from affine_elastica.classifier import Branch, classify
from affine_elastica.elliptic import invariants_from_Ptau
from affine_elastica._numerics import cumulative_uniform, diff_samples
from affine_elastica.errors import NonConvex
from conftest import (
    convex_support_curve,
    ellipse_samples,
    hyperbola_samples,
    log_spiral_samples,
    random_invertible,
    tanh_kappa_F,
)
from oracles import (
    BlowUp,
    FullAffineData,
    congruence_arclength,
    curve_from_full_affine_curvature,
    el_residual_full_affine_form,
    el_residual_sqrt_differential,
    full_affine_invariants,
    functionals,
    integrate_samples,
    sl2_geodesic,
)


@pytest.fixture(scope="module")
def circle():
    return ellipse_samples(1.0, 1.0, 4096)


@pytest.fixture(scope="module")
def ellipse():
    return ellipse_samples(2.0, 0.5, 4096)


@pytest.fixture(scope="module")
def spiral():
    return log_spiral_samples(0.15, 0.0, 12.0, 4000)


@pytest.fixture(scope="module")
def example_curve():
    """Curve whose full-affine curvature is (3/sqrt2) tanh(sqrt2 s_F).

    The curve reaches its endpoints at finite s (curvature blows up there);
    the range stays inside the existence window.
    """
    return curve_from_full_affine_curvature(tanh_kappa_F, s_range=(-0.7, 0.7), n=6001)


class TestInvariants:
    def test_circle(self, circle):
        fd = full_affine_invariants(circle)
        assert np.max(np.abs(fd.s_F - circle.s)) < 1e-10
        assert np.max(np.abs(fd.kappa_F)) < 1e-10

    def test_spiral_constant(self, spiral):
        fd = full_affine_invariants(spiral)
        sel = spiral.interior()
        assert np.std(fd.kappa_F[sel]) < 1e-8
        # frozen regression value for b = 0.15
        assert np.mean(fd.kappa_F[sel]) == pytest.approx(-0.09987523, abs=1e-6)

    def test_ellipse_total_length(self, ellipse):
        f = functionals(ellipse)
        assert f.full_affine_length == pytest.approx(2 * np.pi, abs=1e-6)

    def test_nonconvex_raises(self):
        with pytest.raises(NonConvex):
            full_affine_invariants(hyperbola_samples())


class TestSqrtResidual:
    def test_ellipse_critical(self, ellipse):
        assert fa.el_residual_sqrt(ellipse) < 1e-5

    def test_spiral_critical(self, spiral):
        assert fa.el_residual_sqrt(spiral) < 1e-5

    def test_generic_curve_not_critical(self):
        from affine_elastica.elliptic import invariants_from_qQ

        # positive-curvature arc of a generic area-constrained critical curve:
        # kappa_F misses A x + B y + C by 0.41, the differential form reads 24.5
        label = classify(invariants_from_qQ(1.0, 3.940854279), Branch.closed_branch)
        c = sy.synthesize(label)
        assert fa.el_residual_sqrt(c) > 0.1
        assert el_residual_sqrt_differential(c) > 0.5


class TestFullAffineForm:
    """The oracle's form of the Euler-Lagrange equation in s_F, and its
    agreement with the package's integrated fit."""

    def test_analytic_example(self):
        sF = np.linspace(-3, 3, 4001)
        assert el_residual_full_affine_form(FullAffineData(sF, tanh_kappa_F(sF))) < 1e-6

    def test_constant_curvature(self):
        sF = np.linspace(-3, 3, 2001)
        res = el_residual_full_affine_form(FullAffineData(sF, np.full_like(sF, 0.7)))
        assert res < 1e-10

    def test_linear_negative_control(self):
        sF = np.linspace(-3, 3, 2001)
        res = el_residual_full_affine_form(FullAffineData(sF, sF.copy()))
        # pointwise residual is 2 sF^2 + 1, so the rms exceeds 1
        assert res > 1.0

    def test_nonuniform_grid_resampled(self):
        u = np.linspace(-1.2, 1.2, 3001)
        sF = u + 0.05 * np.sin(u)  # monotone, non-uniform
        assert el_residual_full_affine_form(FullAffineData(sF, tanh_kappa_F(sF))) < 1e-3

    def test_nonuniform_grid_as_accurate_as_uniform(self):
        u = np.linspace(-1.2, 1.2, 3001)
        sF = u + 0.05 * np.sin(u)
        uneven = el_residual_full_affine_form(FullAffineData(sF, tanh_kappa_F(sF)))
        sF = np.linspace(sF[0], sF[-1], len(sF))
        even = el_residual_full_affine_form(FullAffineData(sF, tanh_kappa_F(sF)))
        assert uneven < 1e-9 and uneven < 2.0 * even  # 4.1e-10 and 4.0e-10

    def test_consistency_with_arc_length_form(self, ellipse, spiral, example_curve, rng):
        # the integrated fit and the two differential forms, in s and in s_F,
        # vanish together on critical curves and all exceed 1e-2 on a generic one
        def forms(c):
            return (fa.el_residual_sqrt(c), el_residual_sqrt_differential(c),
                    el_residual_full_affine_form(full_affine_invariants(c)))

        assert max(forms(ellipse)) < 1e-5  # 1.0e-14, 1.7e-12, 1.7e-12
        assert max(forms(spiral)) < 1e-5  # 7.0e-11, 8.3e-7, 2.3e-6
        # the tanh curve's kappa reaches 11 at its ends, where the third
        # derivative of its sampled kappa_F is noise (the differential forms
        # read 32 and 0.07 there): its s_F form is taken on the exact profile
        sF = np.linspace(-3, 3, 4001)
        assert fa.el_residual_sqrt(example_curve) < 1e-5  # 2.6e-7
        assert el_residual_full_affine_form(FullAffineData(sF, tanh_kappa_F(sF))) < 1e-5
        c = cv.reparametrize_equiaffine(convex_support_curve(rng), closed=True)
        assert min(forms(c)) > 1e-2  # 3.5, 1.3e5, 2.6e6

    def test_closed_nonuniform_grid_resampled_over_its_period(self):
        # the s_F grid of a generic closed curve is non-uniform; resampled over
        # [s_F[0], s_F[-1]] as if it held the wrap node the rms read 6274.
        # Reference: the chain rule d/ds_F = kappa^(-1/2) d/ds on the uniform s
        # grid, the rms weighted by ds_F / ds = sqrt(kappa)
        c = cv.reparametrize_equiaffine(convex_support_curve(np.random.default_rng(0)), closed=True)
        fd = full_affine_invariants(c)
        root = np.sqrt(cv.frame_and_curvature(c).kappa)
        assert fd.period == pytest.approx(c.h * np.sum(root), rel=1e-12)
        k = fd.kappa_F
        d1 = diff_samples(k, c.h, 1, periodic=True) / root
        d2 = diff_samples(d1, c.h, 1, periodic=True) / root
        d3 = diff_samples(d2, c.h, 1, periodic=True) / root
        res = d3 + 3.0 * k * d2 + d1**2 + (2.0 * k**2 + 1.0) * d1
        reference = np.sqrt(np.sum(res**2 * root) / np.sum(root))  # 3270
        assert el_residual_full_affine_form(fd) == pytest.approx(reference, rel=1e-8)
        with pytest.raises(ValueError, match="period"):
            el_residual_full_affine_form(FullAffineData(fd.s_F, k, closed=True))


class TestReconstruction:
    def test_zero_curvature_gives_conic(self):
        c = curve_from_full_affine_curvature(lambda sF: 0.0 * sF, s_range=(-2, 2), n=3001)
        kappa = cv.frame_and_curvature(c).kappa
        sel = c.interior()
        assert np.ptp(kappa[sel]) < 1e-6  # constant curvature: an ellipse arc

    def test_example_roundtrip(self, example_curve):
        fd = full_affine_invariants(example_curve)
        # the gauge puts s = 0 mid-grid; anchor s_F there before comparing
        sF = fd.s_F - fd.s_F[example_curve.n // 2]
        kF_expect = (3.0 / np.sqrt(2.0)) * np.tanh(np.sqrt(2.0) * sF)
        sel = example_curve.interior()
        assert np.max(np.abs(fd.kappa_F[sel] - kF_expect[sel])) < 1e-4

    def test_constant_curvature_w_curve(self):
        c = curve_from_full_affine_curvature(lambda sF: 0.2 + 0.0 * sF,
                                                s_range=(-1.5, 1.5), n=3001)
        fd = full_affine_invariants(c)
        sel = c.interior()
        assert np.std(fd.kappa_F[sel]) < 1e-5
        assert np.mean(fd.kappa_F[sel]) == pytest.approx(0.2, abs=1e-6)

    def test_unimodularity_of_reconstruction(self, example_curve):
        assert cv.unimodularity_defect(example_curve) < 1e-6

    def test_blow_up_reported(self):
        with pytest.raises(BlowUp):
            curve_from_full_affine_curvature(
                lambda sF: 3.0 + 0.0 * sF, s_range=(-8.0, 8.0), n=2001, kappa_cap=1e4
            )


class TestConstrainedResiduals:
    def test_ellipse_all_zero(self, ellipse):
        r = fa.constrained_sqrt_residuals(ellipse)
        assert r.area_residual < 1e-5 and abs(r.area_Q) < 1e-6
        assert r.length_residual < 1e-5 and abs(r.length_Q) < 1e-6
        assert r.total_curv_residual < 1e-5 and abs(r.total_curv_Q) < 1e-6

    def test_example_curve_unconstrained_critical(self, example_curve):
        r = fa.constrained_sqrt_residuals(example_curve)
        assert r.area_residual < 1e-4
        assert abs(r.area_Q) < 1e-4

    def test_negative_control(self, rng):
        c = cv.reparametrize_equiaffine(convex_support_curve(rng), closed=True)
        r = fa.constrained_sqrt_residuals(c)
        assert r.area_residual > 1e-2


def _direct_lstsq(columns, target):
    """Reference: one np.linalg.lstsq over the stacked columns and the rms of its misfit."""
    M = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(M, target, rcond=None)
    return coef, float(np.sqrt(np.mean((M @ coef - target) ** 2)))


class TestFitsMatchDirectLstsq:
    """Both fits of this module equal a direct lstsq over their columns, bit for bit."""

    def test_constrained_residuals(self):
        c = ellipse_samples(2.0, 0.5, 800)
        kF = full_affine_invariants(c).kappa_F
        R_area = cumulative_uniform(cv.support_function(c).rho, c.h)
        R_tot = cumulative_uniform(cv.frame_and_curvature(c).kappa, c.h)
        want = []
        for R in (R_area, c.s - c.s[0], R_tot):
            coef, rms = _direct_lstsq([c.x, c.y, np.ones_like(c.x), R], kF)
            want += [float(coef[-1]), rms]
        got = fa.constrained_sqrt_residuals(c)
        assert list(vars(got).values()) == want

    def test_el_residual_sqrt(self, example_curve):
        sel = example_curve.interior()
        kF = full_affine_invariants(example_curve).kappa_F[sel]
        x, y = example_curve.x[sel], example_curve.y[sel]
        assert fa.el_residual_sqrt(example_curve) == _direct_lstsq([x, y, np.ones(len(x))], kF)[1]


class TestArcWithNonpositiveEnds:
    """A C1 arc cut to samples 773..3226 has kappa > 0 on its trusted
    interior but not at its ends.  The fits that read kappa_F on the interior
    take kappa^1.5 there only, without a warning, and return what kappa_F
    taken on every node gave."""

    @pytest.fixture(scope="class")
    def arc(self):
        c = sy.synthesize(classify(invariants_from_Ptau(1.0, 2.0), Branch.open_branch))
        return cv.CurveSamples(c.s[773:3227], c.x[773:3227], c.y[773:3227])

    def test_ends_are_not_convex(self, arc):
        kappa = cv.frame_and_curvature(arc).kappa
        assert kappa.min() <= 0.0 < kappa[arc.interior()].min()

    @pytest.mark.parametrize("fit", [fa.el_residual_sqrt, fa.constrained_sqrt_residuals])
    def test_fit_without_warning_as_before(self, arc, fit, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit(arc)

        def kappa_F_on_every_node(c, sel):
            kappa, k1, _ = cv._kappa_derivs(c)
            with np.errstate(invalid="ignore"):
                return kappa, k1 / (2.0 * kappa**1.5)

        monkeypatch.setattr(fa, "_convex_kappa_F", kappa_F_on_every_node)
        assert fit(arc) == got


class TestSL2:
    def test_rotation_direction_closes(self):
        g = sl2_geodesic("e3", 2 * np.pi)
        assert np.max(np.abs(g - np.eye(2))) < 1e-10

    def test_diagonal_direction(self):
        g = sl2_geodesic("e1", 0.83)
        assert g[0, 0] == pytest.approx(np.exp(0.83), rel=1e-14)
        assert g[1, 1] == pytest.approx(np.exp(-0.83), rel=1e-14)
        assert g[0, 1] == g[1, 0] == 0.0

    def test_unimodular_for_random_traceless(self, rng):
        for _ in range(100):
            v = rng.normal(size=(2, 2))
            v[1, 1] = -v[0, 0]
            t = rng.normal()
            assert np.linalg.det(sl2_geodesic(v, t)) == pytest.approx(1.0, abs=1e-10)

    def test_speed_constant_along_geodesic(self, rng):
        v = rng.normal(size=(2, 2))
        v[1, 1] = -v[0, 0]
        h = 1e-6
        for t in (0.0, 0.4, 1.1):
            dP = (sl2_geodesic(v, t + h) - sl2_geodesic(v, t - h)) / (2 * h)
            assert -np.linalg.det(dP) == pytest.approx(-np.linalg.det(v), abs=1e-6)

    def test_nilpotent_direction_is_linear(self):
        # det v = 0: exp(t v) = I + t v, with unit determinant and zero speed
        for v in ([[0.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [-1.0, -1.0]]):
            g = sl2_geodesic(np.array(v), 0.7)
            assert np.array_equal(g, np.eye(2) + 0.7 * np.array(v))
            assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-15)

    def test_traceful_rejected(self):
        with pytest.raises(ValueError):
            sl2_geodesic(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)

    def test_bi_invariance(self, rng):
        # left translation by a group element preserves the metric
        for _ in range(10):
            v = rng.normal(size=(2, 2))
            v[1, 1] = -v[0, 0]
            u = sl2_geodesic("e2", rng.normal())
            assert -np.linalg.det(u @ v) == pytest.approx(-np.linalg.det(v), abs=1e-8)


def _dist_to_parabola(point, L, tr):
    f = lambda t: np.sum((L @ np.array([t, t * t / 2.0]) + tr - point) ** 2)
    res = minimize_scalar(f, bracket=(-1.0, 0.0, 1.0))
    return np.sqrt(res.fun)


class TestOsculatingParabola:
    def test_parabola_is_its_own(self):
        # a parabola is its own osculating parabola: the congruence stays in
        # the stabilizer of the parabola point set, the unipotent shears
        # [[1, 0], [t, 1]], and its velocity is null (curvature zero)
        t = np.linspace(-1, 1, 3001)
        c = cv.CurveSamples(t, t, t**2 / 2.0, closed=False)
        for i in (800, 1500, 2200):
            L, tr = fa.osculating_parabola(c, i)
            assert np.allclose(tr, [c.x[i], c.y[i]])
            expect = np.array([[1.0, 0.0], [t[i], 1.0]])
            assert np.max(np.abs(L - expect)) < 1e-7

    def test_fourth_order_contact_on_circle(self, circle):
        # jet-matching oracle: distance from the curve to the parabola
        # scales like the fourth power of the arc offset
        i = 321
        L, tr = fa.osculating_parabola(circle, i)
        taus = np.array([0.2, 0.1, 0.05])
        dists = []
        for tau in taus:
            s_probe = circle.s[i] + tau
            p = np.array([np.cos(s_probe), np.sin(s_probe)])
            dists.append(_dist_to_parabola(p, L, tr))
        orders = np.log(np.array(dists[:-1]) / np.array(dists[1:])) / np.log(2.0)
        assert np.all(orders > 3.5)

    def test_unit_determinant_along_ellipse(self, ellipse):
        path = fa.congruence_path(ellipse)
        dets = np.linalg.det(path.mats)
        assert np.max(np.abs(dets - 1.0)) < 1e-8


class TestCongruenceArclength:
    def test_ellipse_closed(self, ellipse):
        val = congruence_arclength(ellipse)
        assert val == pytest.approx(2 * np.pi, rel=1e-6)

    def test_ellipse_arc(self):
        # quarter period of an ellipse, open arc
        a, b = 2.0, 0.5
        om = 1.0
        s = np.linspace(0.0, np.pi / 2, 3000)
        c = cv.CurveSamples(s, a * np.cos(s), b * np.sin(s), closed=False)
        val = congruence_arclength(c)
        kappa = cv.frame_and_curvature(c).kappa
        sel = c.interior()
        ref = integrate_samples(np.sqrt(np.abs(kappa[sel])), c.h)
        assert abs(val - ref) / ref < 1e-4

    def test_hyperbola_arc_spacelike(self):
        c = hyperbola_samples()
        val = congruence_arclength(c)
        kappa = cv.frame_and_curvature(c).kappa
        sel = c.interior()
        ref = integrate_samples(np.sqrt(np.abs(kappa[sel])), c.h)
        assert abs(val - ref) / ref < 1e-4

    def test_spiral_arc(self, spiral):
        val = congruence_arclength(spiral)
        kappa = cv.frame_and_curvature(spiral).kappa
        sel = spiral.interior()
        ref = integrate_samples(np.sqrt(np.abs(kappa[sel])), spiral.h)
        assert abs(val - ref) / ref < 1e-4

    def test_mixed_character_rejected(self):
        # a curve whose curvature changes sign has a congruence that
        # switches causal character
        from affine_elastica.classifier import Case, CaseLabel
        from affine_elastica import synthesis as sy

        c = sy.synthesize(CaseLabel(Case.Dc, {"E": -0.5}, 0.75, -0.125))
        kappa = cv.frame_and_curvature(c).kappa
        assert kappa.min() < 0 < kappa.max()
        with pytest.raises(NonConvex):
            congruence_arclength(c)


class TestGlobalProperties:
    def test_total_full_affine_curvature_vanishes(self, rng, ellipse):
        curves = [ellipse]
        for _ in range(3):
            curves.append(cv.reparametrize_equiaffine(convex_support_curve(rng), closed=True))
        for c in curves:
            fd = full_affine_invariants(c)
            total = integrate_samples(fd.kappa_F * np.sqrt(cv.frame_and_curvature(c).kappa),
                                      c.h, periodic=True)
            assert abs(total) < 1e-6

    def test_isoperimetric_battery(self, rng, ellipse):
        # full-affine length of closed convex curves is at most 2 pi,
        # with equality only for ellipses
        f = functionals(ellipse)
        assert f.full_affine_length <= 2 * np.pi + 1e-6
        assert f.full_affine_length == pytest.approx(2 * np.pi, abs=1e-6)
        for _ in range(5):
            c = cv.reparametrize_equiaffine(convex_support_curve(rng), closed=True)
            fal = functionals(c).full_affine_length
            assert fal <= 2 * np.pi + 1e-6
            assert fal < 2 * np.pi - 1e-4  # strictly below for non-ellipses

    def test_full_affine_invariance_exact_reparametrization(self, rng, spiral):
        # under p -> M p the equi-affine parameter rescales exactly by
        # det(M)^(1/3), so the mapped samples stay uniform with no
        # interpolation and the invariants must match pointwise
        base = spiral
        fd0 = full_affine_invariants(base)
        f0 = functionals(base, full_affine=True)
        for _ in range(4):
            M = random_invertible(rng)
            if np.linalg.det(M) < 0:
                M = np.diag([1.0, -1.0]) @ M
            det = np.linalg.det(M)
            s_new = det ** (1.0 / 3.0) * base.s
            moved = cv.CurveSamples(
                s_new, *(base.points() @ M.T + rng.uniform(-1, 1, 2)).T, closed=False
            )
            assert cv.unimodularity_defect(moved) < 1e-8
            fd1 = full_affine_invariants(moved)
            sel = base.interior()
            assert np.max(np.abs(fd1.kappa_F[sel] - fd0.kappa_F[sel])) < 1e-8
            assert fd1.s_F[-1] == pytest.approx(fd0.s_F[-1], abs=1e-8)

    def test_full_affine_invariance_through_resampling(self, rng):
        base = cv.reparametrize_equiaffine(convex_support_curve(rng), closed=True)
        f0 = functionals(base)
        for _ in range(2):
            M = random_invertible(rng)
            if np.linalg.det(M) < 0:
                M = np.diag([1.0, -1.0]) @ M
            pts = base.points() @ M.T + rng.uniform(-1, 1, 2)
            moved = cv.reparametrize_equiaffine(pts, closed=True, n_samples=base.n)
            f1 = functionals(moved)
            assert f1.full_affine_length == pytest.approx(f0.full_affine_length, abs=1e-8)

    def test_kappa_f_pointwise_invariance(self, rng):
        # match kappa_F(s_F) pointwise after anchoring at the maximum
        base = ellipse_samples(1.3, 0.7, 6000)
        fd0 = full_affine_invariants(base)
        M = random_invertible(rng)
        pts = base.points() @ M.T
        moved = cv.reparametrize_equiaffine(pts, closed=True, n_samples=6000)
        fd1 = full_affine_invariants(moved)
        i0 = int(np.argmax(fd0.kappa_F))
        i1 = int(np.argmax(fd1.kappa_F))
        period_F = functionals(base).full_affine_length
        from scipy.interpolate import CubicSpline

        # periodic interpolation of the moved curvature profile
        sF1 = np.concatenate([fd1.s_F, [period_F]])
        kF1 = np.concatenate([fd1.kappa_F, [fd1.kappa_F[0]]])
        spl = CubicSpline(sF1, kF1, bc_type="periodic")
        probes = np.linspace(0, period_F, 50, endpoint=False)
        vals0 = CubicSpline(
            np.concatenate([fd0.s_F, [period_F]]),
            np.concatenate([fd0.kappa_F, [fd0.kappa_F[0]]]),
            bc_type="periodic",
        )((probes + fd0.s_F[i0]) % period_F)
        vals1 = spl((probes + fd1.s_F[i1]) % period_F)
        assert np.max(np.abs(vals0 - vals1)) < 1e-6


def test_osculating_conic_five_point_contact(ellipse):
    coef = fa.osculating_conic(ellipse, 500)
    a, b, c2, d, e, f = coef
    # the osculating conic of an ellipse is the ellipse itself
    x, y = ellipse.x, ellipse.y
    vals = a * x * x + b * x * y + c2 * y * y + d * x + e * y + f
    assert np.max(np.abs(vals)) < 1e-8 * max(abs(a), abs(c2))
