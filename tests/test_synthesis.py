"""Curve synthesis: Lame solutions, closure condition, all case families."""

from decimal import Decimal
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from affine_elastica import curvature as cv
from affine_elastica import elliptic as el
from affine_elastica import synthesis as sy
from affine_elastica.classifier import Branch, Case, CaseLabel, classify
from affine_elastica.errors import (
    DegenerateDiscriminant,
    DomainError,
    GridHitsPole,
    NotBracketed,
    SynthesisError,
)
from conftest import ellipse_samples
from lame_oracle import LameSolutionParams, PathThroughZero, lame_phi1, lame_phi1_prime, lame_phi2
from oracles import CLOSURE_LHS_REFERENCE, a3_nonperiodicity, analytic_kappa, length_constrained_kappa, synthesize_arcs

A1_ROW = dict(m=3, n=4, Q=3.940854279, w1=1.424009578, w2=1.670043233, d=-1.540700057)

TABLE = [
    (3, 4, 3.940854279, 1.424009578, 1.670043233, -1.540700057),
    (4, 5, 8.947959902, 1.009840213, 1.086362374, -1.058686673),
    (29, 37, 6.926542623, 1.129312548, 1.239778028, -1.194744029),
    (17, 24, 1.244192459, 2.097620948, 3.602731724, -2.351154225),
]

#: every closing ratio n/m in ]1, sqrt 2[ with m < 16, m and n coprime (29 pairs)
CLOSURE_PAIRS = [
    (m, n) for m in range(2, 16) for n in range(m + 1, 2 * m) if gcd(m, n) == 1 and n * n < 2 * m * m
]

_WINDOW_LHS = sy.closure_lhs(np.array(sy._Q_INTERVAL))
#: every coprime pair with m <= 200 whose ratio the closure quantity takes inside _Q_INTERVAL
WINDOW_PAIRS = [
    (m, n) for m in range(1, 201) for n in range(m + 1, 2 * m)
    if gcd(m, n) == 1 and _WINDOW_LHS[1] < n / m < _WINDOW_LHS[0]
]


@pytest.fixture(scope="module")
def a1_params():
    inv = el.invariants_from_qQ(1.0, A1_ROW["Q"])
    lat = el.half_periods(inv)
    c = sy.lame_parameter_c(inv, prefer_negative_imag=True)
    grid = np.linspace(0.0, 4 * lat.w1, 400)
    return LameSolutionParams(inv=inv, c=c, c0=1j * lat.w2_im, s_grid=grid)


@pytest.mark.parametrize("prefer_negative_imag", [False, True])
@pytest.mark.parametrize(
    "inv,segment",
    [
        (el.invariants_from_qQ(0.3, 0.7), "vertical"),  # B1: rectangular, g3 > 0
        (el.invariants_from_qQ(-0.5, 1.5), "horizontal"),  # B3: rectangular, g3 < 0
        (el.invariants_from_Ptau(-1.0, 8.0), "real"),  # C4: rhombic, v >= real root
        (el.invariants_from_Ptau(1.0, 2.0), "imaginary"),  # C1: rhombic, v < real root
    ],
    ids=["B1", "B3", "C4", "C1"],
)
def test_lame_parameter_c_segments(inv, segment, prefer_negative_imag):
    lat = el.half_periods(inv)
    v = -inv.g3 / inv.g2
    c = sy.lame_parameter_c(inv, prefer_negative_imag=prefer_negative_imag)
    assert abs(el.wp(c, inv) - v) <= 1e-13 * max(1.0, abs(v))
    on_segment = {
        "vertical": c.real == lat.w1 and 0.0 < abs(c.imag) < lat.w2_im,
        "horizontal": abs(c.imag) == lat.w2_im and 0.0 < c.real < lat.w1,
        "real": c.imag == 0.0 and 0.0 < c.real <= lat.w1,
        "imaginary": c.real == 0.0 and 0.0 < abs(c.imag) <= lat.w2_im,
    }
    assert on_segment[segment]
    if segment != "real":
        assert np.sign(c.imag) == (-1.0 if prefer_negative_imag else 1.0)


class TestLameSolutions:
    def test_phi1_satisfies_lame_equation_fd(self, a1_params):
        p = a1_params
        z = np.linspace(0.2, 2.0, 100) - p.c0
        h = 1e-4
        phi = lame_phi1(z, p)
        lap = (lame_phi1(z + h, p) - 2 * phi + lame_phi1(z - h, p)) / h**2
        res = lap - 6.0 * el.wp(z, p.inv) * phi
        assert np.max(np.abs(res)) < 1e-6 * max(1.0, np.max(np.abs(phi)))

    def test_phi1_against_direct_ode_integration(self, a1_params):
        p = a1_params
        inv = p.inv
        s0, s1 = 0.3, 2.8

        def pot(s):
            return 6.0 * el.wp(s - p.c0, inv)

        y0 = [lame_phi1(s0 - p.c0, p), lame_phi1_prime(s0 - p.c0, p)]

        def rhs(s, u):
            q = pot(s)
            return [u[1], q * u[0]]

        sol = solve_ivp(rhs, (s0, s1), y0, rtol=1e-12, atol=1e-12, method="DOP853",
                        t_eval=np.linspace(s0, s1, 25))
        ref = lame_phi1(sol.t - p.c0, p)
        assert np.max(np.abs(sol.y[0] - ref)) < 1e-6 * np.max(np.abs(ref))

    def test_wronskian_of_phi1_phi2(self, a1_params):
        p = a1_params
        z = np.array([0.6, 1.1, 1.9]) - p.c0
        h = 1e-5
        phi1 = lame_phi1(z, p)
        phi2 = lame_phi2(z, p)
        d1 = (lame_phi1(z + h, p) - lame_phi1(z - h, p)) / (2 * h)
        d2 = (lame_phi2(z + h, p) - lame_phi2(z - h, p)) / (2 * h)
        W = phi1 * d2 - phi2 * d1
        assert np.max(np.abs(W - 1.0)) < 1e-6

    def test_linear_combinations_solve_lame(self, a1_params):
        p = a1_params
        z = np.linspace(0.4, 1.8, 40) - p.c0
        h = 1e-4
        f = 0.7 * lame_phi1(z, p) + 0.3j * lame_phi2(z, p)
        fp = 0.7 * lame_phi1(z + h, p) + 0.3j * lame_phi2(z + h, p)
        fm = 0.7 * lame_phi1(z - h, p) + 0.3j * lame_phi2(z - h, p)
        res = (fp - 2 * f + fm) / h**2 - 6.0 * el.wp(z, p.inv) * f
        assert np.max(np.abs(res)) < 1e-5 * max(1.0, np.max(np.abs(f)))

    def test_phi2_consistent_with_mirrored_solution(self, a1_params):
        # the reciprocal Floquet solution phi1(-c) must be a linear
        # combination of phi1 and the reduction-of-order phi2
        p = a1_params
        pm = LameSolutionParams(inv=p.inv, c=-p.c, c0=p.c0, s_grid=p.s_grid)
        z = np.linspace(0.5, 2.2, 30) - p.c0
        phi1 = lame_phi1(z, p)
        phi2 = lame_phi2(z, p)
        target = lame_phi1(z, pm)
        M = np.column_stack([phi1, phi2])
        coef, *_ = np.linalg.lstsq(M, target, rcond=None)
        resid = M @ coef - target
        assert np.max(np.abs(resid)) < 1e-7 * np.max(np.abs(target))

    def test_phi2_path_through_zero_raises(self):
        # on the negative-minimum family phi1 is a rotated real solution
        # with genuine zeros on the line; a long path must be rejected
        inv = el.invariants_from_qQ(-1.0, 6.0)
        lat = el.half_periods(inv)
        c = sy.lame_parameter_c(inv)
        grid = np.linspace(0.0, 6 * lat.w1, 50)
        p = LameSolutionParams(inv=inv, c=c, c0=1j * lat.w2_im, s_grid=grid)
        with pytest.raises(PathThroughZero):
            lame_phi2(np.array([5.5 * lat.w1]) - p.c0, p)

    def test_params_validate_c(self, a1_params):
        with pytest.raises(ValueError):
            LameSolutionParams(
                inv=a1_params.inv, c=0.37 + 0.11j, c0=a1_params.c0, s_grid=a1_params.s_grid
            )


def _count_closure_calls(monkeypatch) -> dict:
    """Count batch and scalar ``closure_lhs_with_d`` calls, as ``synthesis`` makes them."""
    calls = {"batch": 0, "scalar": 0}
    evaluate = sy.closure_lhs_with_d

    def counted(Q):
        calls["scalar" if np.ndim(Q) == 0 else "batch"] += 1
        return evaluate(Q)

    monkeypatch.setattr(sy, "closure_lhs_with_d", counted)
    return calls


class TestClosureCondition:
    @settings(max_examples=30, deadline=None)
    @given(qs=st.lists(st.floats(min_value=1.001, max_value=1e8), min_size=1, max_size=300))
    @example(qs=np.geomspace(1.001, 1e8, 2000).tolist()).via("the whole window and beyond")
    @example(qs=[3.0, 1.0 + 1.4e-6, 2.0]).via("a Q near the degeneracy threshold, left to the scalar call")
    def test_batch_bits_equal_scalar_bits(self, qs):
        lhs, d = sy.closure_lhs_with_d(np.array(qs))
        one = np.array([sy.closure_lhs_with_d(q) for q in qs])
        assert lhs.tobytes() == one[:, 0].tobytes() and d.tobytes() == one[:, 1].tobytes()

    @pytest.mark.parametrize("qs,error", [
        ([2.0, 1.0 + 1e-10, 0.5], DegenerateDiscriminant),  # not the batch's first check, Q > 1
        ([2.0, 0.5, 1.0 + 1e-10], ValueError),
        ([3.0, np.nan], ValueError),
        ([3.0, np.inf, 0.5], DomainError),
        ([*np.linspace(2.0, 9.0, 18), 1.0 + 1e-10, 0.5], DegenerateDiscriminant),
        ([*np.linspace(2.0, 9.0, 18), 1e200], DomainError),  # g2 overflows
    ])
    def test_batch_raises_first_scalar_error(self, qs, error):
        with pytest.raises(error) as batch:
            sy.closure_lhs_with_d(np.array(qs))
        with pytest.raises(error) as first:  # the scalar calls in order
            for q in qs:
                sy.closure_lhs_with_d(q)
        assert str(batch.value) == str(first.value)

    def test_array_batch_calls_no_scalar_constants(self, monkeypatch):
        """An array of Q is computed on arrays, with no theta frame and no
        root solve; only a Q near the degeneracy threshold is left to the
        scalar call, which solves no cubic either."""
        calls = {}
        for module, name in [(sy, "carlson_rf"), (sy, "carlson_rd"), (sy, "_closure_scalar"), (el, "_cubic_roots"),
                             (el, "_frame_cached"), (el, "_theta1_bundle")]:
            f = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, f=f, name=name: calls.update({name: calls.get(name, 0) + 1})
                                or f(*a))
        sy.closure_lhs_with_d(np.geomspace(1.001, 1e8, 2))
        assert calls == {}
        sy.closure_lhs_with_d(np.array([2.0, 1.0 + 1.4e-6, 3.0]))
        assert calls == {"_closure_scalar": 1, "carlson_rf": 3, "carlson_rd": 2}
        calls.clear()
        sy.closure_lhs_with_d(2.5)
        assert calls == {"_closure_scalar": 1, "carlson_rf": 3, "carlson_rd": 2}

    @pytest.mark.parametrize("m,n,Q,w1,w2,d", TABLE)
    def test_lhs_at_tabulated_q(self, m, n, Q, w1, w2, d):
        lhs, dv = sy.closure_lhs_with_d(Q)
        assert lhs == pytest.approx(n / m, abs=1e-6)
        assert dv == pytest.approx(d, abs=1e-6)

    @pytest.mark.parametrize("m,n,Q,w1,w2,d", TABLE)
    def test_solve_closure_reproduces_row(self, m, n, Q, w1, w2, d):
        sol = sy.solve_closure(m, n)
        assert sol.Q == pytest.approx(Q, abs=1e-6)
        assert sol.lattice.w1 == pytest.approx(w1, abs=1e-6)
        assert sol.lattice.w2_im == pytest.approx(w2, abs=1e-6)
        assert sol.d == pytest.approx(d, abs=1e-6)

    @pytest.mark.parametrize("m,n", sorted(set(CLOSURE_PAIRS) | {row[:2] for row in TABLE}))
    def test_solve_closure_evaluations(self, m, n, monkeypatch):
        sy._prescan.cache_clear()
        calls = _count_closure_calls(monkeypatch)
        sol = sy.solve_closure(m, n)
        assert calls["batch"] == 1 and calls["scalar"] <= 8
        assert sy.solve_closure(m, n).Q == sol.Q
        assert calls["batch"] == 1  # the pre-scan is made once per process
        assert abs(sy.closure_lhs(sol.Q) - n / m) <= 1e-15

    @pytest.mark.parametrize("node", [0, 5, -1])
    def test_solve_closure_at_a_prescan_node(self, node):
        # any double in [1, 2) is n / 2^52 exactly, so a ratio can equal a node's quantity
        Q, lhs = sy._prescan()[0][node], sy._prescan()[1][node]
        sol = sy.solve_closure(2**52, int(lhs * 2**52))
        assert (sol.Q, sol.lhs) == (Q, lhs)

    # the first two pairs' roots lie in the pre-scan's first cell, the last two in its last cell
    @settings(max_examples=60, deadline=None)
    @given(pair=st.sampled_from(WINDOW_PAIRS))
    @example(pair=(169, 239)).via("first cell, Q = 1.016")
    @example(pair=(17, 24)).via("first cell, Q = 1.244")
    @example(pair=(73, 75)).via("last cell, Q = 925.9")
    @example(pair=(151, 155)).via("last cell, Q = 990.6")
    def test_solve_closure_property(self, pair):
        m, n = pair
        lhs = sy.closure_lhs
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_closure_calls(mp)
            Q = sy.solve_closure(m, n).Q
        # Brent stops within tol of a sign change, where the quantity moves by
        # at most slope * tol; 1e-15 covers its rounding (about 4 ulp of n/m)
        tol = 1e-13 + 4e-15 * Q
        slope = (lhs(Q * (1 + 1e-6)) - lhs(Q * (1 - 1e-6))) / (2e-6 * Q)
        assert abs(lhs(Q) - n / m) <= 1e-15 + abs(slope) * tol
        # tests/closure_noise.py counts at most 6 over all of WINDOW_PAIRS
        assert calls["scalar"] <= 6

    # 2 lies above the quantity at Q = 1.001, 41/40 below it at Q = 1e3
    @pytest.mark.parametrize("m,n", [(1, 2), (40, 41)])
    def test_ratio_outside_window_not_bracketed(self, m, n):
        with pytest.raises(NotBracketed):
            sy.solve_closure(m, n)

    def test_quasi_periodicity_of_coordinates(self):
        # before closure is imposed: X(s + 4 w1) = exp(-4 A) X(s) with the
        # closure quantity lhs = A * 2i / pi
        Q = 2.7
        inv = el.invariants_from_qQ(1.0, Q)
        lat = el.half_periods(inv)
        c = sy.lame_parameter_c(inv, prefer_negative_imag=True)
        mu = sy._mu(inv, c)
        lhs, _ = sy.closure_lhs_with_d(Q)
        s = np.linspace(0.2, 1.7, 7)
        z = s - 1j * lat.w2_im
        ratio = sy._lame_values(z + 4 * lat.w1, inv, c, mu)[0] / sy._lame_values(z, inv, c, mu)[0]
        # the negative-imag representative carries the opposite sign of lhs
        expected = np.exp(-2j * np.pi * lhs)
        assert np.max(np.abs(ratio - expected)) < 1e-8

    @pytest.mark.parametrize("Q,lhs,d", [
        # 40-digit references, far past the critical point where wp'(c) -> 0
        (1e4, 1.0083453924474437, -0.032113788690760835),
        (1e5, 1.0026392941125126, -0.01015519441060972),
        (1e6, 1.0008346259656036, -0.0032113518373879336),
        (1e8, 1.0000834626832913358, -0.00032113515450876393),
    ])
    def test_lhs_at_large_q(self, Q, lhs, d):
        lv, dv = sy.closure_lhs_with_d(Q)
        assert abs(lv - lhs) <= 1e-9
        assert abs(dv - d) <= 1e-12

    def test_lhs_against_50_digit_references(self):
        """Within 6.7e-16 at every reference Q, from 1.001 to 1e8: every factor
        is exact in Q up to its own rounding, the roots included."""
        err = [abs(float(Decimal(ref) - Decimal(sy.closure_lhs(Q)))) for Q, ref in CLOSURE_LHS_REFERENCE]
        assert len(err) == 37 and max(err) <= 6.7e-16

    def test_lame_values_one_theta_evaluation_per_argument(self, monkeypatch):
        inv = el.invariants_from_qQ(1.0, 2.7)
        c = sy.lame_parameter_c(inv, prefer_negative_imag=True)
        mu = sy._mu(inv, c)  # the frame is cached from here on
        calls = []
        bundle = el._theta1_bundle
        monkeypatch.setattr(el, "_theta1_bundle", lambda u, coef: calls.append(u) or bundle(u, coef))
        z = np.linspace(0.2, 1.7, 7) - 0.5j
        for _ in range(3):
            sy._lame_values(z, inv, c, mu)
        assert len(calls) == 6
        # the general route evaluates z once for both solutions: c, -c, z, z + c, z - c
        label = classify(el.invariants_from_qQ(-0.7, 2.2), Branch.open_branch)
        el.half_periods(el.Invariants(label.g2, label.g3))
        calls.clear()
        curve = sy.synthesize(label, n=1000)
        assert label.tag is Case.B3 and curve.meta["route"] == "general"
        assert sum(u.size for u in calls) == 3002

    def test_closure_in_space(self):
        sol = sy.solve_closure(3, 4)
        label = classify(sol.inv, Branch.closed_branch)
        T = sol.period
        s = np.linspace(0, 1.125 * T, 9000, endpoint=False)
        c = sy.synthesize(label, grid=s)
        k = int(round(T / (s[1] - s[0])))
        mref = c.n - k
        gap = np.hypot(c.x[k:] - c.x[:mref], c.y[k:] - c.y[:mref])
        diam = np.hypot(np.ptp(c.x), np.ptp(c.y))
        assert gap.max() < 1e-5 * diam

    def test_symmetry_group(self):
        sol = sy.solve_closure(3, 4)
        c = sy.synthesize_closed(sol, samples_per_period=1000)
        shift = c.n // (2 * sol.m)
        assert abs(shift * c.h - 2 * sol.lattice.w1) < 1e-12
        P0 = np.column_stack([c.x, c.y, np.ones(c.n)])
        tx = np.roll(c.x, -shift)
        ty = np.roll(c.y, -shift)
        cx, *_ = np.linalg.lstsq(P0, tx, rcond=None)
        cy, *_ = np.linalg.lstsq(P0, ty, rcond=None)
        L = np.array([cx[:2], cy[:2]])
        assert np.linalg.det(L) == pytest.approx(1.0, abs=1e-9)
        diam = np.hypot(np.ptp(c.x), np.ptp(c.y))
        fit_err = np.max(np.hypot(P0 @ cx - tx, P0 @ cy - ty))
        assert fit_err < 1e-8 * diam
        M = np.linalg.matrix_power(L, 2 * sol.m)
        assert np.max(np.abs(M - np.eye(2))) < 1e-6

    def test_closed_curve_evaluates_one_period(self, monkeypatch):
        sol = sy.solve_closure(3, 4)
        sizes = []
        bundle = el._theta1_bundle
        monkeypatch.setattr(el, "_theta1_bundle", lambda u, coef: sizes.append(u.size) or bundle(u, coef))
        sy.synthesize_closed(sol, samples_per_period=500)
        scalar = [k for k in sizes if k == 1]
        assert len(scalar) <= 4
        assert sum(sizes) <= 2 * 500 + len(scalar)  # h at z and z + c on the first period

    @pytest.mark.parametrize("m,n", [(3, 4), (5, 6)])
    def test_tiled_periods_match_direct_values(self, m, n):
        sol = sy.solve_closure(m, n)
        inv, lat, per = sol.inv, sol.lattice, 400
        c = sy.lame_parameter_c(inv, prefer_negative_imag=True)
        mu = sy._mu(inv, c)
        z = np.linspace(0.0, sol.period, 2 * m * per, endpoint=False) - 1j * lat.w2_im
        j, _ = sy._floquet_multiplier(lat, c, mu, m, n)
        tiled = sy._tile(sy._lame_values(z[:per], inv, c, mu)[0], sy._floquet_powers(j, m))
        idx = np.linspace(len(z) - per, len(z) - 1, 16).astype(int)  # the last kappa-period
        direct = sy._lame_values(z[idx], inv, c, mu)[0]
        assert np.max(np.abs(tiled[idx] - direct)) <= 1e-9 * np.max(np.abs(tiled))

    @pytest.mark.parametrize("m,n", [(3, 4), (5, 7), (7, 9), (8, 11), (10, 13), (11, 14), (11, 15)])
    def test_closed_curve_records_its_multiplier(self, m, n):
        c = sy.synthesize_closed(sy.solve_closure(m, n), samples_per_period=300)
        assert c.meta["floquet_arg_pi"] == -n / m
        # with mu from the cubic, as the solve has it, rho is off the root of
        # unity by the solve's own residual; the theta wp'(c) gave up to 3e-14
        assert c.meta["floquet_defect"] < 5e-15
        # each period is a rotated copy of the first, so the wrap step equals
        # the step from the first period into the second
        steps = np.hypot(np.diff(c.x, append=c.x[0]), np.diff(c.y, append=c.y[0]))
        assert steps[-1] == pytest.approx(steps[c.n // (2 * m) - 1], rel=1e-9)

    def test_non_closing_pair_raises(self):
        import dataclasses

        sol = dataclasses.replace(sy.solve_closure(3, 4), n=5)
        with pytest.raises(SynthesisError, match="does not close"):
            sy.synthesize_closed(sol, samples_per_period=200)

    def test_closed_curve_needs_a_period_lattice(self):
        import dataclasses

        sol = dataclasses.replace(sy.solve_closure(3, 4), inv=el.Invariants(3.0, 1.0))  # an ellipse
        with pytest.raises(DomainError, match="no period lattice"):
            sy.synthesize_closed(sol, samples_per_period=200)

    def test_general_route_tiles_the_mirrored_partner(self, monkeypatch):
        sol = sy.solve_closure(3, 4)
        c1 = sy.synthesize_closed(sol, samples_per_period=500)
        monkeypatch.setattr(sy, "_DEPENDENCE_RTOL", np.inf)  # no pair counts as independent
        c2 = sy.synthesize_closed(sol, samples_per_period=500)
        assert c2.meta["route"] == "general"
        P = np.column_stack([c1.x, c1.y, np.ones(c1.n)])
        cx, *_ = np.linalg.lstsq(P, c2.x, rcond=None)
        cy, *_ = np.linalg.lstsq(P, c2.y, rcond=None)
        err = max(np.max(np.abs(P @ cx - c2.x)), np.max(np.abs(P @ cy - c2.y)))
        assert err < 1e-8 * max(np.ptp(c2.x), np.ptp(c2.y))

    def test_a3_nonperiodicity_scan(self):
        for Q in (2.25, 3.0, 6.0, 12.0, 20.0):
            val = a3_nonperiodicity(Q)
            assert abs(val) > 1e-3

    def test_a3_one_theta_evaluation(self, monkeypatch):
        # zeta(w2 + d) and zeta(w2) share one theta evaluation
        a3_nonperiodicity(6.0)  # the lattice is cached from here on
        calls = []
        bundle = el._theta1_bundle
        monkeypatch.setattr(el, "_theta1_bundle", lambda u, coef: calls.append(u) or bundle(u, coef))
        a3_nonperiodicity(6.0)
        assert [u.size for u in calls] == [2]

    def test_a3_bracket_matches_direct_quantity(self):
        # bracket * 2i/pi = lhs(c = w2 + d) - 1 with the general formula:
        # the bracket is real, so it lands in the imaginary part of lhs
        Q = 6.0
        inv = el.invariants_from_qQ(-1.0, Q)
        lat = el.half_periods(inv)
        c = sy.lame_parameter_c(inv)
        direct = 2j / np.pi * (-sy._mu(inv, c) * lat.w1 - lat.eta1 * c)
        bracket = a3_nonperiodicity(Q)
        assert direct.real == pytest.approx(1.0, abs=1e-8)
        assert direct.imag == pytest.approx(bracket * 2.0 / np.pi, abs=1e-8)


def _kappa_check(label, curve, tol=1e-4):
    kex = analytic_kappa(label, curve.s)
    kappa = cv.frame_and_curvature(curve).kappa
    sel = curve.interior()
    assert np.max(np.abs(kappa[sel] - kex[sel])) < tol


ALL_CASES = [
    ("A1", lambda: classify(el.invariants_from_qQ(1.0, 3.0), Branch.closed_branch)),
    ("A2", lambda: classify(el.invariants_from_qQ(0.0, 1.0), Branch.closed_branch)),
    ("A3", lambda: classify(el.invariants_from_qQ(-1.0, 6.0), Branch.closed_branch)),
    ("B1", lambda: classify(el.invariants_from_qQ(0.3, 0.7), Branch.open_branch)),
    ("B2", lambda: classify(el.invariants_from_qQ(0.0, 1.0), Branch.open_branch)),
    ("B3", lambda: classify(el.invariants_from_qQ(-0.5, 1.5), Branch.open_branch)),
    ("C1", lambda: classify(el.invariants_from_Ptau(1.0, 2.0))),
    ("C2", lambda: classify(el.invariants_from_Ptau(1.0, 0.3))),
    ("C3", lambda: classify(el.invariants_from_Ptau(0.0, 1.0))),
    ("C4", lambda: classify(el.invariants_from_Ptau(-1.0, 8.0))),
    ("C5", lambda: classify(el.invariants_from_Ptau(-1.0, 0.125))),
    ("Da", lambda: CaseLabel(Case.Da, {"E": -0.5}, 0.75, -0.125)),
    ("Dc", lambda: CaseLabel(Case.Dc, {"E": -0.5}, 0.75, -0.125)),
    ("E", lambda: CaseLabel(Case.E_case, {"E": 0.5}, 0.75, 0.125)),
    ("F-", lambda: classify(el.Invariants(0.0, -1.0))),
    ("F+", lambda: classify(el.Invariants(0.0, 1.0))),
    ("G", lambda: CaseLabel(Case.G, {}, 0.0, 0.0)),
    ("ellipse", lambda: CaseLabel(Case.Ellipse, {"E": 1.0 / 3.0}, 1.0 / 3.0, 1.0 / 27.0)),
]


def _from_pole(label, k):
    """Synthesize on a grid that starts at k w1, k a multiple of a pole spacing."""
    w1 = el.half_periods(el.Invariants(label.g2, label.g3)).w1
    return sy.synthesize(label, grid=(k * w1, (k + 0.5) * w1))


def _lc_from_pole(g3, c0, k):
    w1 = el.half_periods(el.Invariants(1.0 / 12.0, g3)).w1
    return sy.synthesize_length_constrained(1.0, g3, c0=c0, grid=(k * w1, (k + 0.5) * w1))


# every family with real curvature poles, on a grid that starts at one
POLE_HITS = [
    ("A2", lambda: _from_pole(classify(el.invariants_from_qQ(0.0, 1.0), Branch.closed_branch), 1.0)),
    ("B1", lambda: _from_pole(classify(el.invariants_from_qQ(0.3, 0.7), Branch.open_branch), 0.0)),
    ("C3", lambda: _from_pole(classify(el.invariants_from_Ptau(0.0, 1.0)), 1.0)),
    ("Da", lambda: sy.synthesize(CaseLabel(Case.Da, {"E": -0.5}, 0.75, -0.125), grid=(0.0, 2.0))),
    ("E", lambda: sy.synthesize(
        CaseLabel(Case.E_case, {"E": 0.5}, 0.75, 0.125), grid=(0.0, (np.pi / 2.0) / np.sqrt(0.75))
    )),
    ("G", lambda: sy.synthesize(CaseLabel(Case.G, {}, 0.0, 0.0), grid=(0.0, 2.0))),
    ("length-constrained-0", lambda: _lc_from_pole(-0.15, "0", 0.0)),
    ("length-constrained-w2-rhombic", lambda: _lc_from_pole(-0.15, "w2", 1.0)),
]


class TestSynthesizeAllCases:
    @pytest.mark.parametrize("name,make", ALL_CASES, ids=[n for n, _ in ALL_CASES])
    def test_unimodular_and_curvature(self, name, make):
        label = make()
        c = sy.synthesize(label)
        assert cv.unimodularity_defect(c) < 1e-6
        _kappa_check(label, c)

    @pytest.mark.parametrize("name,make", ALL_CASES, ids=[n for n, _ in ALL_CASES])
    def test_el_equation(self, name, make):
        label = make()
        c = sy.synthesize(label)
        fit = cv.el_residual_area_constrained(c)
        assert fit.residual < 1e-5
        assert abs(fit.C - 3.0 * label.g2) < 1e-6

    @pytest.mark.parametrize("name,make", ALL_CASES, ids=[n for n, _ in ALL_CASES])
    def test_phase_plane_cubic(self, name, make):
        # (kappa')^2 + (2/3) kappa^3 - 6 g2 kappa + 36 g3 = 0 along the curve
        from affine_elastica._numerics import diff_samples

        label = make()
        c = sy.synthesize(label)
        kappa = cv.frame_and_curvature(c).kappa
        k1 = diff_samples(kappa, c.h, 1, periodic=c.closed, window=c.meta.get("fd_window"))
        res = k1**2 + (2.0 / 3.0) * kappa**3 - 6.0 * label.g2 * kappa + 36.0 * label.g3
        sel = c.interior()
        assert np.sqrt(np.mean(res[sel] ** 2)) < 1e-4


class TestCaseSpecificForms:
    def test_a2_multi_arc_output(self):
        label = classify(el.invariants_from_qQ(0.0, 1.0), Branch.closed_branch)
        arcs = synthesize_arcs(label, n_arcs=3)
        assert len(arcs) == 3
        w1 = el.half_periods(el.invariants_from_qQ(0.0, 1.0)).w1
        for ell, arc in enumerate(arcs):
            assert arc.meta["arc_index"] == ell
            assert arc.meta["sign_flip_at_poles"]
            assert cv.unimodularity_defect(arc) < 1e-6
            _kappa_check(label, arc)
            # beta = gamma / sqrt(kappa) stays on one of two parallel lines,
            # alternating with the arc parity
            kappa = analytic_kappa(label, arc.s)
            beta_x = arc.x / np.sqrt(kappa)
            expected = (-1.0) ** ell * np.median(np.abs(beta_x))
            assert np.max(np.abs(beta_x - expected)) < 1e-8

    def test_a2_square_root_line(self):
        label = classify(el.invariants_from_qQ(0.0, 1.0), Branch.closed_branch)
        c = sy.synthesize(label)
        assert c.meta["sign_flip_at_poles"]
        kex = analytic_kappa(label, c.s)
        # beta = gamma / sqrt(kappa) traces a line: y/x = affine in s
        ratio = c.y / c.x
        fit = np.polyfit(c.s, ratio, 1)
        assert np.max(np.abs(np.polyval(fit, c.s) - ratio)) < 1e-8

    def test_ellipse_label_constant_curvature(self):
        label = CaseLabel(Case.Ellipse, {"E": 1.0 / 3.0}, 1.0 / 3.0, 1.0 / 27.0)
        c = sy.synthesize(label)
        kappa = cv.frame_and_curvature(c).kappa
        assert np.max(np.abs(kappa - 1.0)) < 1e-10

    def test_case_g_algebraic_invariant(self):
        c = sy.synthesize(CaseLabel(Case.G, {}, 0.0, 0.0))
        val = c.x * c.y**4
        assert np.max(np.abs(val / np.mean(val) - 1.0)) < 1e-6

    def test_case_g_cubic_ratio(self):
        from affine_elastica._numerics import diff_samples

        c = sy.synthesize(CaseLabel(Case.G, {}, 0.0, 0.0))
        kappa = cv.frame_and_curvature(c).kappa
        k1 = diff_samples(kappa, c.h, 1, window=c.meta.get("fd_window"))
        sel = c.interior()
        ratio = k1[sel] ** 2 / kappa[sel] ** 3
        assert np.max(np.abs(np.abs(ratio) - 2.0 / 3.0)) < 1e-6

    def test_case_f_double_point_blaschke_factor(self):
        # symmetric double point of the zero-g2 curve (g3 = -1) sits at
        # 1.0319 times the Blaschke normal from the curvature maximum
        label = classify(el.Invariants(0.0, -1.0))
        inv = el.Invariants(0.0, -1.0)
        lat = el.half_periods(inv)
        w1 = lat.w1
        c = sy.synthesize(label, grid=(0.12 * w1, 1.88 * w1), n=12001)
        fr = cv.frame_and_curvature(c)
        i0 = int(np.argmax(fr.kappa))
        # frame-normalize: curvature maximum to the origin, frame to identity
        L = np.linalg.inv(np.column_stack([fr.T[i0], fr.N[i0]]))
        moved = c.transformed(L, -L @ np.array([c.x[i0], c.y[i0]]))
        x, y = moved.x, moved.y
        # first crossing of the symmetry axis x = 0 with s > s0
        right = np.arange(i0 + 10, moved.n - 1)
        flips = right[np.sign(x[right]) != np.sign(x[right + 1])]
        assert len(flips) > 0
        j = flips[0]
        t = x[j] / (x[j] - x[j + 1])
        y_cross = y[j] + t * (y[j + 1] - y[j])
        assert y_cross == pytest.approx(1.0319, abs=1e-3)

    def test_equivalent_routes_match_up_to_affine_map(self, monkeypatch):
        # when the explicit real/imaginary split applies, it must agree with
        # the general complex-combination route up to a real affine map
        label = classify(el.invariants_from_qQ(1.0, 3.0), Branch.closed_branch)
        c1 = sy.synthesize(label)
        monkeypatch.setattr(sy, "_DEPENDENCE_RTOL", np.inf)  # no pair counts as independent
        c2 = sy.synthesize(label)
        assert c1.meta["route"] == "explicit"
        assert c2.meta["route"] == "general"
        P = np.column_stack([c1.x, c1.y, np.ones(c1.n)])
        cx, *_ = np.linalg.lstsq(P, c2.x, rcond=None)
        cy, *_ = np.linalg.lstsq(P, c2.y, rcond=None)
        err = max(np.max(np.abs(P @ cx - c2.x)), np.max(np.abs(P @ cy - c2.y)))
        scale = max(np.ptp(c2.x), np.ptp(c2.y))
        assert err < 1e-8 * scale

    @pytest.mark.parametrize("grid", [(2.0, 2.0), (1.0, 0.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_bad_grid_range_is_domain_error(self, grid):
        label = classify(el.invariants_from_qQ(1.0, 3.0), Branch.closed_branch)
        with pytest.raises(DomainError, match="finite lo < hi"):
            sy.synthesize(label, grid=grid)

    @pytest.mark.parametrize("name,attempt", POLE_HITS, ids=[n for n, _ in POLE_HITS])
    def test_grid_hits_pole(self, name, attempt):
        with pytest.raises(GridHitsPole):
            attempt()


class TestLengthConstrained:
    @pytest.mark.parametrize("c0", ["w2", "0"])
    @pytest.mark.parametrize("A,g3", [(1.0, -0.15), (1.0, 0.1), (-1.0, -0.15), (1.0, 0.002)])
    def test_families(self, A, g3, c0):
        c = sy.synthesize_length_constrained(A, g3, c0=c0)
        assert "fd_window" in c.meta and c.meta["c0"] == c0
        assert cv.unimodularity_defect(c) < 1e-6
        kex = length_constrained_kappa(A, g3, c0, c.s)
        kappa = cv.frame_and_curvature(c).kappa
        sel = c.interior()
        assert np.max(np.abs(kappa[sel] - kex[sel])) < 1e-4
        fit = cv.el_residual_area_and_length(c)
        assert fit.residual < 1e-4
        assert fit.A == pytest.approx(A, abs=1e-5)
        assert abs(fit.C) < 1e-5

    def test_zero_a_reduces_to_zero_g2_family(self):
        # with A = 0 the curvature is -6 wp(s), the g2 = 0 case family
        c = sy.synthesize_length_constrained(0.0, -1.0, c0="0")
        kex = analytic_kappa(classify(el.Invariants(0.0, -1.0)), c.s)
        kappa = cv.frame_and_curvature(c).kappa
        sel = c.interior()
        assert np.max(np.abs(kappa[sel] - kex[sel])) < 1e-4

    @pytest.mark.parametrize("c0", ["w3", "W2", " 0", 0, 1j])
    def test_unknown_c0_rejected(self, c0):
        with pytest.raises(DomainError, match="c0 must be '0' or 'w2'"):
            sy.synthesize_length_constrained(1.0, -0.15, c0=c0)
        with pytest.raises(DomainError, match="c0 must be '0' or 'w2'"):
            length_constrained_kappa(1.0, -0.15, c0, np.linspace(0.5, 1.0, 8))

    def test_degenerate_g3_rejected(self):
        with pytest.raises(ValueError):
            sy.synthesize_length_constrained(1.0, (1.0 / 12.0) ** 1.5 / np.sqrt(27.0), c0="0")


class TestEuclideanDisplay:
    def test_maxima_on_circle(self):
        sol = sy.solve_closure(3, 4)
        c = sy.synthesize_closed(sol, samples_per_period=1000)
        disp = sy.euclidean_display_transform(c)
        assert disp.meta["display_normalized"]
        kappa = cv.frame_and_curvature(c).kappa
        idx = np.nonzero((kappa > np.roll(kappa, 1)) & (kappa >= np.roll(kappa, -1)))[0]
        assert len(idx) == 2 * sol.m
        r = np.hypot(disp.x[idx], disp.y[idx])
        assert np.ptp(r) / np.mean(r) < 1e-5

    def test_circle_identity(self):
        circ = ellipse_samples(1.0, 1.0, 2048)
        out = sy.euclidean_display_transform(circ)
        assert np.max(np.abs(out.x - circ.x)) < 1e-12

    def test_many_maxima_on_circle(self):
        sol = sy.solve_closure(17, 24)
        c = sy.synthesize_closed(sol, samples_per_period=600)
        disp = sy.euclidean_display_transform(c)
        kappa = cv.frame_and_curvature(c).kappa
        idx = np.nonzero((kappa > np.roll(kappa, 1)) & (kappa >= np.roll(kappa, -1)))[0]
        assert len(idx) == 2 * sol.m
        r = np.hypot(disp.x[idx], disp.y[idx])
        assert np.ptp(r) / np.mean(r) < 1e-5

    @pytest.mark.parametrize("m,n", [(3, 4), (7, 9)])
    def test_refined_maxima_match_loop(self, m, n, monkeypatch):
        c = sy.synthesize_closed(sy.solve_closure(m, n), samples_per_period=400)
        seen = []
        conic = sy._conic_through
        monkeypatch.setattr(sy, "_conic_through", lambda pts: seen.append(pts) or conic(pts))
        sy.euclidean_display_transform(c)
        want = _refined_maxima_by_loop(c)
        assert seen[0].shape == want.shape == (2 * m, 2)
        assert seen[0].tobytes() == want.tobytes()


def _refined_maxima_by_loop(c):
    """Reference: the curvature maxima refined one at a time, as a Python loop."""
    kappa = cv.frame_and_curvature(c).kappa
    n = c.n
    idx = np.nonzero((kappa > np.roll(kappa, 1)) & (kappa >= np.roll(kappa, -1)))[0]
    pts = []
    xs, ys = c.x, c.y
    for i in idx:
        km, k0, kp = kappa[(i - 1) % n], kappa[i], kappa[(i + 1) % n]
        denom = km - 2 * k0 + kp
        delta = 0.5 * (km - kp) / denom if denom != 0 else 0.0
        f = np.clip(delta, -1.0, 1.0)
        xm, x0v, xp = xs[(i - 1) % n], xs[i], xs[(i + 1) % n]
        ym, y0v, yp = ys[(i - 1) % n], ys[i], ys[(i + 1) % n]
        px = x0v + 0.5 * f * (xp - xm) + 0.5 * f * f * (xp - 2 * x0v + xm)
        py = y0v + 0.5 * f * (yp - ym) + 0.5 * f * f * (yp - 2 * y0v + ym)
        pts.append((px, py))
    return np.asarray(pts)
