"""Weierstrass kernel tests against independent oracles.

The half-period map is checked against direct lattice sums of the
invariants (the defining series), and wp against direct numerical
integration of its second-order ODE from a Laurent-series seed near the
pole.  Both oracles are independent of the theta-series evaluation path.
"""

import decimal
from decimal import Decimal

import numpy as np
import pytest
import sympy
from scipy.integrate import solve_ivp

from affine_elastica import elliptic as el
from affine_elastica.errors import DegenerateDiscriminant, NearPole
from oracles import log_sigma_w, sigma_w, wp_prime, zeta_w

# case-family invariant sets exercised throughout (all non-degenerate)
FAMILIES = {
    "bounded-oscillation": el.invariants_from_qQ(1.0, 3.940854279),
    "negative-min": el.invariants_from_qQ(-1.0, 6.0),
    "open-branch": el.invariants_from_qQ(0.3, 0.7),
    "one-real-root": el.invariants_from_Ptau(1.0, 2.0),
    "one-real-root-small-tau": el.invariants_from_Ptau(-1.0, 0.125),
    "zero-g2": el.Invariants(0.0, -1.0),
    "length-constrained": el.Invariants(1.0 / 12.0, -0.15),
}


def lattice_points_basis(inv):
    """Generators (2 W1, 2 W3) of the period lattice from half-period data."""
    lat = el.half_periods(inv)
    if inv.discriminant > 0:
        return 2.0 * lat.w1, 2.0j * lat.w2_im
    return lat.w1 + 1j * lat.w2_im, lat.w1 - 1j * lat.w2_im


# closed forms of sum_{n in Z} (n + x)^(-4) and (-6), via symbolic
# differentiation of the cosecant identity sum (n+x)^-2 = pi^2 / sin^2(pi x)
_x = sympy.symbols("x")
_S2 = sympy.pi**2 / sympy.sin(sympy.pi * _x) ** 2
_S4 = sympy.diff(_S2, _x, 2) / 6
_S6 = sympy.diff(_S2, _x, 4) / 120
_S4_fn = sympy.lambdify(_x, _S4, "numpy")
_S6_fn = sympy.lambdify(_x, _S6, "numpy")


def lattice_sum_invariants(p1: complex, p2: complex, rows: int = 60):
    """g2 = sum' 60 / lambda^4, g3 = sum' 140 / lambda^6 over lambda = m1 p1 + m2 p2.

    Row sums over m1 have cosecant closed forms; the remaining row index
    decays exponentially, so ``rows`` terms give full precision.
    """
    tau = p2 / p1
    s4 = 2.0 * np.pi**4 / 90.0  # m2 = 0 row: 2 * zeta(4)
    s6 = 2.0 * np.pi**6 / 945.0  # 2 * zeta(6)
    for m2 in range(1, rows + 1):
        if np.pi * m2 * abs(tau.imag) > 300.0:
            break  # rows decay like exp(-2 pi m2 Im tau); sinh would overflow
        x = m2 * tau
        t4 = 2.0 * complex(_S4_fn(x))
        t6 = 2.0 * complex(_S6_fn(x))
        s4 += t4
        s6 += t6
        if abs(t4) < 1e-18 * abs(s4) and abs(t6) < 1e-18 * abs(s6):
            break
    g2 = 60.0 * s4 / p1**4
    g3 = 140.0 * s6 / p1**6
    return g2, g3


def test_row_sum_closed_forms_against_brute_force():
    # validate the cosecant identities themselves on a complex argument
    x = 0.37 + 0.45j
    n = np.arange(-40000, 40001)
    brute4 = np.sum((n + x) ** -4.0)
    brute6 = np.sum((n + x) ** -6.0)
    assert abs(complex(_S4_fn(x)) - brute4) < 1e-12 * abs(brute4)
    assert abs(complex(_S6_fn(x)) - brute6) < 1e-13 * abs(brute6)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_half_periods_roundtrip_through_lattice_sums(name):
    inv = FAMILIES[name]
    p1, p2 = lattice_points_basis(inv)
    g2, g3 = lattice_sum_invariants(p1, p2)
    assert abs(g2.imag) < 1e-10 * max(1.0, abs(g2))
    assert abs(g3.imag) < 1e-10 * max(1.0, abs(g3))
    assert g2.real == pytest.approx(inv.g2, rel=1e-8, abs=1e-10)
    assert g3.real == pytest.approx(inv.g3, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("rhombic,w1,w2_im", [(False, 1.3, 1.9), (False, 0.8, 0.9), (True, 1.1, 1.6)])
def test_lattice_sums_then_half_periods_is_identity(rhombic, w1, w2_im):
    # start from prescribed half-periods, build the invariants by the
    # defining lattice series, and recover the half-periods
    if rhombic:
        p1, p2 = w1 + 1j * w2_im, w1 - 1j * w2_im
    else:
        p1, p2 = 2.0 * w1, 2.0j * w2_im
    g2, g3 = lattice_sum_invariants(p1, p2)
    lat = el.half_periods(el.Invariants(g2.real, g3.real))
    assert lat.w1 == pytest.approx(w1, abs=1e-8)
    assert lat.w2_im == pytest.approx(w2_im, abs=1e-8)


def test_half_periods_reference_row():
    inv = el.invariants_from_qQ(1.0, 3.940854279)
    lat = el.half_periods(inv)
    assert lat.w1 == pytest.approx(1.424009578, abs=1e-8)
    assert lat.w2_im == pytest.approx(1.670043233, abs=1e-8)


def test_half_periods_second_reference_row():
    inv = el.invariants_from_qQ(1.0, 6.926542623)
    lat = el.half_periods(inv)
    assert lat.w1 == pytest.approx(1.129312548, abs=1e-8)
    assert lat.w2_im == pytest.approx(1.239778028, abs=1e-8)


def test_lemniscatic_square_lattice():
    lat = el.half_periods(el.Invariants(4.0, 0.0))
    assert lat.w1 == pytest.approx(lat.w2_im, rel=1e-14)


@pytest.mark.parametrize(
    "g2,g3",
    [(-1.0, 0.0), (1.0, 0.0), (el.invariants_from_qQ(1.0, 3.0).g2, el.invariants_from_qQ(1.0, 3.0).g3)],
    ids=["square-rhombic", "square-rectangular", "rectangular"],
)
def test_half_periods_scale_free(g2, g3):
    # (l^4 g2, l^6 g3) is the same lattice scaled by 1/l, so the checks must
    # pass at every scale, and the half-periods scale as 1/l
    base = el.half_periods(el.Invariants(g2, g3))
    for lam4 in np.logspace(-40.0, 90.0, 27):
        lat = el.half_periods(el.Invariants(lam4 * g2, lam4**1.5 * g3))
        assert lat.w1 * lam4**0.25 == pytest.approx(base.w1, rel=1e-12)
        assert lat.w2_im * lam4**0.25 == pytest.approx(base.w2_im, rel=1e-12)


def test_half_period_critical_values():
    for inv in FAMILIES.values():
        lat = el.half_periods(inv)
        reals = sorted((r.real for r in lat.roots if abs(r.imag) < 1e-9), reverse=True)
        assert el.wp(lat.w1, inv).real == pytest.approx(reals[0], rel=1e-10, abs=1e-12)
        # each root satisfies the cubic
        for r in lat.roots:
            assert abs(4 * r**3 - inv.g2 * r - inv.g3) < 1e-10 * max(1.0, abs(r) ** 3)


def wp_lattice_sum(z: complex, inv, rows: int = 60) -> complex:
    """wp by its defining lattice series, row-grouped into cosecant sums.

    wp(z) = 1/z^2 + sum over nonzero lattice points of (z - l)^-2 - l^-2;
    the series is absolutely convergent, and summing each horizontal row of
    the lattice in closed form leaves an exponentially decaying row index.
    Fully independent of the theta-series evaluation path.
    """
    p1, p2 = lattice_points_basis(inv)
    tau = p2 / p1
    u = z / p1

    def S2(x):
        return np.pi**2 / np.sin(np.pi * x) ** 2

    total = S2(u) - np.pi**2 / 3.0
    for m2 in range(1, rows + 1):
        if np.pi * m2 * abs(tau.imag) > 300.0:
            break
        term = S2(u - m2 * tau) + S2(u + m2 * tau) - 2.0 * S2(m2 * tau)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total / p1**2


def laurent_coefficients(g2: float, g3: float, kmax: int = 12):
    """Taylor coefficients c_k of wp(z) - z^-2 = sum c_k z^(2k-2), by recursion."""
    c = {2: g2 / 20.0, 3: g3 / 28.0}
    for k in range(4, kmax + 1):
        c[k] = (
            3.0
            / ((2 * k + 1) * (k - 3))
            * sum(c[m] * c[k - m] for m in range(2, k - 1))
        )
    return c


def test_wp_against_lattice_sum_oracle():
    inv = el.invariants_from_qQ(1.0, 3.940854279)
    val = el.wp(0.7, inv)
    ref = wp_lattice_sum(0.7 + 0.0j, inv)
    assert abs(val - ref) < 1e-9
    # also off the real axis
    z = 0.4 + 0.55j
    assert abs(el.wp(z, inv) - wp_lattice_sum(z, inv)) < 1e-9


def test_wp_against_ode_integration():
    # secondary oracle: integrate wp'' = 6 wp^2 - g2/2 from a series seed;
    # the z^4 perturbation mode grows by (0.7/z0)^4, so the seed sits at a
    # moderate z0 and the tolerance reflects that amplification.
    inv = el.invariants_from_qQ(1.0, 3.940854279)
    g2, g3 = inv.g2, inv.g3
    z0 = 0.15
    c = laurent_coefficients(g2, g3)
    w0 = z0**-2 + sum(ck * z0 ** (2 * k - 2) for k, ck in c.items())
    wp0 = -2.0 * z0**-3 + sum((2 * k - 2) * ck * z0 ** (2 * k - 3) for k, ck in c.items())
    sol = solve_ivp(
        lambda t, u: [u[1], 6.0 * u[0] ** 2 - g2 / 2.0],
        (z0, 0.7),
        [w0, wp0],
        rtol=1e-13,
        atol=1e-13,
        method="DOP853",
    )
    assert abs(el.wp(0.7, inv).real - sol.y[0, -1]) < 1e-6


def test_laurent_leading_terms():
    inv = el.invariants_from_qQ(1.0, 3.940854279)
    z = 0.001
    assert el.wp(z, inv) * z**2 == pytest.approx(1.0, rel=1e-4)
    assert zeta_w(z, inv) * z == pytest.approx(1.0, rel=1e-4)
    assert sigma_w(z, inv) / z == pytest.approx(1.0, rel=1e-4)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_ode_residual_random_points(name):
    inv = FAMILIES[name]
    lat = el.half_periods(inv)
    rng = np.random.default_rng(7)
    a = rng.uniform(-0.5, 0.5, 1500)
    b = rng.uniform(-0.5, 0.5, 1500)
    p1, p2 = lattice_points_basis(inv)
    z = a * p1 + b * p2
    fr = el._frame(inv)
    zr, _, _ = el._reduce(z, fr)
    z = z[np.abs(zr) > 0.05 * lat.w1][:1000]
    P = el.wp(z, inv)
    Pp = wp_prime(z, inv)
    res = np.abs(Pp**2 - (4 * P**3 - inv.g2 * P - inv.g3))
    assert np.all(res < 1e-9 * np.maximum(1.0, np.abs(P) ** 3))


def test_parity():
    inv = FAMILIES["bounded-oscillation"]
    rng = np.random.default_rng(3)
    z = rng.uniform(0.1, 0.9, 50) + 1j * rng.uniform(0.05, 0.8, 50)
    assert np.max(np.abs(el.wp(-z, inv) - el.wp(z, inv))) < 1e-10
    assert np.max(np.abs(zeta_w(-z, inv) + zeta_w(z, inv))) < 1e-10
    assert np.max(np.abs(sigma_w(-z, inv) + sigma_w(z, inv))) < 1e-10


class TestParityProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(min_value=0.08, max_value=1.2),
        y=st.floats(min_value=0.08, max_value=1.2),
        name=st.sampled_from(sorted(FAMILIES)),
    )
    def test_wp_even_zeta_odd(self, x, y, name):
        inv = FAMILIES[name]
        z = complex(x, y)
        assert abs(el.wp(-z, inv) - el.wp(z, inv)) < 1e-10 * max(1.0, abs(el.wp(z, inv)))
        assert abs(zeta_w(-z, inv) + zeta_w(z, inv)) < 1e-10 * max(
            1.0, abs(zeta_w(z, inv))
        )


def test_reality_on_axes_and_shifted_line():
    for inv in (FAMILIES["bounded-oscillation"], FAMILIES["open-branch"]):
        lat = el.half_periods(inv)
        s = np.linspace(0.1, 2 * lat.w1 - 0.1, 101)
        assert np.max(np.abs(el.wp(s.astype(complex), inv).imag)) < 1e-10
        assert np.max(np.abs(el.wp(s - 1j * lat.w2_im, inv).imag)) < 1e-10


def test_derivative_consistency_fd():
    inv = FAMILIES["bounded-oscillation"]
    z0 = 0.55 + 0.4j
    h = 1e-4
    zfd = (zeta_w(z0 + h, inv) - zeta_w(z0 - h, inv)) / (2 * h)
    assert abs(zfd + el.wp(z0, inv)) < 1e-6
    sfd = (sigma_w(z0 + h, inv) - sigma_w(z0 - h, inv)) / (2 * h)
    assert abs(sfd - sigma_w(z0, inv) * zeta_w(z0, inv)) < 1e-6


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_quasi_periodicity(name):
    inv = FAMILIES[name]
    lat = el.half_periods(inv)
    z = 0.3 + 0.2j
    # zeta gains 2 eta1 per real period
    gap = zeta_w(z + 2 * lat.w1, inv) - zeta_w(z, inv) - 2 * lat.eta1
    assert abs(gap) < 1e-9
    # sigma flips sign and gains the exponential factor
    lhs = sigma_w(z + 2 * lat.w1, inv)
    rhs = -sigma_w(z, inv) * np.exp(2 * lat.eta1 * (z + lat.w1))
    assert abs(lhs - rhs) < 1e-9 * abs(lhs)


@pytest.mark.parametrize("name", ["bounded-oscillation", "one-real-root"])
def test_weierstrass_matches_single_kernels(name):
    inv = FAMILIES[name]
    z = np.linspace(0.1, 5.0, 40) + 0.3j
    fused = el.weierstrass(z, inv)
    single = (el.wp(z, inv), wp_prime(z, inv), zeta_w(z, inv), log_sigma_w(z, inv))
    for a, b in zip(fused, single):
        assert np.array_equal(a, b)
    scalar = el.weierstrass(0.7 + 0.2j, inv)
    assert all(type(v) is complex for v in scalar)
    assert scalar[0] == el.wp(0.7 + 0.2j, inv)


def _per_term_bundle(u, tau):
    """The per-term sin/cos theta series the rotation recurrence replaced."""
    t0 = np.zeros_like(u, dtype=complex)
    t1 = np.zeros_like(t0)
    t2 = np.zeros_like(t0)
    t3 = np.zeros_like(t0)
    for n in range(el._THETA_TERMS):
        w = 2 * n + 1
        coef = (-1.0) ** n * np.exp(1j * np.pi * tau * (n + 0.5) ** 2)
        s = np.sin(w * u)
        c = np.cos(w * u)
        t0 += coef * s
        t1 += coef * w * c
        t2 -= coef * w * w * s
        t3 -= coef * w * w * w * c
    return 2.0 * t0, 2.0 * t1, 2.0 * t2, 2.0 * t3


@pytest.mark.parametrize("re_tau", [0.0, 0.5], ids=["rectangular", "rhombic"])
def test_rotation_recurrence_matches_per_term_series(re_tau, rng):
    """Over the whole reduced cell, edges and corners included, and for 0-d
    and 1-d arguments.  The error is measured against the term-magnitude
    scale sum_n |c_n| (2n+1)^k |e^(+-i(2n+1)u)|, since theta1 itself vanishes
    at lattice points.  Each power takes at most 7 roundings, and the old
    series rounds the argument (2n+1)u; 16 eps leaves room for both.  The
    first tau's points are repeated past a ``_BLOCK`` boundary."""
    eps = np.finfo(float).eps
    n = np.arange(el._THETA_TERMS)
    w = 2 * n + 1
    edge = np.array([-0.5, 0.5, 0.0])
    cases = []
    for im_tau in np.concatenate([[0.5], rng.uniform(0.5, 3.0, 20)]):  # |q| up to exp(-pi/2)
        tau = complex(re_tau, im_tau)
        a = np.concatenate([rng.uniform(-0.5, 0.5, 200), np.repeat(edge, 3)])
        b = np.concatenate([rng.uniform(-0.5, 0.5, 200), np.tile(edge, 3)])
        u = np.pi * (a + b * tau)  # reduced z = (a 2W1 + b 2W3) in u = pi z / (2 W1)
        cases.append((u, np.full(u.shape, tau), el._theta_coefficients(tau)))
    u, tau, coef = cases[0]
    cases.append((np.tile(u, el._BLOCK // len(u) + 2), np.tile(tau, el._BLOCK // len(u) + 2), coef))
    for u, tau, coef in cases:
        got = el._theta1_bundle(u, coef)
        want = _per_term_bundle(u, tau)
        mag = np.abs(np.exp(1j * w * u[:, None])) + np.abs(np.exp(-1j * w * u[:, None]))
        c = 2.0 * np.abs(np.exp(1j * np.pi * tau[:, None] * (n + 0.5) ** 2))
        for k in range(4):
            scale = (c * w**k * mag).sum(axis=1)
            assert np.all(np.abs(got[k] - want[k]) <= 16 * eps * scale)
        for i in (0, len(u) - 1):  # a 0-d argument takes the same loops
            one = el._theta1_bundle(np.array(u[i]), coef)
            assert one.shape == (4,) and np.array_equal(one, got[:, i])


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_weierstrass_scalar_bits_equal_array_bits(name, rng):
    inv = FAMILIES[name]
    lat = el.half_periods(inv)
    npts = 2 * el._BLOCK + 5  # three blocks of the theta series
    z = lat.w1 * (rng.uniform(-3.0, 3.0, npts) + 1j * rng.uniform(-3.0, 3.0, npts))
    arrays = el.weierstrass(z, inv)
    picks = np.concatenate([rng.integers(0, npts, 20), [0, el._BLOCK - 1, el._BLOCK, npts - 1]])
    for i in picks:
        assert el.weierstrass(complex(z[i]), inv) == tuple(complex(v[i]) for v in arrays)


def test_theta_evaluations_per_lattice(monkeypatch):
    from affine_elastica import synthesis as sy

    calls, builds = [], []
    bundle = el._theta1_bundle
    monkeypatch.setattr(el, "_theta1_bundle", lambda u, coef: calls.append(u) or bundle(u, coef))
    post_init = el.Invariants.__post_init__
    monkeypatch.setattr(el.Invariants, "__post_init__", lambda self: builds.append(self) or post_init(self))
    el._frame_cached.cache_clear()
    el.half_periods(el.invariants_from_qQ(1.0, 2.5))  # a new lattice: one evaluation, the check
    assert len(calls) == 1 and len(builds) == 1
    assert el._frame_cached.cache_info().currsize == 1
    el.half_periods(el.invariants_from_qQ(1.0, 2.5))
    assert len(calls) == 1
    # the closure quantity builds no frame, for a float or an array of new Q
    sy.closure_lhs_with_d(2.6)
    sy.closure_lhs_with_d(np.linspace(2.6, 9.0, 80))
    assert len(calls) == 1
    assert el._frame_cached.cache_info().currsize == 1


@pytest.mark.parametrize(
    "g2, g3",
    [(np.array(1.3), np.array(0.2)), (np.float64(1.3), np.float64(0.2)), (1, 0)],
    ids=["0d-array", "float64", "int"],
)
def test_kernel_accepts_numeric_invariant_types(g2, g3):
    inv, ref = el.Invariants(g2, g3), el.Invariants(float(g2), float(g3))
    assert el.half_periods(inv) == el.half_periods(ref)
    assert el.wp(0.3 + 0.1j, inv) == el.wp(0.3 + 0.1j, ref)


def _decimal_roots(g2: float, g3: float, guess) -> list:
    """Roots of 4 t^3 - g2 t - g3 at 40 digits, as (real, imag) pairs in the
    order of ``cubic_roots``: each real root refined from ``guess`` by
    Newton's method, the complex pair from the real root by Vieta's formulas
    (sum 0, pairwise sum -g2/4)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, b = Decimal(g2), Decimal(g3)
        tiny = Decimal(max(abs(z) for z in guess)) * Decimal("1e-37")

        def newton(t):
            t = Decimal(t)
            for _ in range(100):
                fp = 12 * t * t - a
                step = (4 * t * t * t - a * t - b) / fp if fp else Decimal(0)
                t -= step
                if abs(step) <= tiny:
                    return t
            raise AssertionError(f"no convergence for g2={g2!r}, g3={g3!r}")

        if g2**3 - 27.0 * g3**2 > 0.0:
            e1, e2, e3 = (newton(z.real) for z in guess)
            c = (a / 12).sqrt()  # the critical points +-c separate the three roots
            assert e1 > c > e2 > -c > e3, (g2, g3)
            return [(e1, 0), (e2, 0), (e3, 0)]
        r = newton(guess[1].real)
        b2 = (3 * r * r - a) / 4
        im = b2.sqrt() if b2 > 0 else Decimal(0)
        return [(-r / 2, im), (r, 0), (-r / 2, -im)]


def _root_error(got, ref) -> float:
    """max_k |got_k - ref_k| over max_k |ref_k|, at 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        size = max((x * x + y * y).sqrt() for x, y in ref)
        dist = max(((Decimal(z.real) - x) ** 2 + (Decimal(z.imag) - y) ** 2).sqrt() for z, (x, y) in zip(got, ref))
        return float(dist / size)


def _cubic_draws(rng) -> list:
    """Seeded (g2, g3): q = 1 lattices, both discriminant signs over 17 decades
    of scale, g3 = 0 with either sign of g2, and near-degenerate lattices
    (3 E^2, E^3 (1 + d)) with |d| from 1e-6 to 1e-3."""
    draws = []
    for Q in np.exp(rng.uniform(np.log(1.001), np.log(1000.0), 300)).tolist():
        draws.append(((1.0 + Q * Q + Q) / 9.0, (Q + Q * Q) / 54.0))
    for _ in range(300):
        s, sign2, sign3 = np.exp(rng.uniform(-10.0, 10.0)), rng.choice([-1.0, 1.0]), rng.choice([-1.0, 1.0])
        draws.append((float(sign2 * s**4 * rng.uniform(0.0, 3.0)), float(sign3 * s**6 * rng.uniform(0.0, 3.0))))
    for _ in range(50):
        draws.append((float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(-10.0, 10.0))), 0.0))
    for _ in range(200):
        E = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(-5.0, 5.0)))
        d = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -3.0))
        draws.append((3.0 * E * E, E**3 * (1.0 + d)))
    return [(p, q) for p, q in draws if el._discriminant(p, q) != 0.0]


def test_cubic_roots_against_decimal_oracle(rng):
    draws = _cubic_draws(rng)
    g2, g3 = (np.array(v) for v in zip(*draws))
    assert np.count_nonzero(g2 < 0) > 100 and np.count_nonzero(g3 == 0) > 40
    assert np.count_nonzero(el._discriminant(g2, g3) < 0) > 200
    errors = []
    for p, q in draws:
        row = el.cubic_roots(p, q)
        errors.append(_root_error(row, _decimal_roots(p, q, row)))
    assert max(errors) <= 1e-13


def test_array_roots_have_the_scalar_bits(rng):
    """The array form of the trigonometric roots, on the oracle's draws with
    three real roots: near-degenerate lattices, g3 = 0 and both signs of g3."""
    g2, g3 = (np.array(v) for v in zip(*[(p, q) for p, q in _cubic_draws(rng) if el._discriminant(p, q) > 0.0]))
    assert np.count_nonzero(g3 > 0) > 50 and np.count_nonzero(g3 < 0) > 50 and np.count_nonzero(g3 == 0) > 20
    want = np.array([el.cubic_roots(p, q) for p, q in zip(g2, g3)])
    assert np.count_nonzero(want.imag) == 0
    assert el._real_cubic_roots(g2, g3).tobytes() == want.real.tobytes()


def test_cubic_roots_scale_covariant(rng):
    """(l^4 g2, l^6 g3) has the roots l^2 e_k: to twice the oracle bound,
    one for each side, since the scaled invariants are rounded too."""
    draws = _cubic_draws(rng)
    lam2 = np.exp(rng.uniform(-5.0, 5.0, len(draws))).tolist()
    for (g2, g3), l2 in zip(draws, lam2):
        e, scaled = el.cubic_roots(g2, g3), el.cubic_roots(l2**2 * g2, l2**3 * g3)
        assert np.max(np.abs(scaled / l2 - e)) <= 2e-13 * np.max(np.abs(e))


def test_degenerate_discriminant_rejected():
    with pytest.raises(DegenerateDiscriminant):
        el.half_periods(el.invariants_from_qQ(1.0, 1.0 + 1e-9))
    with pytest.raises(DegenerateDiscriminant):
        el.half_periods(el.Invariants(3.0 * 0.25, -0.125))  # E = -1/2 double root


@pytest.mark.parametrize("name", ["bounded-oscillation", "one-real-root"])
def test_near_pole_raises(name):
    inv = FAMILIES[name]
    lat = el.half_periods(inv)
    with pytest.raises(NearPole):
        el.wp(1e-8, inv)
    with pytest.raises(NearPole):
        zeta_w(2 * lat.w1 + 1e-9, inv)
    # a far lattice translate: the reduced argument alone decides
    p1, p2 = lattice_points_basis(inv)
    far = 17 * p1 - 9 * p2
    tol = el.POLE_RTOL * lat.w1
    with pytest.raises(NearPole):
        el.wp(far + 0.5 * tol * np.exp(0.3j), inv)
    assert np.isfinite(el.wp(far + 2.0 * tol * np.exp(0.3j), inv))
    # sigma is entire: no error at the lattice
    assert abs(sigma_w(0.0, inv)) < 1e-12


def test_invariants_from_qQ_examples():
    inv = el.invariants_from_qQ(1.0, 1.0 + 1e-12)
    assert inv.g2 == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert inv.g3 == pytest.approx(1.0 / 27.0, rel=1e-9)
    assert inv.is_degenerate
    inv = el.invariants_from_qQ(-1.0, 6.0)
    assert inv.g2 > 0 and inv.g3 < 0
    with pytest.raises(ValueError):
        el.invariants_from_qQ(2.0, 1.0)


def test_invariants_from_Ptau_examples():
    inv = el.invariants_from_Ptau(0.0, 1.0)
    assert inv.g2 == pytest.approx(-1.0 / 9.0)
    assert inv.g3 == 0.0
    inv = el.invariants_from_Ptau(1.0, np.sqrt(3.0) / 2.0)
    assert abs(inv.g2) < 1e-15
    inv = el.invariants_from_Ptau(-1.0, 8.0)
    assert inv.discriminant < 0
    with pytest.raises(ValueError):
        el.invariants_from_Ptau(1.0, -1.0)
