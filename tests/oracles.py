"""Test-only oracles: closed forms, quadratures, reconstructions and the
diagnostics that the tests compare the package against.

No command or library path needs these; each is the reference for a claim
the tests make: the single wp', sigma and log sigma kernels, the case
families' closed-form curvature, the non-periodicity bracket of the
negative-minimum family, the A2 arcs, the canonical origin of a critical
curve, the integral functionals, the criticality residual of a general
integral of F(kappa), the sextactic count, the full-affine arc-length and
curvature of a curve and the curve rebuilt from its full-affine curvature,
the two differential forms of the full-affine Euler-Lagrange equation, the
congruence arc-length, the SL(2) geodesics, the normal form of a case,
the open-arc derivative filter assembled as one (window, window) matrix
and 50-digit values of the closure quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from affine_elastica import curvature as cv
from affine_elastica import elliptic as el
from affine_elastica import fullaffine as fa
from affine_elastica import synthesis as sy
from affine_elastica._numerics import (
    _fit_derivative,
    _fit_projector,
    cumulative_uniform,
    diff_samples,
    filter_window,
    resample_uniform,
    trusted_interior,
)
from affine_elastica.classifier import Branch, Case, CaseLabel, classify
from affine_elastica.elliptic import Invariants, half_periods, invariants_from_qQ
from affine_elastica.errors import DegenerateDiscriminant, DomainError, NoSuchC, NonConvex, SynthesisError


class NotCritical(DomainError):
    """Curve does not satisfy kappa'' + kappa^2 = const to tolerance."""


class ZeroC(DomainError):
    """The fitted constant C is too close to zero for the requested step."""


class NegativeCurvature(DomainError):
    """Operation requires strictly positive equi-affine curvature."""


class BlowUp(SynthesisError):
    """Curvature blew up inside the requested integration range."""


def integrate_samples(vals: np.ndarray, h: float, periodic: bool = False) -> float:
    """Definite integral of uniform samples (periodic: spectral trapezoid)."""
    if periodic:
        return float(h * np.sum(vals))
    return float(cumulative_uniform(vals, h)[-1])


# ---------------------------------------------------------------------------
# elliptic: the single kernels, by the formulas and theta evaluation of ``weierstrass``


def zeta_w(z, inv: Invariants):
    """Weierstrass zeta(z; g2, g3) with the quasi-period of this lattice."""
    return el._evaluate(el._zeta, z, inv, "zeta_w")


def wp_prime(z, inv: Invariants):
    """Derivative wp'(z; g2, g3)."""
    return el._evaluate(el._wp_prime, z, inv, "wp_prime")


def log_sigma_w(z, inv: Invariants):
    """A logarithm of sigma(z); exp of differences of this is branch-safe.

    Useful because sigma itself overflows for moderately large |z| while
    ratios of sigmas stay bounded.
    """
    return el._evaluate(el._log_sigma, z, inv, None)


def sigma_w(z, inv: Invariants):
    """Weierstrass sigma(z; g2, g3).  Entire; may overflow for large |z|."""
    return el._evaluate(lambda *st: np.exp(el._log_sigma(*st)), z, inv, None)


# ---------------------------------------------------------------------------
# synthesis


def analytic_kappa(label: CaseLabel, s: np.ndarray) -> np.ndarray:
    """Closed-form curvature of the case family on the given grid."""
    return sy._family(label).kappa(np.asarray(s, dtype=float))


def length_constrained_kappa(A: float, g3: float, c0, s) -> np.ndarray:
    """Closed-form curvature -6 wp(s - c0) + A/2 of the constrained family."""
    return sy._length_constrained_family(A, g3, c0).kappa(np.asarray(s, dtype=float))


def a3_nonperiodicity(Q: float) -> float:
    """Non-periodicity bracket for the negative-minimum family (q = -1).

    Evaluates w1 sqrt(-g3/g2) - zeta(w1) d + w1 zeta(w2 + d) - w1 zeta(w2)
    with wp(w2 + d) = -g3/g2.  This quantity is real; a nonzero value rules
    out closed curves in this family because after multiplication by 2i/pi
    it is the imaginary part the closure quantity acquires (the coordinate
    multiplier leaves the unit circle).  The square root takes the
    principal branch; only non-vanishing is meaningful.
    """
    if not Q > 2.0:
        raise ValueError("the q = -1 normalization requires Q > 2")
    inv = invariants_from_qQ(-1.0, Q)
    lat = half_periods(inv)
    v = -inv.g3 / inv.g2
    c = sy.lame_parameter_c(inv)
    if abs(c.imag - lat.w2_im) > 1e-9 * lat.w2_im:
        raise NoSuchC("expected c on the horizontal segment through w2")
    d = c.real
    w2 = 1j * lat.w2_im
    zeta_w2d, zeta_w2 = zeta_w(np.array([w2 + d, w2]), inv).tolist()  # one theta evaluation
    val = lat.w1 * np.sqrt(v) - lat.eta1 * d + lat.w1 * zeta_w2d - lat.w1 * zeta_w2
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise NoSuchC("non-periodicity bracket is not real to rounding")
    return float(val.real)


#: (Q, closure_lhs(Q)) to 50 digits at the 36 geometric Q of np.geomspace(1.9,
#: 1e8, 36) and at Q = 1.001, for q = 1 and the exact invariants of the double
#: Q.  Made with mpmath 1.3 at 60 digits, from the trigonometric roots (its
#: polyroots does not converge above Q ~ 1e4) and theta functions:
#:
#:     g2, g3 = (1 + Q + Q * Q) / 9, (Q + Q * Q) / 54
#:     rad = mp.sqrt(g2 / 3)
#:     phi = mp.acos(3 * g3 / (g2 * rad)) / 3
#:     e1, e2, e3 = (rad * mp.cos(phi - k * 2 * mp.pi / 3) for k in (0, 1, -1))
#:     m, r = (e2 - e3) / (e1 - e3), mp.sqrt(e1 - e3)
#:     w1, w3 = mp.ellipk(m) / r, 1j * mp.ellipk(1 - m) / r
#:     theta = lambda z, k=0: mp.jtheta(1, z, mp.exp(1j * mp.pi * w3 / w1), k)
#:     eta1 = -mp.pi**2 * theta(0, 3) / (12 * w1 * theta(0, 1))
#:     v = -g3 / g2
#:     c = w1 + 1j * mp.sqrt(e1 - v) * mp.elliprf((e1 - e2) * (e1 - e3), (e1 - e2) * (v - e3), (e1 - e3) * (v - e2))
#:     u = mp.pi * c / (2 * w1)
#:     mu = mp.sqrt(mp.mpc(v)) - eta1 * c / w1 - mp.pi * theta(u, 1) / (2 * w1 * theta(u))
#:     lhs = (2j / mp.pi * (-mu * w1 - eta1 * c)).real
CLOSURE_LHS_REFERENCE = [
    (1.9, "1.3938620793971167191837582461835979800694346133772"),
    (3.1576256475735964, "1.3544168244973331341125138883460955504158000897498"),
    (5.247684068533986, "1.3044108934041953064671143841708741098002811548077"),
    (8.721169371140146, "1.2525526661977806126614804678096211806499897302832"),
    (14.493783201655482, "1.2045234543717890043414949510126810543594204372081"),
    (24.08733766732564, "1.1629876069584876062902760736337707437507057737374"),
    (40.030944842164736, "1.128553632236795011559051559466072846904425465664"),
    (66.52775691064386, "1.1007404169806883733953448443458784851037449029613"),
    (110.56302710346878, "1.0786299511489657142944984135641629372054753306374"),
    (183.74560529225676, "1.0612225693165572503950656437762824361755051376644"),
    (305.3683346840868, "1.0475982136080186904029737475002607213729267238846"),
    (507.4941502922682, "1.0369725754808766155113247734899274518024635029819"),
    (843.4087078718085, "1.0287033919168115528719916587368172259065009028902"),
    (1401.6678775594369, "1.0222763846969779920283288441818024901254621972981"),
    (2329.443389243012, "1.0172850494501587255470295326411796530733881350677"),
    (3871.321152865527, "1.0134105013347019816529799774776114852471788709268"),
    (6433.780506464408, "1.0104037134097166207267494990085611759275756037217"),
    (10692.352809511087, "1.0080707347775510019822365280979072112217957067232"),
    (17769.70919169359, "1.0062607524837874689969639572150053046633445486802"),
    (29531.62604927157, "1.0048566100176559125587404521406267610369117997293"),
    (49078.85254091182, "1.0037673490422611521319797603702321351589092267152"),
    (81564.54922982394, "1.0029223756358126504953821987960149705638299197033"),
    (135552.79609519546, "1.0022669124331590898379788001238540084558317819345"),
    (225276.30818447546, "1.0017584602835943597784845253554512154464349518354"),
    (374388.55184947036, "1.0013640486176399731383093774498681662865696154726"),
    (622199.417619908, "1.0010581002445336377193400200664408701098347142636"),
    (1034038.3363063039, "1.0008207739922798874654832643910624288707035953212"),
    (1718476.8269974305, "1.0006366785846656907405063362920058470537843743949"),
    (2855950.791414722, "1.0004938747556720130224216292872878040715799932031"),
    (4746328.140620653, "1.0003831010756945725258863568181491654530042468699"),
    (7887961.825591619, "1.0002971733702848826073234316064821591748244844011"),
    (13109068.719773449, "1.0002305188226065371427144596164697300008693627864"),
    (21786069.2659797, "1.0001788145633751211483138146786042889340535464912"),
    (36206447.93372232, "1.0001387073181589328725358253168074633340368837548"),
    (60171794.00161035, "1.0001075959340260083020445807217832452303632306114"),
    (100000000.0, "1.0000834626832913358253675667064666020216225446419"),
    (1.001, "1.4142135108647437082304322558984119635099577004482"),
]


def synthesize_arcs(label: CaseLabel, n_arcs: int = 3) -> list[cv.CurveSamples]:
    """Consecutive smooth arcs of a square-root-line family curve.

    The curvature of these families (minimum curvature zero, bounded
    oscillation) vanishes at odd multiples of the real half-period; the
    position formula flips sign there, so each smooth arc is emitted
    separately with alternating sign, matching the ``sign_flip_at_poles``
    convention recorded in the metadata, and numbered by ``arc_index``.  Arc
    ell spans 2000 samples over [(2 ell - 1) w1, (2 ell + 1) w1], less
    0.08 w1 at each end.
    """
    if label.tag is not Case.A2:
        raise ValueError("multi-arc synthesis applies to the zero-minimum family")
    f = sy._family(label)
    w1 = f.lat.w1
    arcs = []
    for ell in range(n_arcs):
        lo = (2 * ell - 1) * w1 + 0.08 * w1
        hi = (2 * ell + 1) * w1 - 0.08 * w1
        arc = sy._sample(f, (lo, hi), 2000)
        arc.meta["arc_index"] = ell
        sign = -1.0 if ell % 2 else 1.0
        arcs.append(cv.CurveSamples(arc.s, sign * arc.x, sign * arc.y, closed=False, meta=arc.meta))
    return arcs


# ---------------------------------------------------------------------------
# curvature


@dataclass
class Functionals:
    length: float
    total_curvature: float
    area: float
    full_affine_length: float | None


def functionals(c: cv.CurveSamples, full_affine: bool = True) -> Functionals:
    """Arc-length, total curvature, bounded area and full-affine length.

    Area uses the shoelace rule on the samples (closed curves only).  The
    full-affine length integrates sqrt(kappa) and raises NegativeCurvature
    when min kappa <= 0 (pass full_affine=False to skip it).
    """
    fr = cv.frame_and_curvature(c)
    h = c.h
    if c.closed:
        length = float(c.period)
        total = integrate_samples(fr.kappa, h, periodic=True)
        x, y = c.x, c.y
        area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    else:
        length = float(c.s[-1] - c.s[0])
        total = integrate_samples(fr.kappa, h)
        area = float("nan")
    fal: float | None = None
    if full_affine:
        if np.min(fr.kappa) <= 0.0:
            raise NegativeCurvature("full-affine length needs kappa > 0")
        fal = integrate_samples(np.sqrt(fr.kappa), h, periodic=c.closed)
    return Functionals(length=length, total_curvature=total, area=area, full_affine_length=fal)


def translate_to_canonical(c: cv.CurveSamples) -> np.ndarray:
    """Origin that turns the support function into kappa / C.

    Requires kappa'' + kappa^2 = C with C != 0 to tolerance; the returned
    origin makes the constant field kappa N - kappa' T equal to -C P.  Both
    checks are unit-free: NotCritical when the fit's relative residual
    exceeds 1e-4, ZeroC when |C| is below 1e-8 of ``_kappa2_scale``.
    """
    kappa, k1, k2 = cv._kappa_derivs(c)
    fit = cv.el_residual_area_constrained(c)
    if fit.relative > 1e-4:
        raise NotCritical(
            f"kappa'' + kappa^2 is not constant (relative rms residual {fit.relative:.3e})"
        )
    if abs(fit.C) < 1e-8 * cv._kappa2_scale(c):
        raise ZeroC("fitted constant C is numerically zero")
    fr = cv.frame_and_curvature(c)
    M = kappa[:, None] * fr.N - k1[:, None] * fr.T
    cand = c.points() + M / fit.C
    sel = c.interior()
    return np.array([np.mean(cand[sel, 0]), np.mean(cand[sel, 1])])


def el_residual_general(c: cv.CurveSamples, F, dF=None, d2F=None, d3F=None):
    """Criticality residual for the functional integral of F(kappa) ds.

    Computes G = F'''(kappa) kappa'^2 + F''(kappa) kappa'' + 4 F'(kappa) kappa
    - 2 F(kappa) and fits G ~ A x' + B y'.  Returns (A, B, rms residual);
    the residual vanishes exactly on critical curves.

    Each derivative of F not given is a central difference of F.
    """
    kappa, k1, k2 = cv._kappa_derivs(c)
    step = 1e-4 * max(1.0, float(np.max(np.abs(kappa))))

    def _num(fun, k, m):
        if m == 1:
            return (fun(k + step) - fun(k - step)) / (2 * step)
        if m == 2:
            return (fun(k + step) - 2 * fun(k) + fun(k - step)) / step**2
        return (
            fun(k + 2 * step) - 2 * fun(k + step) + 2 * fun(k - step) - fun(k - 2 * step)
        ) / (2 * step**3)

    dFv, d2Fv, d3Fv = (_num(F, kappa, m) if fn is None else fn(kappa)
                       for m, fn in ((1, dF), (2, d2F), (3, d3F)))
    G = d3Fv * k1**2 + d2Fv * k2 + 4.0 * dFv * kappa - 2.0 * F(kappa)
    d = cv._derivs(c)
    coef, rms, _ = cv._lstsq_fit(G, [d[1][:, 0], d[1][:, 1]], c.interior())
    return float(coef[0]), float(coef[1]), rms


def sextactic_sign_changes(c: cv.CurveSamples) -> int:
    """Number of sign changes of kappa' around a closed curve."""
    if not c.closed:
        raise ValueError("sextactic count is defined for closed curves")
    _, k1, _ = cv._kappa_derivs(c)
    scale = float(np.max(np.abs(k1)))
    if scale == 0.0:
        return 0
    sig = np.sign(k1[np.abs(k1) > 1e-8 * scale])
    if len(sig) == 0:
        return 0
    return int(np.sum(sig != np.roll(sig, 1)))


# ---------------------------------------------------------------------------
# full-affine


@dataclass
class FullAffineData:
    """Full-affine arc-length grid and curvature along a convex curve.

    A closed curve's s_F holds no wrap node; ``period`` is the s_F length of
    one turn, which a non-uniform closed grid needs to be resampled.
    """

    s_F: np.ndarray
    kappa_F: np.ndarray
    closed: bool = False
    period: float | None = None


def full_affine_invariants(c: cv.CurveSamples) -> FullAffineData:
    """Cumulative full-affine arc-length and pointwise full-affine curvature."""
    kappa, kappa_F = fa._convex_kappa_F(c, slice(None))
    root = np.sqrt(kappa)
    if not c.closed:
        return FullAffineData(s_F=cumulative_uniform(root, c.h), kappa_F=kappa_F)
    # over the periodic extension the 4-point rule sums to the periodic
    # trapezoid h sum(sqrt(kappa)), the s_F of the wrap node
    s_F = cumulative_uniform(np.concatenate([root, root[:3]]), c.h)[: c.n + 1]
    return FullAffineData(s_F=s_F[:-1], kappa_F=kappa_F, closed=True, period=float(s_F[-1]))


def curve_from_full_affine_curvature(
    kF, s_range=(-3.0, 3.0), n: int = 4001, kappa_cap: float = 1.0e6
) -> cv.CurveSamples:
    """Reconstruct a curve whose full-affine curvature is the given function.

    ``kF`` maps full-affine arc-length to curvature.  Integrates the
    coupled system kappa' = 2 kappa^(3/2) kF(s_F), s_F' = sqrt(kappa) and
    the frame equations with the gauge kappa(0) = 1, gamma(0) = 0 and the
    standard frame at s = 0.  Raises BlowUp (reporting the reached s) if
    kappa leaves [1/cap, cap] inside the range.
    """
    from scipy.integrate import solve_ivp

    def rhs(s, u):
        kappa, sF, x, y, tx, ty, nx, ny = u
        rk = np.sqrt(kappa)
        return [
            2.0 * kappa * rk * kF(sF),
            rk,
            tx,
            ty,
            nx,
            ny,
            -kappa * tx,
            -kappa * ty,
        ]

    def blow(s, u):
        return np.log(max(u[0], 1e-300) / 1.0) ** 2 - np.log(kappa_cap) ** 2

    blow.terminal = True

    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if not s_lo <= 0.0 <= s_hi:
        raise ValueError("the range must contain the gauge point s = 0")
    s = np.linspace(s_lo, s_hi, n)
    u0 = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]
    out = np.empty((8, n))
    span = s_hi - s_lo
    for side in (-1, 1):
        mask = s < 0 if side < 0 else s >= 0
        if not np.any(mask):
            continue
        t_eval = s[mask][::-1] if side < 0 else s[mask]
        t_end = s_lo if side < 0 else s_hi
        sol = solve_ivp(
            rhs,
            (0.0, t_end),
            u0,
            t_eval=t_eval,
            rtol=1e-13,
            atol=1e-15,
            # small steps keep the dense-output seams below the rounding
            # floor; downstream derivative filters see smooth samples
            max_step=max(span / 1000.0, 1e-3),
            method="DOP853",
            events=blow,
        )
        if sol.status == 1:
            raise BlowUp(f"curvature left the admissible range near s = {sol.t[-1]:.6g}")
        out[:, mask] = sol.y[:, ::-1] if side < 0 else sol.y
    cs = cv.CurveSamples(s, out[2], out[3], closed=False)
    cs.meta["kappa0"] = 1.0
    # verification window sized by the distance to the curvature blow-up,
    # estimated from the endpoint data: kappa ~ (kF_inf (s* - s))^-2
    kmax = float(np.max(out[0]))
    kf_end = max(abs(float(kF(out[1, 0]))), abs(float(kF(out[1, -1]))), 1e-9)
    rho = min(1.0 / (kf_end * np.sqrt(kmax)), span / 3.0)
    cs.meta["fd_window"] = filter_window(rho, float(s[1] - s[0]))
    return cs


def el_residual_sqrt_differential(c: cv.CurveSamples) -> float:
    """RMS of (kappa_F)''' + kappa (kappa_F)' on the trusted interior.

    The differential form of the equation whose exact first integral
    ``fa.el_residual_sqrt`` fits; kappa_F''' is four filtered derivative
    orders deep.  Raises NonConvex unless kappa > 0 on every node, since the
    filter reads an open arc's ends too.
    """
    kappa, kF = fa._convex_kappa_F(c, slice(None))
    win = c.meta.get("fd_window")
    kF1, kF3 = diff_samples(kF, c.h, (1, 3), periodic=c.closed, window=win)
    res = kF3 + kappa * kF1
    return float(np.sqrt(np.mean(res[c.interior()] ** 2)))


def el_residual_full_affine_form(fd: FullAffineData, window: int | None = None) -> float:
    """RMS residual of the criticality equation written in full-affine data.

    The equation is d3k/dsF3 + 3 k d2k/dsF2 + (dk/dsF)^2 + (2 k^2 + 1)
    dk/dsF = 0 with k = kappa_F and derivatives taken with respect to the
    full-affine arc-length.  A non-uniform s_F grid is first resampled to
    as many uniform nodes by ``resample_uniform``: over [s_F[0], s_F[-1]],
    or periodically over one period when closed.
    """
    sF = np.asarray(fd.s_F, float)
    kF = np.asarray(fd.kappa_F, float)
    hs = np.diff(sF)
    if not np.allclose(hs, hs[0], rtol=1e-9, atol=1e-12 * max(abs(hs[0]), 1e-300)):
        if fd.closed and fd.period is None:
            raise ValueError("a closed non-uniform s_F grid needs its period")
        nodes = np.append(sF, sF[0] + fd.period) if fd.closed else sF
        sF, kF = resample_uniform(nodes, kF, len(kF), periodic=fd.closed)
    d1, d2, d3 = diff_samples(kF, float(sF[1] - sF[0]), (1, 2, 3), periodic=fd.closed, window=window)
    res = d3 + 3.0 * kF * d2 + d1**2 + (2.0 * kF**2 + 1.0) * d1
    sel = trusted_interior(len(kF), fd.closed, window)
    return float(np.sqrt(np.mean(res[sel] ** 2)))


def congruence_arclength(c: cv.CurveSamples) -> float:
    """Pseudo-Riemannian length of the SL(2) part of the parabola congruence.

    Differentiates the congruence entries numerically, integrates
    sqrt(|-det(dP/ds)|) over the trusted nodes and raises NonConvex if the
    causal character of the velocity changes along the way (the velocity is
    time-like where kappa > 0 and space-like where kappa < 0).
    """
    path = fa.congruence_path(c)
    win = c.meta.get("fd_window")
    dmats = np.empty_like(path.mats)
    for r in range(2):
        for cc in range(2):
            dmats[:, r, cc] = diff_samples(
                path.mats[:, r, cc], c.h, 1, periodic=c.closed, window=win
            )
    minus_det = -(dmats[:, 0, 0] * dmats[:, 1, 1] - dmats[:, 0, 1] * dmats[:, 1, 0])
    sel = c.interior()
    vals = minus_det[sel]
    scale = float(np.max(np.abs(vals)))
    signs = np.sign(vals[np.abs(vals) > 1e-9 * scale])
    if len(signs) and np.any(signs != signs[0]):
        raise NonConvex("congruence velocity changes causal character")
    return integrate_samples(np.sqrt(np.abs(vals)), c.h, periodic=c.closed)


_SL2_DIRS = {
    "e1": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "e2": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "e3": np.array([[0.0, 1.0], [-1.0, 0.0]]),
}


def sl2_geodesic(v, t: float) -> np.ndarray:
    """Geodesic exp(t v) of the -det metric from the identity.

    ``v`` is "e1", "e2", "e3" or any traceless 2x2 array.  The closed-form
    exponential is hyperbolic for det v < 0, trigonometric for det v > 0
    and linear for det v = 0; the speed g(v, v) = -det v is constant along
    the geodesic.
    """
    if isinstance(v, str):
        v = _SL2_DIRS[v]
    v = np.asarray(v, dtype=float)
    if abs(v[0, 0] + v[1, 1]) > 1e-12 * max(1.0, float(np.max(np.abs(v)))):
        raise ValueError("direction must be traceless")
    D = float(np.linalg.det(v))
    if D < 0:
        th = np.sqrt(-D)
        return np.cosh(th * t) * np.eye(2) + np.sinh(th * t) / th * v
    if D > 0:
        th = np.sqrt(D)
        return np.cos(th * t) * np.eye(2) + (np.sin(th * t) / th if th else t) * v
    return np.eye(2) + t * v


# ---------------------------------------------------------------------------
# classifier


# families whose curvature follows the bounded oval of the cubic
_CLOSED_FAMILIES = {Case.A1, Case.A2, Case.A3, Case.Ellipse, Case.Dc}


def _scaled_invariants(g2: float, g3: float, lam: float) -> tuple[float, float]:
    return g2 * lam**4, g3 * lam**6


#: lam^2 of the equi-affine rescaling to each case's normal form, from its params
_NORMAL_FORM_LAM2 = {
    Case.A1: lambda p: 1.0 / p["q"],
    Case.A2: lambda p: 1.0 / p["Q"],
    Case.A3: lambda p: -1.0 / p["q"],
    **dict.fromkeys((Case.B1, Case.B2, Case.B3), lambda p: -1.0 / p["P"]),
    **dict.fromkeys((Case.C1, Case.C2, Case.C4, Case.C5), lambda p: 1.0 / abs(p["P"])),
    Case.C3: lambda p: 1.0 / p["tau"],
    **dict.fromkeys((Case.Da, Case.Dc, Case.E_case), lambda p: 1.0 / abs(p["E"])),
    Case.Ellipse: lambda p: 1.0 / (3.0 * p["E"]),
    Case.F: lambda p: abs(p["g3"]) ** (-1.0 / 3.0),
    Case.G: lambda p: 1.0,
}


def rescale_to_normal_form(label: CaseLabel) -> tuple[float, CaseLabel]:
    """Equi-affine rescaling factor lam and the normalized label.

    The rescaling acts as kappa -> lam^2 kappa, s -> s / lam, so
    g2 -> lam^4 g2 and g3 -> lam^6 g3.  Normal forms: q = 1 (A1), Q = 1
    (A2), q = -1 (A3), P = -1 (B), P in {1, 0, -1} with tau = 1 when P = 0
    (C), E = +-1 (D/E), g3 = +-1 (F), kappa = 1 (ellipse); G is scale
    invariant.
    """
    tag = label.tag
    lam2 = _NORMAL_FORM_LAM2[tag](label.params)
    if lam2 <= 0:
        raise DegenerateDiscriminant("cannot normalize a vanishing case parameter")
    lam = float(np.sqrt(lam2))
    g2n, g3n = _scaled_invariants(label.g2, label.g3, lam)
    branch = Branch.closed_branch if tag in _CLOSED_FAMILIES else Branch.open_branch
    normalized = classify(Invariants(g2n, g3n), branch)
    return lam, normalized


# ---------------------------------------------------------------------------
# open-arc derivative filter


def smooth_weights(window: int, degree: int, order: int) -> np.ndarray:
    """The Savitzky-Golay matrix W = D @ P that ``diff_smoothed`` applies in factors.

    Row i holds the stencil of the order-th derivative at node i of the
    window, in units of t in [-1, 1]; for order >= 1 each row is shifted to
    sum to zero, as the package shifts its centre stencil.
    """
    dvals, _ = _fit_derivative(window, degree, order)
    rows = dvals @ _fit_projector(window, degree)
    if order >= 1:
        rows -= rows.mean(axis=1, keepdims=True)
    return rows


def rounding_scale(y: np.ndarray, h: float, order: int, window: int) -> np.ndarray:
    """Per node, |W_i| @ |y| over the node's stencil, in derivative units."""
    n = len(y)
    half = (window - 1) // 2
    aw = np.abs(smooth_weights(window, 10, order))
    ay = np.abs(y)
    out = np.empty(n)
    out[half : n - half] = np.convolve(ay, aw[half][::-1], mode="valid")
    out[:half] = aw[:half] @ ay[:window]
    out[n - half :] = aw[half + 1 :] @ ay[n - window :]
    return out / (half * h) ** order
