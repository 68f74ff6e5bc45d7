"""Full-affine invariants of positively curved curves and SL(2) machinery.

The full-affine arc-length element is sqrt(kappa) ds and the full-affine
curvature is kappa' / (2 kappa^(3/2)); both are invariant under all
invertible linear maps plus translations.  A curve's pointed osculating
parabolas trace a path in the equi-affine group (``congruence_path``) whose
SL(2) part carries the bi-invariant metric g(v, v) = -det(v) of Lorentzian
signature; the pseudo-arc-length of that path reproduces the full-affine
arc-length, which the tests check with their oracle
``congruence_arclength`` (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import (
    cumulative_uniform,
    diff_samples,
    resample_uniform,
    trusted_interior,
)
from .curvature import CurveSamples, _derivs, _kappa_derivs, _lstsq_fit, frame_and_curvature, support_function
from .errors import NonConvex

__all__ = [
    "FullAffineData",
    "SL2Point",
    "PointedParabolaPath",
    "LinearPositionCertificate",
    "ConstrainedSqrtResiduals",
    "full_affine_invariants",
    "el_residual_sqrt",
    "linear_position_certificate",
    "el_residual_full_affine_form",
    "constrained_sqrt_residuals",
    "osculating_parabola",
    "congruence_path",
    "osculating_conic",
]


_W_RTOL = 1e-4  # relative size of kappa_F's variation below which a curve is a W-curve


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


@dataclass(frozen=True)
class SL2Point:
    """Element of SL(2): [[a, b], [c, d]] with unit determinant."""

    a: float
    b: float
    c: float
    d: float

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])


@dataclass
class PointedParabolaPath:
    """Osculating parabolic congruence: SL(2) parts plus special points."""

    mats: np.ndarray  # (n, 2, 2)
    translations: np.ndarray  # (n, 2)
    t: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "t": [float(v) for v in self.t],
            "mats": [[[float(x) for x in row] for row in m] for m in self.mats],
            "translations": [[float(x) for x in p] for p in self.translations],
        }


@dataclass
class LinearPositionCertificate:
    """Least-squares certificate kappa_F ~ A x + B y + C."""

    is_w_curve: bool
    A: float
    B: float
    C: float
    fit_residual: float


@dataclass
class ConstrainedSqrtResiduals:
    area_Q: float
    area_residual: float
    length_Q: float
    length_residual: float
    total_curv_Q: float
    total_curv_residual: float


def _convex_kappa_F(c: CurveSamples, sel) -> tuple[np.ndarray, np.ndarray]:
    """Curvature and full-affine curvature; raises NonConvex unless kappa > 0 on sel.

    kappa_F is taken on sel only and is NaN off it, where kappa may be <= 0.
    """
    kappa, k1, _ = _kappa_derivs(c)
    if np.min(kappa[sel]) <= 0.0:
        raise NonConvex("operation requires strictly positive curvature")
    kappa_F = np.full_like(kappa, np.nan)
    kappa_F[sel] = k1[sel] / (2.0 * kappa[sel] ** 1.5)
    return kappa, kappa_F


def full_affine_invariants(c: CurveSamples) -> FullAffineData:
    """Cumulative full-affine arc-length and pointwise full-affine curvature."""
    kappa, kappa_F = _convex_kappa_F(c, slice(None))
    root = np.sqrt(kappa)
    if not c.closed:
        return FullAffineData(s_F=cumulative_uniform(root, c.h), kappa_F=kappa_F)
    # over the periodic extension the 4-point rule sums to the periodic
    # trapezoid h sum(sqrt(kappa)), the s_F of the wrap node
    s_F = cumulative_uniform(np.concatenate([root, root[:3]]), c.h)[: c.n + 1]
    return FullAffineData(s_F=s_F[:-1], kappa_F=kappa_F, closed=True, period=float(s_F[-1]))


def el_residual_sqrt(c: CurveSamples) -> float:
    """RMS of (kappa_F)''' + kappa (kappa_F)'; zero iff critical for full-affine length.

    Raises NonConvex unless kappa > 0 on every node: the filter reads an open arc's ends too.
    """
    kappa, kF = _convex_kappa_F(c, slice(None))
    win = c.meta.get("fd_window")
    kF1, kF3 = diff_samples(kF, c.h, (1, 3), periodic=c.closed, window=win)
    res = kF3 + kappa * kF1
    return float(np.sqrt(np.mean(res[c.interior()] ** 2)))


def linear_position_certificate(c: CurveSamples) -> LinearPositionCertificate:
    """Fit kappa_F against an affine function of position.

    A critical curve of the full-affine length either has constant
    full-affine curvature (W-curve branch) or kappa_F is a non-zero linear
    function of position for a suitable origin.  The W-curve verdict holds
    when the spread of kappa_F, or else the fitted A and B, are below
    ``_W_RTOL`` of its scale.
    """
    sel = c.interior()
    _, kF = _convex_kappa_F(c, sel)
    spread = float(np.std(kF[sel]))
    scale = max(float(np.max(np.abs(kF[sel]))), 1e-300)
    if spread < _W_RTOL * max(scale, 1.0):
        return LinearPositionCertificate(True, 0.0, 0.0, float(np.mean(kF[sel])), spread)
    coef, rms, _ = _lstsq_fit(kF, [c.x, c.y, np.ones_like(c.x)], sel)
    A, B, C = (float(v) for v in coef)
    is_w = abs(A) < _W_RTOL * scale and abs(B) < _W_RTOL * scale
    return LinearPositionCertificate(is_w, A, B, C, rms)


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


def constrained_sqrt_residuals(c: CurveSamples) -> ConstrainedSqrtResiduals:
    """Fit the constrained criticality forms of the full-affine length.

    (kappa_F)''' + kappa (kappa_F)' equals a constant Q under area
    constraint, Q kappa under arc-length constraint and Q (kappa'' +
    kappa^2) under total-curvature constraint.  Each form is fitted in its
    exactly integrated shape kappa_F = A x + B y + C + Q R, where R is a
    primitive of the support function, of 1, or of kappa respectively
    (R''' + kappa R' reproduces the right-hand side); this needs only one
    derivative level and so stays well conditioned on sampled curves.  The
    residual is the rms misfit of kappa_F, and Q keeps the meaning it has
    in the differential form.
    """
    sel = c.interior()
    kappa, kF = _convex_kappa_F(c, sel)
    rho = support_function(c).rho
    R_area = cumulative_uniform(rho, c.h)
    R_len = c.s - c.s[0]
    R_tot = cumulative_uniform(kappa, c.h)
    out = []
    for R in (R_area, R_len, R_tot):
        coef, rms, _ = _lstsq_fit(kF, [c.x, c.y, np.ones_like(c.x), R], sel)
        out += [float(coef[-1]), rms]
    return ConstrainedSqrtResiduals(*out)


def osculating_parabola(c: CurveSamples, i: int) -> tuple[SL2Point, np.ndarray]:
    """Equi-affine map sending the standard pointed parabola to the osculating one.

    The standard pointed parabola is t -> (t, t^2 / 2) with special point
    at the origin; the map's linear part is [T | N] at sample i (unit
    determinant), the translation is gamma(s_i).
    """
    fr = frame_and_curvature(c)
    L = np.column_stack([fr.T[i], fr.N[i]])
    return SL2Point(L[0, 0], L[0, 1], L[1, 0], L[1, 1]), np.array([c.x[i], c.y[i]])


def congruence_path(c: CurveSamples) -> PointedParabolaPath:
    """The curve of pointed osculating parabolas as equi-affine group elements."""
    fr = frame_and_curvature(c)
    n = c.n
    mats = np.empty((n, 2, 2))
    mats[:, :, 0] = fr.T
    mats[:, :, 1] = fr.N
    return PointedParabolaPath(mats=mats, translations=c.points(), t=c.s.copy())


def osculating_conic(c: CurveSamples, i: int) -> np.ndarray:
    """Coefficients (a, b, c, d, e, f) of the five-point-contact conic at node i.

    The conic a x^2 + b xy + c y^2 + d x + e y + f = 0 osculates to fourth
    order; the null space of the jet-condition matrix determines it up to
    scale.
    """
    d = _derivs(c, orders=(1, 2, 3, 4))
    g0 = np.array([c.x[i], c.y[i]])
    g1, g2, g3, g4 = (d[k][i] for k in (1, 2, 3, 4))

    def grad_rows(p):
        # gradient of F as a linear map of (a, b, c, d, e, f)
        return np.array(
            [
                [2.0 * p[0], p[1], 0.0, 1.0, 0.0, 0.0],
                [0.0, p[0], 2.0 * p[1], 0.0, 1.0, 0.0],
            ]
        )

    def hess_quad(u, v):
        # u^T H v as a linear functional of the coefficients
        return np.array([2.0 * u[0] * v[0], u[0] * v[1] + u[1] * v[0], 2.0 * u[1] * v[1], 0, 0, 0])

    G = grad_rows(g0)
    rows = [
        np.array([g0[0] ** 2, g0[0] * g0[1], g0[1] ** 2, g0[0], g0[1], 1.0]),
        g1 @ G,
        hess_quad(g1, g1) + g2 @ G,
        3.0 * hess_quad(g1, g2) + g3 @ G,
        3.0 * hess_quad(g2, g2) + 4.0 * hess_quad(g1, g3) + g4 @ G,
    ]
    M = np.vstack(rows)
    _, _, Vt = np.linalg.svd(M)
    return Vt[-1]
