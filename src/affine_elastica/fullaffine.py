"""Full-affine criticality of positively curved curves and SL(2) machinery.

The full-affine arc-length element is sqrt(kappa) ds and the full-affine
curvature is kappa' / (2 kappa^(3/2)); both are invariant under all
invertible linear maps plus translations.  A curve is critical for the
full-affine length iff kappa_F = A x + B y + C, and for its constrained
forms iff kappa_F = A x + B y + C + Q R: ``el_residual_sqrt`` and
``constrained_sqrt_residuals`` fit these.  A curve's pointed osculating
parabolas trace a path in the equi-affine group (``congruence_path``) whose
SL(2) part carries the bi-invariant metric g(v, v) = -det(v) of Lorentzian
signature; the pseudo-arc-length of that path reproduces the full-affine
arc-length, which the tests check with their oracle
``congruence_arclength`` (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import cumulative_uniform
from .curvature import CurveSamples, _derivs, _kappa_derivs, _lstsq_fit, frame_and_curvature, support_function
from .errors import NonConvex

__all__ = [
    "PointedParabolaPath",
    "ConstrainedSqrtResiduals",
    "el_residual_sqrt",
    "constrained_sqrt_residuals",
    "osculating_parabola",
    "congruence_path",
    "osculating_conic",
]


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


def el_residual_sqrt(c: CurveSamples) -> float:
    """RMS misfit of kappa_F ~ A x + B y + C on the trusted interior; zero iff
    the curve is critical for the full-affine length.

    The Euler-Lagrange equation (kappa_F)''' + kappa (kappa_F)' = 0 integrates
    once exactly: gamma''' = -kappa gamma' makes 1, x and y a basis of its
    solutions.  kappa_F is dimensionless, so the rms does not depend on the
    units of the input.  Raises NonConvex unless kappa > 0 on the trusted
    interior, the only nodes where kappa_F is taken.  The fit is made once
    per curve.
    """
    if "el_residual_sqrt" not in c._cache:
        sel = c.interior()
        _, kF = _convex_kappa_F(c, sel)
        c._cache["el_residual_sqrt"] = _lstsq_fit(kF, [c.x, c.y, np.ones_like(c.x)], sel)[1]
    return c._cache["el_residual_sqrt"]


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


def osculating_parabola(c: CurveSamples, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Equi-affine map sending the standard pointed parabola to the osculating one.

    The standard pointed parabola is t -> (t, t^2 / 2) with special point
    at the origin; the map's linear part is [T | N] at sample i (unit
    determinant), the translation is gamma(s_i).
    """
    fr = frame_and_curvature(c)
    return np.column_stack([fr.T[i], fr.N[i]]), np.array([c.x[i], c.y[i]])


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
