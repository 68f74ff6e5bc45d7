"""Equi-affine differential geometry of uniformly sampled planar curves.

A curve enters as `CurveSamples`: uniform samples of s -> (x, y) where s is
equi-affine arc-length, i.e. |gamma', gamma''| = 1.  Derivatives are
spectral for closed curves and smoothed local-polynomial fits for open
ones; on open curves, residual norms exclude half a filter window (at least
three nodes) at each end.  Quadrature is composite on the uniform grid,
with the spectrally accurate periodic trapezoid for closed curves.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from ._numerics import (
    cumulative_uniform,
    diff_samples,
    integrate_samples,
    trusted_interior,
)
from .errors import InflectionPoint, NegativeCurvature, NotCritical, ZeroC

__all__ = [
    "CurveSamples",
    "FrameField",
    "SupportData",
    "Functionals",
    "ELFit",
    "reparametrize_equiaffine",
    "frame_and_curvature",
    "support_function",
    "translate_to_canonical",
    "el_residual_general",
    "el_residual_area_constrained",
    "el_residual_area_and_length",
    "functionals",
    "sextactic_sign_changes",
    "curve_to_csv",
    "curve_from_csv",
    "curve_to_json",
    "curve_from_json",
    "ellipse_samples",
]

UNIMODULAR_TOL = 1e-6


@dataclass
class CurveSamples:
    """Uniform equi-affine arc-length samples of a planar curve.

    ``period`` is the total equi-affine length when the curve is closed; a
    closed grid excludes the wrap point (s runs over [s0, s0 + period)).
    ``meta`` carries synthesis metadata and is free-form but JSON-safe.
    """

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    closed: bool = False
    period: float | None = None
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if not self.s.ndim == self.x.ndim == self.y.ndim == 1:
            raise ValueError("s, x and y must be 1-d arrays")
        n = len(self.s)
        if not (len(self.x) == len(self.y) == n):
            raise ValueError("s, x, y must have equal length")
        if n < 7:
            raise ValueError("need at least 7 samples")
        hs = np.diff(self.s)
        if not np.allclose(hs, hs[0], rtol=1e-9, atol=1e-12 * max(1.0, abs(hs[0]))):
            raise ValueError("s grid must be uniform")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("non-finite samples")
        if self.closed and self.period is None:
            self.period = float(self.s[-1] - self.s[0] + hs[0])

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def n(self) -> int:
        return len(self.s)

    def points(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])

    def interior(self) -> slice:
        """Nodes trusted by residual norms (all of them when closed)."""
        return trusted_interior(self.n, self.closed, self.meta.get("fd_window"))

    def transformed(self, A: np.ndarray, b=(0.0, 0.0)) -> "CurveSamples":
        """Apply the affine map p -> A p + b to the samples (same grid)."""
        A = np.asarray(A, dtype=float)
        x = A[0, 0] * self.x + A[0, 1] * self.y + b[0]
        y = A[1, 0] * self.x + A[1, 1] * self.y + b[1]
        return CurveSamples(self.s.copy(), x, y, self.closed, self.period, dict(self.meta))


@dataclass
class FrameField:
    """Equi-affine Frenet data: tangent T = gamma', Blaschke normal N = gamma''."""

    T: np.ndarray  # (n, 2)
    N: np.ndarray  # (n, 2)
    kappa: np.ndarray


@dataclass
class SupportData:
    """Decomposition P = -rho N + phi T of the position vector field."""

    rho: np.ndarray
    phi: np.ndarray


@dataclass
class Functionals:
    length: float
    total_curvature: float
    area: float
    full_affine_length: float | None


@dataclass
class ELFit:
    """Least-squares fit of an Euler-Lagrange residual form: ``residual`` is
    the rms misfit, which scales as lambda^-4 under s -> lambda s, and
    ``relative`` the unit-free rms / max(rms(kappa^2), L^-4) (``_kappa2_scale``)."""

    C: float
    A: float
    residual: float
    relative: float
    underdetermined: bool = False


def _derivs(c: CurveSamples, orders=(1, 2, 3)) -> dict:
    """Derivatives of x and y by order; each order is computed once per curve,
    and the orders missing from the cache share one transform per coordinate."""
    d = c._cache.setdefault("derivs", {})
    todo = tuple(m for m in orders if m not in d)
    if todo:
        win = c.meta.get("fd_window")
        dx = diff_samples(c.x, c.h, todo, periodic=c.closed, window=win)
        dy = diff_samples(c.y, c.h, todo, periodic=c.closed, window=win)
        for m, a, b in zip(todo, dx, dy):
            d[m] = np.column_stack([a, b])
    return {m: d[m] for m in orders}


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


def unimodularity_defect(c: CurveSamples) -> float:
    """max |  |gamma', gamma''| - 1  | over trusted nodes."""
    d = _derivs(c)
    w = _cross(d[1], d[2])
    return float(np.max(np.abs(w[c.interior()] - 1.0)))


def frame_and_curvature(c: CurveSamples) -> FrameField:
    """Frenet frame and curvature kappa = |gamma'', gamma'''|."""
    if "frame" not in c._cache:
        d = _derivs(c)
        kappa = _cross(d[2], d[3])
        c._cache["frame"] = FrameField(T=d[1], N=d[2], kappa=kappa)
    return c._cache["frame"]


def _kappa_derivs(c: CurveSamples):
    """(kappa, kappa', kappa''), computed once per curve."""
    if "kappa_derivs" not in c._cache:
        kappa = frame_and_curvature(c).kappa
        k1, k2 = diff_samples(kappa, c.h, (1, 2), periodic=c.closed, window=c.meta.get("fd_window"))
        c._cache["kappa_derivs"] = kappa, k1, k2
    return c._cache["kappa_derivs"]


def reparametrize_equiaffine(
    points: np.ndarray,
    closed: bool = False,
    n_samples: int | None = None,
    t: np.ndarray | None = None,
) -> CurveSamples:
    """Resample an arbitrarily parametrised convex arc by equi-affine arc-length.

    ``points`` is an (n, 2) array sampled at uniform parameter values (or at
    the explicitly supplied ``t``).  For closed inputs the first point must
    not be repeated.  ds = |dgamma, d2gamma|^(1/3) dt; the output grid is
    uniform in s with |gamma', gamma''| = 1 up to interpolation error.

    Raises InflectionPoint when |dgamma, d2gamma| changes sign or nearly
    vanishes, and ValueError for fewer than 5 points (4 when closed).
    """
    from scipy.interpolate import make_interp_spline  # loaded on first use only
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    n = len(pts)
    # s(t) needs 4 nodes; an open window of under 5 fits a line, so gamma'' = 0
    need = 4 if closed else 5
    if n < need:
        raise ValueError(f"need at least {need} points")
    if t is None:
        t = np.arange(n, dtype=float)
    t = np.asarray(t, dtype=float)
    ht = float(t[1] - t[0])
    if not np.allclose(np.diff(t), ht, rtol=1e-9):
        raise ValueError("parameter grid must be uniform")

    (x1, x2), (y1, y2) = (diff_samples(pts[:, k], ht, (1, 2), periodic=closed) for k in (0, 1))
    w = x1 * y2 - y1 * x2
    wmed = np.median(np.abs(w))
    orient = np.sign(np.median(w))
    if wmed == 0.0 or np.any(w * orient < 1e-8 * wmed):
        raise InflectionPoint("|dgamma, d2gamma| changes sign or nearly vanishes")
    if orient < 0:
        # reverse orientation so the area form is +1 along the curve
        pts = pts[::-1].copy()
        w = np.abs(w[::-1])

    sdot = np.abs(w) ** (1.0 / 3.0)
    s_of_t = cumulative_uniform(sdot, ht)

    k = 5 if n >= 8 else 3
    tt, sd, xs, ys = t, sdot, pts[:, 0], pts[:, 1]
    if closed:  # a periodic spline takes the wrap node t[-1] + ht, valued as node 0
        tt = np.append(t, t[-1] + ht)
        sd, xs, ys = (np.append(v, v[0]) for v in (sdot, xs, ys))
    bc = "periodic" if closed else None
    sp_sdot = make_interp_spline(tt, sd, k=3, bc_type=bc)
    spx = make_interp_spline(tt, xs, k=k, bc_type=bc)
    spy = make_interp_spline(tt, ys, k=k, bc_type=bc)
    if closed:
        total = s_of_t[-1] + float(sp_sdot.integrate(t[-1], tt[-1]))
        ss = np.append(s_of_t, total)
    else:
        total, ss = float(s_of_t[-1]), s_of_t
    s_spline = make_interp_spline(tt, ss, k=3)

    if n_samples is None:
        n_samples = max(n, 2048)
    s_new = np.linspace(0.0, total, n_samples, endpoint=not closed)

    # invert the monotone map s(t): spline seed, then Newton with s'(t)
    t_new = make_interp_spline(ss, tt, k=3)(s_new)
    for _ in range(3):
        t_new = t_new - (s_spline(t_new) - s_new) / sp_sdot(t_new)
        t_new = np.clip(t_new, tt[0], tt[-1])

    out = CurveSamples(
        s_new, spx(t_new), spy(t_new), closed=closed, period=total if closed else None
    )
    out.meta["reparametrized"] = True
    return out


def support_function(c: CurveSamples, origin=(0.0, 0.0)) -> SupportData:
    """Support decomposition P = -rho N + phi T relative to ``origin``.

    Sign conventions: rho = |P, T| and phi = |P, N|; only rho enters any
    residual used elsewhere.
    """
    fr = frame_and_curvature(c)
    P = c.points() - np.asarray(origin, dtype=float)
    rho = P[:, 0] * fr.T[:, 1] - P[:, 1] * fr.T[:, 0]
    phi = P[:, 0] * fr.N[:, 1] - P[:, 1] * fr.N[:, 0]
    return SupportData(rho=rho, phi=phi)


def translate_to_canonical(c: CurveSamples) -> np.ndarray:
    """Origin that turns the support function into kappa / C.

    Requires kappa'' + kappa^2 = C with C != 0 to tolerance; the returned
    origin makes the constant field kappa N - kappa' T equal to -C P.  Both
    checks are unit-free: NotCritical when the fit's relative residual
    exceeds 1e-4, ZeroC when |C| is below 1e-8 of ``_kappa2_scale``.
    """
    kappa, k1, k2 = _kappa_derivs(c)
    fit = el_residual_area_constrained(c)
    if fit.relative > 1e-4:
        raise NotCritical(
            f"kappa'' + kappa^2 is not constant (relative rms residual {fit.relative:.3e})"
        )
    if abs(fit.C) < 1e-8 * _kappa2_scale(c):
        raise ZeroC("fitted constant C is numerically zero")
    fr = frame_and_curvature(c)
    M = kappa[:, None] * fr.N - k1[:, None] * fr.T
    cand = c.points() + M / fit.C
    sel = c.interior()
    return np.array([np.mean(cand[sel, 0]), np.mean(cand[sel, 1])])


def _lstsq_fit(target: np.ndarray, columns: list[np.ndarray], sel: slice):
    A = np.column_stack([col[sel] for col in columns])
    b = target[sel]
    coef, _, rank, svals = np.linalg.lstsq(A, b, rcond=None)
    resid = A @ coef - b
    rms = float(np.sqrt(np.mean(resid**2)))
    under = rank < len(columns) or (
        len(svals) == len(columns) and svals[-1] < 1e-10 * max(svals[0], 1e-300)
    )
    return coef, rms, under


def el_residual_general(c: CurveSamples, F, dF=None, d2F=None, d3F=None):
    """Criticality residual for the functional integral of F(kappa) ds.

    Computes G = F'''(kappa) kappa'^2 + F''(kappa) kappa'' + 4 F'(kappa) kappa
    - 2 F(kappa) and fits G ~ A x' + B y'.  Returns (A, B, rms residual);
    the residual vanishes exactly on critical curves.

    Each derivative of F not given is a central difference of F.
    """
    kappa, k1, k2 = _kappa_derivs(c)
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
    d = _derivs(c)
    coef, rms, _ = _lstsq_fit(G, [d[1][:, 0], d[1][:, 1]], c.interior())
    return float(coef[0]), float(coef[1]), rms


def _kappa2_scale(c: CurveSamples) -> float:
    """max(rms(kappa^2), L^-4) on the trusted interior, of equi-affine length
    L; the floor, of kappa^2's weight, keeps kappa = 0 finite."""
    k2 = _kappa_derivs(c)[0][c.interior()] ** 2  # squared twice: pow(k, 4) is slow for k < 0
    return max(float(np.sqrt(np.mean(k2 * k2))), (c.h * k2.size) ** -4.0)


def el_residual_area_constrained(c: CurveSamples) -> ELFit:
    """Fit kappa'' + kappa^2 ~ C; residual is the rms misfit."""
    kappa, _, k2 = _kappa_derivs(c)
    lhs = k2 + kappa**2
    sel = c.interior()
    C = float(np.mean(lhs[sel]))
    rms = float(np.sqrt(np.mean((lhs[sel] - C) ** 2)))
    return ELFit(C=C, A=0.0, residual=rms, relative=rms / _kappa2_scale(c))


def el_residual_area_and_length(c: CurveSamples) -> ELFit:
    """Fit kappa'' + kappa^2 ~ C + A kappa (minimal-norm when degenerate)."""
    kappa, _, k2 = _kappa_derivs(c)
    lhs = k2 + kappa**2
    ones = np.ones_like(kappa)
    coef, rms, under = _lstsq_fit(lhs, [ones, kappa], c.interior())
    return ELFit(C=float(coef[0]), A=float(coef[1]), residual=rms, relative=rms / _kappa2_scale(c),
                 underdetermined=under)


def functionals(c: CurveSamples, full_affine: bool = True) -> Functionals:
    """Arc-length, total curvature, bounded area and full-affine length.

    Area uses the shoelace rule on the samples (closed curves only).  The
    full-affine length integrates sqrt(kappa) and raises NegativeCurvature
    when min kappa <= 0 (pass full_affine=False to skip it).
    """
    fr = frame_and_curvature(c)
    h = c.h
    if c.closed:
        length = float(c.period)
        total = integrate_samples(fr.kappa, h, periodic=True)
        x, y = c.x, c.y
        area = 0.5 * float(
            np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        )
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


def sextactic_sign_changes(c: CurveSamples) -> int:
    """Number of sign changes of kappa' around a closed curve."""
    if not c.closed:
        raise ValueError("sextactic count is defined for closed curves")
    _, k1, _ = _kappa_derivs(c)
    scale = float(np.max(np.abs(k1)))
    if scale == 0.0:
        return 0
    sig = np.sign(k1[np.abs(k1) > 1e-8 * scale])
    if len(sig) == 0:
        return 0
    return int(np.sum(sig != np.roll(sig, 1)))


def ellipse_samples(a: float, b: float, n: int = 4096) -> CurveSamples:
    """Analytic equi-affine samples of the ellipse with semi-axes (a, b)."""
    omega = (a * b) ** (-1.0 / 3.0)
    period = 2.0 * np.pi / omega
    s = np.linspace(0.0, period, n, endpoint=False)
    return CurveSamples(s, a * np.cos(omega * s), b * np.sin(omega * s), closed=True, period=period)


# ---------------------------------------------------------------------------
# serialization


def curve_to_csv(c: CurveSamples, path=None) -> str:
    """CSV with 17-significant-digit columns s, x, y (LF endings)."""
    values = np.column_stack((c.s, c.x, c.y)).ravel().tolist()
    text = "s,x,y\n" + "%.17g,%.17g,%.17g\n" * c.n % tuple(values)
    if path is not None:
        with open(path, "w", newline="") as f:
            f.write(text)
    return text


_ROWS_ERROR = "expected data rows of 3 columns after the header"


def curve_from_csv(path_or_text, closed: bool = False, period: float | None = None) -> CurveSamples:
    if isinstance(path_or_text, str) and "\n" in path_or_text:
        text = path_or_text
    else:
        with open(path_or_text) as f:
            text = f.read()
    header, _, body = text.partition("\n")
    if header.rstrip("\r") != "s,x,y":
        raise ValueError("expected header s,x,y")
    if not body.strip():  # loadtxt would warn and return an empty array
        raise ValueError(_ROWS_ERROR)
    try:
        arr = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None)
    except ValueError as ex:
        raise ValueError(f"{_ROWS_ERROR}: {ex}") from None
    if arr.shape[1] != 3:
        raise ValueError(_ROWS_ERROR)
    return CurveSamples(arr[:, 0], arr[:, 1], arr[:, 2], closed=closed, period=period)


def curve_to_json(c: CurveSamples, path=None) -> str:
    payload = {
        "closed": c.closed,
        "period": c.period,
        "meta": {k: v for k, v in c.meta.items() if isinstance(v, (str, int, float, bool, type(None)))},
        "s": [float(v) for v in c.s],
        "x": [float(v) for v in c.x],
        "y": [float(v) for v in c.y],
    }
    text = json.dumps(payload, indent=1)
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


def curve_from_json(path_or_text) -> CurveSamples:
    if isinstance(path_or_text, str) and path_or_text.lstrip().startswith("{"):
        payload = json.loads(path_or_text)
    else:
        with open(path_or_text) as f:
            payload = json.load(f)
    if not isinstance(payload, dict) or not {"s", "x", "y", "closed", "period"} <= payload.keys():
        raise ValueError("expected a JSON object with keys s, x, y, closed and period")
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("expected meta to be a JSON object")
    win = meta.get("fd_window", 101)
    if type(win) is not int or not 101 <= win <= 401 or win % 2 == 0:  # what filter_window writes
        raise ValueError(f"meta.fd_window must be an odd integer in [101, 401], got {win!r}")
    closed, period = payload["closed"], payload["period"]
    if type(closed) is not bool:
        raise ValueError(f"closed must be true or false, got {closed!r}")
    if period is not None and not (type(period) in (int, float) and 0 < period <= sys.float_info.max):
        raise ValueError(f"period must be null or a finite positive number, got {period!r}")
    return CurveSamples(
        np.array(payload["s"]),
        np.array(payload["x"]),
        np.array(payload["y"]),
        closed=closed,
        period=period,
        meta=meta,
    )
