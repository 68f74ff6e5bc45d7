"""Equi-affine differential geometry of uniformly sampled planar curves.

A curve enters as `CurveSamples`: uniform samples of s -> (x, y) where s is
equi-affine arc-length, i.e. |gamma', gamma''| = 1.  Derivatives are
spectral for closed curves and smoothed local-polynomial fits for open
ones; on open curves, residual norms exclude half a filter window (at least
three nodes) at each end.  Quadrature is composite on the uniform grid,
with the spectrally accurate periodic trapezoid for closed curves.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from ._numerics import (
    FILTER_WINDOW_BOUNDS,
    cumulative_uniform,
    diff_samples,
    format_numbers,
    median,
    resample_uniform,
    trusted_interior,
)
from .errors import InflectionPoint

__all__ = [
    "CurveSamples",
    "FrameField",
    "SupportData",
    "ELFit",
    "reparametrize_equiaffine",
    "unimodularity_defect",
    "frame_and_curvature",
    "support_function",
    "el_residual_area_constrained",
    "el_residual_area_and_length",
    "curve_to_csv",
    "curve_from_csv",
    "curve_to_json",
    "curve_from_json",
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
        if not (hs[0] > 0.0 and np.allclose(hs, hs[0], rtol=1e-9, atol=1e-12 * max(1.0, hs[0]))):
            raise ValueError("s grid must be uniform with a positive step")
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
    not be repeated.  ds = |dgamma, d2gamma|^(1/3) dt is integrated to s at
    the input nodes, and one spline of (x, y) over those s nodes (periodic
    when closed, with the period as the wrap node) gives the uniform output
    grid, on which |gamma', gamma''| = 1 up to interpolation error.

    Raises InflectionPoint when |dgamma, d2gamma| changes sign or nearly
    vanishes, and ValueError for fewer than 5 points (4 when closed).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    n = len(pts)
    # a cubic spline needs 4 samples; an open window of under 5 fits a line, so gamma'' = 0
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
    wmed = median(np.abs(w))
    orient = np.sign(median(w))
    if wmed == 0.0 or np.any(w * orient < 1e-8 * wmed):
        raise InflectionPoint("|dgamma, d2gamma| changes sign or nearly vanishes")
    if orient < 0:
        # reverse orientation so the area form is +1 along the curve
        pts = pts[::-1].copy()
        w = np.abs(w[::-1])

    sdot = np.abs(w) ** (1.0 / 3.0)
    # s at the nodes, and when closed at the wrap node t[-1] + ht: over the periodic
    # extension the 4-point rule sums to the periodic trapezoid ht sum(sdot)
    s = cumulative_uniform(np.concatenate([sdot, sdot[:3]]) if closed else sdot, ht)[: n + 1]
    s_new, xy = resample_uniform(s, pts, max(n, 2048) if n_samples is None else n_samples, closed)
    out = CurveSamples(s_new, xy[:, 0], xy[:, 1], closed=closed, period=float(s[-1]) if closed else None)
    out.meta["reparametrized"] = True
    return out


def support_function(c: CurveSamples) -> SupportData:
    """Support decomposition P = -rho N + phi T of the position P relative to the origin.

    Sign conventions: rho = |P, T| and phi = |P, N|; only rho enters any
    residual used elsewhere.
    """
    fr = frame_and_curvature(c)
    P = c.points()
    rho = P[:, 0] * fr.T[:, 1] - P[:, 1] * fr.T[:, 0]
    phi = P[:, 0] * fr.N[:, 1] - P[:, 1] * fr.N[:, 0]
    return SupportData(rho=rho, phi=phi)


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


# ---------------------------------------------------------------------------
# serialization


def curve_to_csv(c: CurveSamples, path=None) -> str:
    """CSV text: the header s,x,y, then one row "%.17g,%.17g,%.17g" per sample, LF endings."""
    data = b"s,x,y\n" + format_numbers(np.column_stack((c.s, c.x, c.y)), "%.17g", b",,\n")
    if path is not None:
        with open(path, "wb") as f:
            f.write(data)
    return data.decode("ascii")


_ROWS_ERROR = "expected data rows of 3 columns after the header"


def curve_from_csv(path, closed: bool = False) -> CurveSamples:
    with open(path) as f:
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
    return CurveSamples(arr[:, 0], arr[:, 1], arr[:, 2], closed=closed)


def curve_to_json(c: CurveSamples, path=None) -> str:
    """The text of ``json.dumps(payload, indent=1)``; payload holds closed, period, meta, s, x and y.

    indent sends json to its pure-Python encoder; the sample lists are
    written here in the same layout, in the ``float.__repr__`` text json
    uses, by the digit-slot kernel ``format_numbers``.
    """
    head = {
        "closed": c.closed,
        "period": c.period,
        "meta": {k: v for k, v in c.meta.items() if isinstance(v, (str, int, float, bool, type(None)))},
    }
    lists = "".join(
        f',\n "{key}": [\n  '
        + format_numbers(getattr(c, key), "%r", b"\n")[:-1].replace(b"\n", b",\n  ").decode()
        + "\n ]"
        for key in "sxy"
    )
    text = json.dumps(head, indent=1)[: -len("\n}")] + lists + "\n}"
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


def curve_from_json(path) -> CurveSamples:
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict) or not {"s", "x", "y", "closed", "period"} <= payload.keys():
        raise ValueError("expected a JSON object with keys s, x, y, closed and period")
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("expected meta to be a JSON object")
    lo, hi = FILTER_WINDOW_BOUNDS  # what filter_window writes
    win = meta.get("fd_window", lo)
    if type(win) is not int or not lo <= win <= hi or win % 2 == 0:
        raise ValueError(f"meta.fd_window must be an odd integer in [{lo}, {hi}], got {win!r}")
    closed, period = payload["closed"], payload["period"]
    if type(closed) is not bool:
        raise ValueError(f"closed must be true or false, got {closed!r}")
    if period is not None and not (type(period) in (int, float) and 0 < period <= sys.float_info.max):
        raise ValueError(f"period must be null or a finite positive number, got {period!r}")
    s, x, y = (_json_numbers(payload, key) for key in "sxy")
    return CurveSamples(s, x, y, closed=closed, period=period, meta=meta)


def _json_numbers(payload: dict, key: str) -> np.ndarray:
    """``payload[key]`` as a 1-d array; a ValueError names the key unless it holds numbers only."""
    with contextlib.suppress(ValueError):  # np.array raises it on a ragged nesting of lists
        arr = np.array(payload[key])
        if arr.ndim == 1 and arr.dtype.kind in "iuf":
            return arr
    raise ValueError(f"s, x and y must be 1-d arrays of numbers; {key} is not")
