"""Shared numerical kernels: derivatives and quadrature.

Curve samples are differentiated by ``diff_samples``: filtered Fourier
symbols for closed curves, long local least-squares stencils for open ones.
Only ``diff_uniform``, used to reparametrize raw point samples, applies
4th-order stencils (periodic wraparound, or one-sided Fornberg stencils at
open ends).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def fd_weights(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Fornberg weights for derivatives 0..m at x0 from nodes x.

    Returns an array c of shape (len(x), m+1); c[:, k] are the weights of
    the k-th derivative.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def _centered_stencil(order: int, half: int):
    offs = np.arange(-half, half + 1, dtype=float)
    return half, fd_weights(offs, 0.0, order)[:, order]


# centered stencils, 4th-order accurate on a uniform grid
_STENCILS = {
    1: _centered_stencil(1, 2),
    2: _centered_stencil(2, 2),
    3: _centered_stencil(3, 3),
    4: _centered_stencil(4, 3),
}


def diff_uniform(y: np.ndarray, h: float, order: int, periodic: bool = False) -> np.ndarray:
    """order-th derivative of samples y on a uniform grid of spacing h."""
    y = np.asarray(y, dtype=float)
    half, w = _STENCILS[order]
    if periodic:
        out = np.zeros_like(y)
        for j, wj in enumerate(w, start=-half):
            if wj != 0.0:
                out += wj * np.roll(y, -j)
        return out / h**order
    n = len(y)
    if n < 2 * half + 1:
        raise ValueError("too few samples for the requested derivative order")
    out = np.empty_like(y)
    core = np.convolve(y, w[::-1], mode="valid") / h**order
    out[half : n - half] = core
    # one-sided 4th-order stencils at the edges
    npts = min(n, order + 5)
    xs = np.arange(npts, dtype=float)
    for i in range(half):
        wts = fd_weights(xs, float(i), order)[:, order]
        out[i] = wts @ y[:npts] / h**order
        wts = fd_weights(xs, float(npts - 1 - i), order)[:, order]
        out[n - 1 - i] = wts @ y[n - npts :] / h**order
    return out


# Modes past the last one above this fraction of the peak are cut.  Single
# rounding-noise modes of closed curves reach 1.4e-13 of the peak; a floor
# below that keeps them for the (i k)^order symbol to amplify.
_SPECTRAL_FLOOR = 1e-12


def diff_spectral(y: np.ndarray, h: float, order: int) -> np.ndarray:
    """Derivative of smooth periodic samples by filtered Fourier symbol.

    Plain stencil cascades are rounding-limited near 1e-6 for kappa''-type
    chains; for analytic periodic data the spectrum decays below the noise
    floor, so modes past that point carry only rounding noise and are cut
    before applying (i k)^order.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    fh = np.fft.rfft(y)
    mag = np.abs(fh)
    mmax = float(mag.max())
    if mmax > 0.0:
        tail = np.maximum.accumulate(mag[::-1])[::-1]
        below = np.nonzero(tail < _SPECTRAL_FLOOR * mmax)[0]
        if len(below):
            kcut = min(2 * int(below[0]) + 4, len(fh) - 1)
            fh[kcut + 1 :] = 0.0
    k = 2.0 * np.pi * np.arange(len(fh)) / (n * h)
    fh = fh * (1j * k) ** order
    if n % 2 == 0 and order % 2 == 1:
        fh[-1] = 0.0  # Nyquist mode has no odd-derivative counterpart
    return np.fft.irfft(fh, n)


@lru_cache(maxsize=512)
def _smooth_weights(window: int, degree: int, order: int) -> np.ndarray:
    """Local least-squares derivative weights on a Chebyshev basis.

    Returns a (window, window) matrix W; row i holds the stencil that
    estimates the order-th derivative at node i of the window from all
    window nodes, in units of the scaled coordinate t in [-1, 1].  In closed
    form (a Savitzky-Golay filter on a Chebyshev basis)

        W = chebvander(t, degree - order) @ chebder(I, order) @ pinv(chebvander(t, degree)),

    where column k of chebder(I, order) holds the coefficients of T_k^(order).
    """
    cheb = np.polynomial.chebyshev
    half = (window - 1) / 2.0
    t = (np.arange(window) - half) / half
    dvals = cheb.chebvander(t, max(degree - order, 0)) @ cheb.chebder(np.eye(degree + 1), order)
    # einsum, not a threaded BLAS product: from window ~350 up that product
    # intermittently took 12-20 ms instead of 0.2 ms once scipy was loaded
    rows = np.einsum("ik,kj->ij", dvals, np.linalg.pinv(cheb.chebvander(t, degree)))
    if order >= 1:
        # derivatives must annihilate constants exactly, not just to rounding
        rows -= rows.mean(axis=1, keepdims=True)
    return rows


def effective_window(n: int, window: int | None = None) -> int:
    """Smoothing-stencil length used by diff_smoothed for n samples."""
    if window is None:
        window = max(41, n // 16)
    window = min(window, 401, n if n % 2 else n - 1)
    if window % 2 == 0:
        window += 1
    return window


def filter_window(rho: float, h: float) -> int:
    """Odd smoothing window of 0.2 rho / h nodes, clipped to [101, 401].

    rho is the distance to the nearest singularity; the bias grows like (window / rho)^(degree+1).
    """
    win = int(np.clip(0.2 * rho / h, 101, 401))
    return win if win % 2 else win + 1


def trusted_interior(n: int, closed: bool, window: int | None = None) -> slice:
    """Nodes trusted by residual norms: all when closed, else all but the
    one-sided zones of diff_smoothed (half its window, at least 3 nodes).
    """
    if closed:
        return slice(None)
    skip = max(3, effective_window(n, window) // 2)
    return slice(skip, n - skip)


def diff_smoothed(
    y: np.ndarray, h: float, order: int, window: int | None = None, degree: int = 10
) -> np.ndarray:
    """Noise-suppressing derivative for open arcs (local polynomial fit).

    A least-squares polynomial of moderate degree over ``window`` nodes acts
    as a long centered stencil: rounding noise shrinks with the window while
    the fit stays exact for resolved scales.  The default window is n // 16,
    clamped to [41, 401] and forced odd.  Estimates within half a window of
    the ends come from off-center fits and are markedly less accurate;
    residual norms should exclude them.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    window = effective_window(n, window)
    degree = min(degree, window - 2)
    half = (window - 1) // 2
    scale = (half * h) ** order
    W = _smooth_weights(window, degree, order)
    center = W[half]
    out = np.empty(n)
    core = np.convolve(y, center[::-1], mode="valid") / scale
    out[half : n - half] = core
    out[:half] = (W[:half] @ y[:window]) / scale
    out[n - half :] = (W[half + 1 :] @ y[n - window :]) / scale
    return out


def diff_samples(
    y: np.ndarray, h: float, order: int, periodic: bool = False, window: int | None = None
) -> np.ndarray:
    """Preferred derivative of curve samples: spectral when periodic, else smoothed."""
    if periodic:
        return diff_spectral(y, h, order)
    return diff_smoothed(y, h, order, window=window)


def integrate_samples(vals: np.ndarray, h: float, periodic: bool = False) -> float:
    """Definite integral of uniform samples (periodic: spectral trapezoid)."""
    if periodic:
        return float(h * np.sum(vals))
    return float(cumulative_uniform(vals, h)[-1])


def cumulative_uniform(vals: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniform samples, 4th-order accurate.

    Uses the 4-point forward rule h/24 * (9, 19, -5, 1) per step, with the
    mirrored rule on the last steps.
    """
    vals = np.asarray(vals, dtype=float)
    n = len(vals)
    if n < 4:
        raise ValueError("need at least 4 samples")
    out = np.empty(n)
    out[0] = 0.0
    step = (h / 24.0) * (9.0 * vals[:-3] + 19.0 * vals[1:-2] - 5.0 * vals[2:-1] + vals[3:])
    out[1:-2] = np.cumsum(step)
    # final two steps with the backward-facing rule
    for i in (n - 2, n - 1):
        out[i] = out[i - 1] + (h / 24.0) * (
            9.0 * vals[i] + 19.0 * vals[i - 1] - 5.0 * vals[i - 2] + vals[i - 3]
        )
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def gl_cumulative(fn, nodes: np.ndarray) -> np.ndarray:
    """Cumulative integral of a callable along straight segments.

    ``nodes`` may be real or complex; the integration path is the polyline
    through them.  Each segment uses 10-point Gauss-Legendre.  ``fn`` must
    accept a complex ndarray.
    """
    nodes = np.asarray(nodes)
    a = nodes[:-1]
    d = nodes[1:] - a
    # all quadrature points in one call to fn
    pts = a[:, None] + np.outer(d, (_GL_NODES + 1.0) / 2.0)
    fv = fn(pts.ravel()).reshape(pts.shape)
    seg = (d / 2.0) * (fv @ _GL_WEIGHTS)
    out = np.empty(len(nodes), dtype=seg.dtype)
    out[0] = 0.0
    np.cumsum(seg, out=out[1:])
    return out

