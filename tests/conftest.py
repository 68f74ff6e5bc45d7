"""Shared curve generators and map factories for the test suite."""

import numpy as np
import pytest

from affine_elastica import _numerics
from affine_elastica import curvature as cv


def support_curve_points(modes, n=6000):
    """Closed curve whose Euclidean support function is 1 + sum a cos(k t) + b sin(k t)
    over the (k, a, b) of ``modes``, at n uniform normal angles t."""
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    h = np.ones_like(th)
    hp = np.zeros_like(th)
    hpp = np.zeros_like(th)
    for k, a, b in modes:
        h += a * np.cos(k * th) + b * np.sin(k * th)
        hp += -a * k * np.sin(k * th) + b * k * np.cos(k * th)
        hpp += -a * k * k * np.cos(k * th) - b * k * k * np.sin(k * th)
    assert np.all(h + hpp > 0.1), "generator produced a non-convex support function"
    x = h * np.cos(th) - hp * np.sin(th)
    y = h * np.sin(th) + hp * np.cos(th)
    return np.column_stack([x, y])


def convex_support_curve(rng, n=6000, n_modes=4, amp=0.06):
    """Random smooth strictly convex closed curve via a Euclidean support function."""
    modes = [(k, amp * rng.uniform(-1, 1) / k**2, amp * rng.uniform(-1, 1) / k**2) for k in range(2, 2 + n_modes)]
    return support_curve_points(modes, n)


def ellipse_samples(a: float, b: float, n: int = 4096) -> cv.CurveSamples:
    """Analytic equi-affine samples of the ellipse with semi-axes (a, b)."""
    omega = (a * b) ** (-1.0 / 3.0)
    period = 2.0 * np.pi / omega
    s = np.linspace(0.0, period, n, endpoint=False)
    return cv.CurveSamples(s, a * np.cos(omega * s), b * np.sin(omega * s), closed=True, period=period)


def log_spiral_samples(b=0.15, s_lo=0.0, s_hi=12.0, n=4000):
    """Analytic equi-affine samples of the logarithmic spiral r = exp(b theta)."""
    a = (1.0 + b * b) ** (1.0 / 3.0)
    s = np.linspace(s_lo, s_hi, n)
    t = (3.0 / (2.0 * b)) * np.log1p(2.0 * b * s / (3.0 * a))
    r = np.exp(b * t)
    return cv.CurveSamples(s, r * np.cos(t), r * np.sin(t), closed=False)


def hyperbola_samples(s_lo=-2.0, s_hi=2.0, n=6000):
    """Analytic equi-affine samples of x y = 1 (curvature -2^(-2/3))."""
    a = 2.0 ** (-1.0 / 3.0)
    s = np.linspace(s_lo, s_hi, n)
    return cv.CurveSamples(s, np.exp(a * s), np.exp(-a * s), closed=False)


def tanh_kappa_F(sF):
    """(3/sqrt2) tanh(sqrt2 s_F): the full-affine curvature of a critical curve."""
    return (3.0 / np.sqrt(2.0)) * np.tanh(np.sqrt(2.0) * sF)


def scaled_curve(c, lam: float):
    """Points scaled by lam^(3/2) and s by lam, so kappa scales as lam^-2."""
    return cv.CurveSamples(lam * c.s, lam**1.5 * c.x, lam**1.5 * c.y, c.closed,
                           None if c.period is None else lam * c.period, dict(c.meta))


def hypotrochoid_points(R=5.0, r=1.0, d=0.1, n=8000):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    k = (R - r) / r
    return np.column_stack(
        [(R - r) * np.cos(t) + d * np.cos(k * t), (R - r) * np.sin(t) - d * np.sin(k * t)]
    )


def random_unimodular(rng, scale=1.0):
    """Random area-preserving linear map, moderately conditioned."""
    while True:
        a = rng.uniform(-scale, scale)
        b = rng.uniform(-scale, scale)
        c = rng.uniform(-scale, scale)
        if abs(a) > 0.2:
            d = (1.0 + b * c) / a
            M = np.array([[a, b], [c, d]])
            if np.linalg.cond(M) < 8.0:
                return M


def random_invertible(rng, scale=1.5):
    while True:
        M = rng.uniform(-scale, scale, size=(2, 2))
        if abs(np.linalg.det(M)) > 0.3 and np.linalg.cond(M) < 8.0:
            return M


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def rfft_calls(monkeypatch):
    """Lengths of the forward transforms diff_spectral makes while the test runs.

    It counts ``_numerics._rfft``, which every length passes through, also
    one whose large prime factor bypasses ``np.fft.rfft``.
    """
    calls = []
    rfft = _numerics._rfft
    monkeypatch.setattr(_numerics, "_rfft", lambda a: calls.append(len(a)) or rfft(a))
    return calls
