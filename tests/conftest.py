"""Shared curve generators and map factories for the test suite."""

import numpy as np
import pytest

from affine_elastica import curvature as cv


def convex_support_curve(rng, n=6000, n_modes=4, amp=0.06):
    """Random smooth strictly convex closed curve via a Euclidean support function."""
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    h = np.ones_like(th)
    hp = np.zeros_like(th)
    hpp = np.zeros_like(th)
    for k in range(2, 2 + n_modes):
        a = amp * rng.uniform(-1, 1) / k**2
        b = amp * rng.uniform(-1, 1) / k**2
        h += a * np.cos(k * th) + b * np.sin(k * th)
        hp += -a * k * np.sin(k * th) + b * k * np.cos(k * th)
        hpp += -a * k * k * np.cos(k * th) - b * k * k * np.sin(k * th)
    assert np.all(h + hpp > 0.1), "generator produced a non-convex support function"
    x = h * np.cos(th) - hp * np.sin(th)
    y = h * np.sin(th) + hp * np.cos(th)
    return np.column_stack([x, y])


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
    """Lengths of the np.fft.rfft calls made while the test runs."""
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, *args, **kw: calls.append(len(a)) or rfft(a, *args, **kw))
    return calls
