"""Open-arc derivative filter: exactness, constant annihilation, closed form."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.polynomial import chebyshev as C

from affine_elastica._numerics import diff_smoothed, _smooth_weights

EPS = np.finfo(float).eps


def _per_node_weights(window, degree, order):
    """The per-node, per-basis construction the closed form replaced."""
    half = (window - 1) / 2.0
    t = (np.arange(window) - half) / half
    proj = np.linalg.pinv(C.chebvander(t, degree))
    rows = np.array([
        [C.chebval(ti, C.chebder(np.eye(degree + 1)[k], order)) for k in range(degree + 1)] @ proj
        for ti in t
    ])
    if order >= 1:
        rows -= rows.mean(axis=1, keepdims=True)
    return rows


def _rounding_scale(y, h, order, window):
    """Per node, |W_i| @ |y| over the node's stencil, in derivative units."""
    n = len(y)
    half = (window - 1) // 2
    aw = np.abs(_smooth_weights(window, 10, order))
    ay = np.abs(y)
    out = np.empty(n)
    out[half : n - half] = np.convolve(ay, aw[half][::-1], mode="valid")
    out[:half] = aw[:half] @ ay[:window]
    out[n - half :] = aw[half + 1 :] @ ay[n - window :]
    return out / (half * h) ** order


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("window", [41, 101, 201, 401])
def test_polynomials_differentiated_to_rounding(window, order, rng):
    """Degree <= 10 is inside the fit, so every node, edges included, is exact."""
    n = window + 60
    x = np.linspace(-1.0, 1.0, n)
    for _ in range(4):
        p = Polynomial(rng.uniform(-1.0, 1.0, rng.integers(1, 12)))
        y = p(x)
        want = p.deriv(order)(x)
        got = diff_smoothed(y, x[1] - x[0], order, window=window)
        bound = 128 * EPS * (_rounding_scale(y, x[1] - x[0], order, window) + np.abs(want))
        assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("window", [41, 101, 401])
def test_derivative_rows_sum_to_zero(window, order):
    W = _smooth_weights(window, 10, order)
    assert np.all(np.abs(W.sum(axis=1)) <= 4 * EPS * np.abs(W).sum(axis=1))


@pytest.mark.parametrize(
    "window,degree,order",
    [(41, 10, 1), (41, 10, 3), (151, 10, 0), (151, 10, 2), (401, 10, 1), (401, 10, 3), (5, 3, 3), (3, 1, 2)],
)
def test_closed_form_matches_per_node_construction(window, degree, order):
    want = _per_node_weights(window, degree, order)
    got = _smooth_weights.__wrapped__(window, degree, order)
    assert got.shape == (window, window)
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


def test_cold_build_evaluates_no_polynomial(monkeypatch):
    calls = []
    chebval = C.chebval
    monkeypatch.setattr(C, "chebval", lambda *a, **k: calls.append(1) or chebval(*a, **k))
    _smooth_weights.__wrapped__(201, 10, 3)
    assert calls == []
