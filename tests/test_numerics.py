"""Shared numerics: the open-arc derivative filter (exactness, constant
annihilation, closed form, FFT centre against direct convolution, cache
footprint), the batched real transforms against np.fft,
Carlson's R_F and R_D against scipy.special and their array kernel against
the scalar calls, the Brent solver against
scipy.optimize.brentq, the median against np.median and the number writer
("%.17g", "%.6f" and repr) against "%" itself."""

import cmath
import gc
import math
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial import chebyshev as C
from scipy.optimize import brentq
from scipy.special import ellipe, ellipk, elliprd, elliprf

from affine_elastica import _numerics as nm
from affine_elastica import elliptic as el
from affine_elastica import synthesis as sy
from affine_elastica._numerics import (
    _batch_plan,
    _fft_length,
    _fit_derivative,
    _fit_projector,
    _irfft,
    _rfft,
    brent_root,
    carlson_arrays,
    carlson_rd,
    carlson_rf,
    diff_samples,
    diff_smoothed,
    diff_spectral,
    format_numbers,
    median,
)
from affine_elastica.errors import NoSuchC
from oracles import rounding_scale, smooth_weights

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


def _assert_within_rounding(got, want, y, h, order, window, nodes=slice(None)):
    bound = 128 * EPS * (rounding_scale(y, h, order, window) + np.abs(want))[nodes]
    assert np.all(np.abs(got - want)[nodes] <= bound)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("window", [41, 101, 201, 401])
def test_polynomials_differentiated_to_rounding(window, order, rng):
    """Degree <= 10 is inside the fit, so every node, edges included, is exact
    (order 0 smooths, and must give the constants subtracted for the fit back)."""
    n = window + 60
    x = np.linspace(-1.0, 1.0, n)
    for _ in range(4):
        p = Polynomial(rng.uniform(-1.0, 1.0, rng.integers(1, 12)))
        y = p(x)
        got = diff_smoothed(y, x[1] - x[0], order, window=window)
        _assert_within_rounding(got, p.deriv(order)(x), y, x[1] - x[0], order, window)


@pytest.mark.parametrize("window", [101, 219, 401])
def test_offset_polynomial_differentiated_to_rounding(window, rng):
    """An offset of 1e6 leaves every order of a degree <= 10 polynomial exact."""
    x = np.linspace(-1.0, 1.0, 3517)
    h = x[1] - x[0]
    p = Polynomial(rng.uniform(-1.0, 1.0, 11))
    y = p(x) + 1e6
    for order, got in zip((1, 2, 3), diff_smoothed(y, h, (1, 2, 3), window=window)):
        _assert_within_rounding(got, p.deriv(order)(x), y, h, order, window)


@pytest.mark.parametrize("n", [3517, 6007, 3000, 6000])  # two primes, two 5-smooth lengths
@pytest.mark.parametrize("window", [101, 219, 401])
def test_fft_centre_matches_direct_convolution(n, window, rng):
    x = np.linspace(0.0, 3.0, n)
    h = x[1] - x[0]
    y = np.exp(np.sin(2.0 * x)) + x**2 + 1e-9 * rng.standard_normal(n)
    half = (window - 1) // 2
    inner = slice(half, n - half)
    for order, got in zip((1, 2, 3), diff_smoothed(y, h, (1, 2, 3), window=window)):
        centre = _fit_derivative(window, 10, order)[1]
        want = np.zeros(n)
        want[inner] = np.convolve(y, centre[::-1], mode="valid") / (half * h) ** order
        _assert_within_rounding(got, want, y, h, order, window, inner)


@pytest.mark.parametrize("n,window", [(5, None), (461, 401), (3517, 101), (6000, 219)])
def test_constants_give_exact_zeros(n, window):
    for value in (0.3, -7.1e5):
        for d in diff_smoothed(np.full(n, value), 0.01, (1, 2, 3), window=window):
            assert np.all(d == 0.0)


def test_fft_length_is_the_next_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 3000):
        assert _fft_length(n) == next(m for m in range(n, 2 * n + 1) if smooth(m))


def _cached_arrays(fn):
    """The arrays held by an lru_cache'd function's entries (CPython's cache traverses them)."""
    found, todo = [], gc.get_referents(fn)
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, tuple):
            todo.extend(obj)
    return found


def test_filter_caches_hold_no_window_square_arrays():
    caches = [f for f in vars(nm).values() if callable(getattr(f, "cache_clear", None))]
    for f in caches:
        f.cache_clear()
    y = np.sin(np.linspace(0.0, 3.0, 3517))
    windows = range(101, 402, 50)
    for window in windows:
        diff_smoothed(y, 0.001, (1, 2, 3), window=window)
    held = [a for f in caches for a in _cached_arrays(f)]
    assert len(held) >= 4 * len(windows)  # a projector and three derivatives per window at least
    assert max(a.size for a in held) < 101**2


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("window", [41, 101, 401])
def test_derivative_rows_sum_to_zero(window, order):
    """The centre stencil is shifted to sum to zero; the edges fit y - y[half],
    and no edge row reads the fit's constant term."""
    dvals, centre = _fit_derivative(window, 10, order)
    assert abs(centre.sum()) <= 4 * EPS * np.abs(centre).sum()
    assert np.all(dvals[:, 0] == 0.0)


@pytest.mark.parametrize(
    "window,degree,order",
    [(41, 10, 1), (41, 10, 3), (151, 10, 0), (151, 10, 2), (401, 10, 1), (401, 10, 3), (5, 3, 3), (3, 1, 2)],
)
def test_closed_form_matches_per_node_construction(window, degree, order):
    want = _per_node_weights(window, degree, order)
    got = smooth_weights(window, degree, order)
    assert got.shape == (window, window)
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
    centre = _fit_derivative.__wrapped__(window, degree, order)[1]
    assert np.max(np.abs(centre - want[(window - 1) // 2])) <= 2e-15 * np.max(np.abs(want))


def test_cold_build_evaluates_no_polynomial(monkeypatch):
    calls = []
    chebval = C.chebval
    monkeypatch.setattr(C, "chebval", lambda *a, **k: calls.append(1) or chebval(*a, **k))
    _fit_projector.__wrapped__(201, 10)
    _fit_derivative.__wrapped__(201, 10, 3)
    assert calls == []


# ---------------------------------------------------------------------------
# Carlson R_F and R_D


def test_rf_matches_scipy_on_real_arguments(rng):
    worst = 0.0
    for _ in range(4000):
        x, y, z = 10.0 ** rng.uniform(-8.0, 8.0, 3)
        if rng.random() < 0.25:
            x = 0.0  # one zero is allowed: K(m) has one
        got, want = carlson_rf(x, y, z), elliprf(x, y, z)
        assert isinstance(got, float)
        worst = max(worst, abs(got - want) / want)
    assert worst <= 2e-15


def test_rf_matches_scipy_on_complex_arguments(rng):
    worst = 0.0
    for _ in range(4000):
        r = 10.0 ** rng.uniform(-8.0, 8.0, 3)
        phase = rng.uniform(-0.999 * np.pi, 0.999 * np.pi, 3)
        x, y, z = (complex(v) for v in r * np.exp(1j * phase))
        got, want = carlson_rf(x, y, z), elliprf(x, y, z)
        assert isinstance(got, complex)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 2e-15


def test_complete_integral_matches_ellipk(rng):
    near = 1e-15 * rng.uniform(0.0, 1.0, 200)
    ms = np.concatenate([rng.uniform(0.0, 1.0, 2000), near, 1.0 - near, [0.0, 5e-324, 1.0 - 2.0**-53, -3.0]])
    for m in ms:
        got, want = carlson_rf(0.0, 1.0 - m, 1.0), ellipk(m)
        assert got == want or abs(got - want) <= 2e-15 * want  # K(1) = inf


@pytest.mark.parametrize(
    "args",
    [(0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 1.0, 1.0), (math.nan, 1.0, 1.0), (-1.0, 1.0, 1.0),
     (-1e-300, 1.0, 1.0), (math.inf, 1.0, 1.0), (0.0, math.inf, 1.0), (1e-300, 1.0, 1e300),
     (0j, 0.0, 1.0), (0j, 1.0, 1.0), (-1 + 0j, 1.0, 2.0), (complex(math.nan, 0.0), 1.0, 1.0),
     (-1 + 1e-300j, 1.0, 1.0)],
)
def test_rf_edge_values_match_scipy(args):
    """Zeros, NaN, the negative real axis and infinity give scipy's value and never raise."""
    got, want = carlson_rf(*args), elliprf(*args)
    if cmath.isnan(want):
        assert cmath.isnan(got)
    elif cmath.isinf(want) or want == 0.0:
        assert got == want
    else:
        assert abs(got - want) <= 2e-15 * abs(want)


def test_rd_matches_scipy_on_real_arguments(rng):
    worst = 0.0
    for _ in range(4000):
        x, y, z = 10.0 ** rng.uniform(-8.0, 8.0, 3)
        if rng.random() < 0.25:
            x = 0.0  # one zero of x and y is allowed: E(m) has one
        got, want = carlson_rd(x, y, z), elliprd(x, y, z)
        assert isinstance(got, float)
        worst = max(worst, abs(got - want) / want)
    assert worst <= 2e-15


def test_complete_integrals_match_ellipe(rng):
    """E(m) by the two R_D identities of DLMF 19.25.1 that the closure quantity
    rests on: k'^2 K + (m k'^2/3) R_D(0, 1, k'^2), a sum of positive terms,
    for every m, and K - (m/3) R_D(0, k'^2, 1) for m <= 1/2, where the
    difference loses no digit (the closure's lattices have m < 1/2)."""
    near = 10.0 ** rng.uniform(-15.0, -1.0, 200)
    ms = np.concatenate([rng.uniform(0.0, 1.0, 2000), near, 1.0 - near, [0.0, 0.5, 1.0 - 2.0**-53]])
    for m in ms:
        K, want = carlson_rf(0.0, 1.0 - m, 1.0), ellipe(m)
        positive = (1.0 - m) * K + m * (1.0 - m) / 3.0 * carlson_rd(0.0, 1.0, 1.0 - m)
        assert abs(positive - want) <= 2e-15 * want
        if m <= 0.5:
            assert abs(K - m / 3.0 * carlson_rd(0.0, 1.0 - m, 1.0) - want) <= 2e-15 * want


@pytest.mark.parametrize(
    "args",
    [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 1.0, 1.0), (math.nan, 1.0, 1.0),
     (1.0, 1.0, math.nan), (-1.0, 1.0, 1.0), (1.0, 1.0, -1e-300), (math.inf, 1.0, 1.0), (1.0, 1.0, math.inf),
     (math.inf, 1.0, 0.0), (0.0, 0.0, math.inf), (-0.0, 1.0, 1.0), (1e-300, 1.0, 1e300)],
)
def test_rd_edge_values_match_scipy(args):
    """Zeros, NaN, negative and infinite arguments give scipy's value and never raise."""
    got, want = carlson_rd(*args), elliprd(*args)
    if math.isnan(want):
        assert math.isnan(got)
    elif math.isinf(want) or want == 0.0:
        assert got == want
    else:
        assert abs(got - want) <= 2e-15 * abs(want)


_SPREAD = st.floats(min_value=1e-12, max_value=1e12)


@st.composite
def _integral_rows(draw):
    """R_F and R_D rows of triples inside ``carlson_arrays``'s contract, x = 0
    allowed, spreads of 1e-12 to 1e12, all rows of one length, one row at least."""
    n = draw(st.integers(1, 8))
    row = st.lists(st.tuples(st.one_of(st.just(0.0), _SPREAD), _SPREAD, _SPREAD), min_size=n, max_size=n)
    rf = draw(st.lists(row.map(lambda r: tuple(np.array(r).T)), max_size=3))
    return rf, draw(st.lists(row.map(lambda r: tuple(np.array(r).T)), min_size=not rf, max_size=3))


def _assert_scalar_bits(rows, kind):
    """Run the R_F and R_D rows through one ``carlson_arrays`` call and check
    that every entry of one kind (0: R_F, 1: R_D) has the bits of its scalar
    carlson_rf or carlson_rd call."""
    got = carlson_arrays(*rows)[kind]
    f = (carlson_rf, carlson_rd)[kind]
    want = np.array([[f(*t) for t in zip(*row)] for row in rows[kind]]).reshape(got.shape)
    assert len(got) == len(rows[kind]) and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(rows=_integral_rows())
def test_rf_array_has_the_scalar_bits(rows):
    """R_F triples mixed with R_D triples in one duplication loop: every R_F
    entry has the bits of its scalar carlson_rf call."""
    _assert_scalar_bits(rows, 0)


@settings(max_examples=200, deadline=None)
@given(rows=_integral_rows())
def test_rd_array_has_the_scalar_bits(rows):
    """As for R_F: every R_D entry of the mixed loop has the bits of its
    scalar carlson_rd call."""
    _assert_scalar_bits(rows, 1)


def test_empty_arrays_give_empty_integrals():
    rf, rd = carlson_arrays([(np.empty(0), 1.0, 2.0)] * 3, [(0.0, np.empty(0), 2.0)] * 2)
    assert rf.shape == (3, 0) and rd.shape == (2, 0)
    lhs, d = sy.closure_lhs_with_d(np.empty(0))  # scan-closure --steps 0
    assert lhs.shape == d.shape == (0,)


def test_array_closure_runs_one_duplication_loop(monkeypatch):
    """The three R_F and two R_D of every Q of an array share one loop."""
    duplicate, calls = nm._duplicate, []
    monkeypatch.setattr(nm, "_duplicate", lambda *a: calls.append(1) or duplicate(*a))
    sy.closure_lhs_with_d(np.geomspace(1.01, 100.0, 50))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "bad",
    [lambda x, y, z: carlson_rf(0.0, 0.0, z), lambda x, y, z: carlson_rf(-1.0, y, z)],
    ids=["inf", "nan"],
)
@pytest.mark.parametrize(
    "inv",
    [el.invariants_from_qQ(0.3, 0.7), el.invariants_from_qQ(-0.5, 1.5), el.invariants_from_Ptau(-1.0, 8.0),
     el.invariants_from_Ptau(1.0, 2.0)],
    ids=["B1", "B3", "C4", "C1"],
)
def test_lame_parameter_c_rejects_non_finite_rf(inv, bad, monkeypatch):
    monkeypatch.setattr(sy, "carlson_rf", bad)
    with pytest.raises(NoSuchC):
        sy.lame_parameter_c(inv)


# ---------------------------------------------------------------------------
# Brent solver

TABLE_PAIRS = [(3, 4), (4, 5), (29, 37), (17, 24)]
#: every closing ratio n/m in ]1, sqrt 2[ with m < 16, m and n coprime
CLOSURE_PAIRS = [
    (m, n) for m in range(2, 16) for n in range(m + 1, 2 * m) if gcd(m, n) == 1 and n * n < 2 * m * m
]


def _solve_counted(solver, f, a, b, **tol):
    """The root (or "no convergence") and every argument f was called at."""
    xs = []
    try:
        root = solver(lambda x: xs.append(x) or f(x), a, b, **tol)
    except RuntimeError:
        root = "no convergence"
    return root, xs


@pytest.mark.parametrize("m,n", TABLE_PAIRS + CLOSURE_PAIRS)
def test_brent_root_repeats_brentq_on_closure(m, n):
    def f(q):
        return sy.closure_lhs(q) - n / m

    tol = dict(xtol=1e-13, rtol=4e-15)
    want = _solve_counted(brentq, f, 1.001, 1000.0, **tol)
    got = _solve_counted(brent_root, f, 1.001, 1000.0, **tol)
    assert got == want  # the same root bit for bit, from the same f calls


@pytest.mark.parametrize(
    "f,a,b",
    [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.atan(x - 0.3) + 0.1 * (x - 0.3) ** 3, -6.0, 8.0),
        (lambda x: (x - 0.7) ** 3, -4.0, 5.0),  # flat root: no convergence in 100 steps at xtol 1e-13
        (lambda x: 1e-110 * (x**3 - 2.0 * x - 5.0), 2.0, 3.0),  # the quadratic step's denominator underflows
        (lambda x: math.floor(3.0 * x - 1.1) + 0.5, -5.0, 5.0),  # a jump, no root
        (lambda x: x, -1.0, 1.0),  # root at the bracket midpoint
        (lambda x: x - 2.0, 2.0, 3.0),  # root at an end
    ],
)
@pytest.mark.parametrize("xtol", [1e-13, 1e-6])
def test_brent_root_repeats_brentq(f, a, b, xtol):
    tol = dict(xtol=xtol, rtol=4e-15)
    assert _solve_counted(brent_root, f, a, b, **tol) == _solve_counted(brentq, f, a, b, **tol)


def test_brent_root_needs_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 4e-15)


@pytest.mark.parametrize("n", [256, 257, 6 * 577])
def test_multi_order_spectral_derivative_repeats_single_orders(n, rng):
    s = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    y = np.exp(np.cos(s)) * np.sin(3.0 * s) + 1e-13 * rng.standard_normal(n)  # noise sets the cut
    h = s[1] - s[0]
    orders = (3, 1, 4, 2)
    many = diff_spectral(y, h, orders)
    for m, d in zip(orders, many):
        assert np.array_equal(d, diff_spectral(y, h, m))
    assert all(np.array_equal(a, diff_samples(y, h, m, periodic=True)) for m, a in zip(orders, many))


def test_multi_order_smoothed_derivative_repeats_single_orders(rng):
    y = np.cumsum(rng.standard_normal(900)) * 1e-2
    many = diff_samples(y, 0.01, (1, 2, 3), window=101)
    for m, d in zip((1, 2, 3), many):
        assert np.array_equal(d, diff_smoothed(y, 0.01, m, window=101))


def test_one_transform_for_many_orders(rfft_calls):
    diff_spectral(np.sin(np.linspace(0.0, 6.0, 300, endpoint=False)), 0.02, (1, 2, 3, 4))
    assert rfft_calls == [300]


def _assert_transforms_match_numpy(n, rng):
    """_rfft and _irfft against np.fft to 4e-15 of the largest output, and a round trip."""
    y = rng.standard_normal(n)
    want = np.fft.rfft(y)
    got = _rfft(y)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))
    # irfft ignores the imaginary parts of the zero and (even n) Nyquist modes
    f = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    want = np.fft.irfft(f, n)
    got = _irfft(f, n)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))
    assert np.max(np.abs(_irfft(_rfft(y), n) - y)) <= 1e-14 * np.max(np.abs(y))


@pytest.mark.parametrize(
    "n,batched",
    [
        (2 * 577, False),  # one complex transform of prime length: nothing to batch
        (4 * 577, True),
        (3 * 1999, False),  # odd: closed grids are 2m x samples per period long, so none is
        (2 * 11 * 1999, True),
        (2 * 97**2, False),  # pocketfft's generic radix pass handles 97
        (2 * 257**2, True),  # the length-r transforms have the large prime too
        (1999, False),
        (4096, False),
    ],
)
def test_batched_transforms_match_numpy(n, batched, rng):
    assert (_batch_plan(n) is not None) == batched
    _assert_transforms_match_numpy(n, rng)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([251, 257, 577, 1009, 1999]), r=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1))
def test_transforms_match_numpy_at_any_length(p, r, seed):
    _assert_transforms_match_numpy(r * p, np.random.default_rng(seed))


def _g17_rows(values: np.ndarray) -> bytes:
    """CSV rows: "%.17g" per value, "," between, "\n" after each row."""
    return format_numbers(values, "%.17g", b"," * (values.shape[1] - 1) + b"\n")


def _percent_rows(values: np.ndarray) -> bytes:
    """The reference _g17_rows keeps: "%.17g" by "%" over every value."""
    rows, cols = values.shape
    return ((",".join(["%.17g"] * cols) + "\n") * rows % tuple(values.ravel().tolist())).encode()


def _first_difference(got: bytes, want: bytes) -> str:
    for i, (a, b) in enumerate(zip(got.split(b"\n"), want.split(b"\n"))):
        if a != b:
            return f"row {i}: {a!r} != {b!r}"
    return f"{len(got)} bytes != {len(want)} bytes"


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3), min_size=1, max_size=50))
def test_g17_rows_are_percent_format(rows):
    values = np.array(rows).reshape(-1, 3)
    got, want = _g17_rows(values), _percent_rows(values)
    assert got == want, _first_difference(got, want)


def _g17_corpus(rng) -> np.ndarray:
    """About 1.7 million doubles from 1e-320 to 1e300 of both signs.

    Besides log-uniform draws over that range and over the fixed-notation
    decades [1e-4, 1e16), it holds every exact 17-digit tie k / 2^(q+1), k
    odd, for q = 1..20, and the doubles next to them; 50 doubles on each
    side of every power of ten, where log10 can miss the decade and a
    rounding up into the next one would show; 2^53 +- k; short decimals,
    whose trailing zeros are trimmed; +-0 and 5e-324.
    """
    parts = [10.0 ** rng.uniform(-320.0, 300.0, 300_000), 10.0 ** rng.uniform(-4.0, 16.0, 300_000)]
    for q in range(1, 21):
        lo, hi = 10 ** (16 - q) * 2 ** (q + 1), min(10 ** (17 - q) * 2 ** (q + 1), 2**53)
        ties = (2 * rng.integers(lo // 2, hi // 2, 2_000) + 1) / 2.0 ** (q + 1)
        parts += [ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)]
    below = above = 10.0 ** np.arange(-320, 301)
    parts.append(below)
    for _ in range(50):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        parts += [below, above]
    parts.append(2.0**53 + np.arange(-1000.0, 1001.0))
    parts.append(rng.integers(1, 10_000, 50_000) * 10.0 ** rng.integers(-8, 12, 50_000))
    parts.append(np.array([
        0.0, 5e-324, 1e-4, 1e16, 9.9999999999999995e-05, 9999999999999999.5,
        1234567890123456.25, 1234567890123457.25, 1234567890123456.75,
    ]))
    values = np.concatenate(parts)
    return np.concatenate([values, -values, [-0.0]])


def test_g17_corpus_is_percent_format(rng):
    values = _g17_corpus(rng)
    assert len(values) >= 1_000_000
    rows = rng.permutation(np.concatenate([values, np.zeros(-len(values) % 3)])).reshape(-1, 3)
    got, want = _g17_rows(rows), _percent_rows(rows)
    assert got == want, _first_difference(got, want)


@pytest.mark.parametrize(
    "value,text",
    [
        (1234567890123456.25, "1234567890123456.2"),
        (1234567890123457.25, "1234567890123457.2"),
        (1234567890123456.75, "1234567890123456.8"),
        (9999999999999999.5, "10000000000000000"),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (0.0001, "0.0001"),
        (-123456789.0, "-123456789"),
    ],
)
def test_g17_ties_and_carries(value, text):
    assert _g17_rows(np.array([[value]])) == (text + "\n").encode()


@pytest.mark.parametrize("cols", [1, 2, 5])
def test_g17_any_number_of_columns(cols, rng):
    values = rng.standard_normal((4100, cols)) * 10.0 ** rng.uniform(-6.0, 18.0, (4100, cols))
    got, want = _g17_rows(values), _percent_rows(values)
    assert got == want, _first_difference(got, want)


def _percent_values(values: np.ndarray, fmt: str) -> bytes:
    """The reference format_numbers keeps: ``fmt % x`` by "%" for every value, "\\n" after each."""
    return ((fmt + "\n") * len(values) % tuple(values.tolist())).encode()


@pytest.mark.parametrize("fmt", ["%r", "%.6f"])
def test_number_corpus_is_percent_format(fmt, rng):
    """The corpus of the "%.17g" test through the repr and "%.6f" rules."""
    values = rng.permutation(_g17_corpus(rng))
    assert len(values) >= 1_000_000
    got, want = format_numbers(values, fmt, b"\n"), _percent_values(values, fmt)
    assert got == want, _first_difference(got, want)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=150),
       st.sampled_from(["%r", "%.6f"]))
def test_numbers_are_percent_format(values, fmt):
    values = np.array(values)
    got, want = format_numbers(values, fmt, b"\n"), _percent_values(values, fmt)
    assert got == want, _first_difference(got, want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-4, 1e10), min_size=1, max_size=150), st.integers(0, 6))
def test_f6_values_at_every_decimal(values, places):
    """Values near short decimals and ties of the sixth decimal, where "%.6f" rounds."""
    values = np.round(np.array(values), places) + np.array([0.0, 5e-7, -5e-7])[np.arange(len(values)) % 3]
    for fmt in ("%r", "%.6f"):
        got, want = format_numbers(values, fmt, b"\n"), _percent_values(values, fmt)
        assert got == want, _first_difference(got, want)


def test_repr_of_powers_of_two():
    """Every power of two in the fixed-notation range, where the gap below is half the gap above, and its neighbours."""
    powers = np.ldexp(1.0, np.arange(-14, 54))
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    got, want = format_numbers(values, "%r", b"\n"), _percent_values(values, "%r")
    assert got == want, _first_difference(got, want)


@pytest.mark.parametrize(
    "value,fmt,text",
    [
        (608656095433.09375, "%r", "608656095433.0938"),
        (756417430827089.75, "%r", "756417430827089.8"),
        (0.09999999999999999, "%r", "0.09999999999999999"),
        (9.999999999999999e-05, "%r", "9.999999999999999e-05"),
        (1e16, "%r", "1e+16"),
        (1500.0, "%r", "1500.0"),
        (-0.0, "%r", "-0.0"),
        (-0.0, "%.6f", "-0.000000"),
        (-1e-9, "%.6f", "-0.000000"),
        (0.0078125, "%.6f", "0.007812"),
        (5e-324, "%r", "5e-324"),
        (5e-324, "%.6f", "0.000000"),
        (0.0001, "%.6f", "0.000100"),
        (9999999999.9999981, "%.6f", "9999999999.999998"),
        (1e22, "%.6f", "10000000000000000000000.000000"),
        (-(2.0**128), "%.6f", "-340282366920938463463374607431768211456.000000"),
    ],
)
def test_number_ties_and_fallbacks(value, fmt, text):
    assert format_numbers(np.array([value]), fmt, b"\n") == (text + "\n").encode()
    assert fmt % value == text


@pytest.mark.parametrize("n", [1, 2, 3, 4, 101, 1000])
def test_median_is_numpy_median(n, rng):
    """The same value as np.median, for odd and even n, and NaN when any value is NaN."""
    for scale in (1e-300, 1.0, 1e300):
        values = rng.standard_normal(n) * scale
        assert median(values) == np.median(values)
        values[rng.integers(n)] = np.nan
        assert math.isnan(median(values))
