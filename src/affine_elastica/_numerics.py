"""Shared numerical kernels: derivatives, quadrature, resampling, R_F and a root solver.

Curve samples are differentiated by ``diff_samples``: filtered Fourier
symbols for closed curves, long local least-squares stencils for open ones.
The open-arc filter is kept in factors, the window's least-squares
projector and one derivative matrix per order, each of window x (degree + 1)
elements: its centre stencils run as one FFT convolution at a 5-smooth
length and each end as one fit.  The closed-curve transforms are np.fft's,
except at even lengths with a prime factor above ``_BATCH_PRIME`` (closed
grids are 2m x samples per period long, so a prime sample count gives one):
there ``_rfft``/``_irfft`` run the prime factor as one batched transform
(four-step), which pocketfft would otherwise take by Bluestein over the
whole length.  ``resample_uniform`` moves samples at increasing nodes onto a
uniform grid by one spline; it is the only kernel here that imports scipy,
on first use.  ``carlson_rf`` (K(m) and the Lame parameter c; for a batch
of lattices ``carlson_rf_array``, with the same bits) and
``brent_root`` (the closure solve) spare the CLI any scipy import, and
``median`` the numpy.ma import of np.median.  ``format_numbers`` writes
the numbers of curve files from one digit-slot kernel: "%.17g" for CSV
rows, "%.6f" for SVG points and repr for JSON sample lists.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np


# Modes past the last one above this fraction of the peak are cut.  Single
# rounding-noise modes of closed curves reach 1.4e-13 of the peak; a floor
# below that keeps them for the (i k)^order symbol to amplify.
_SPECTRAL_FLOOR = 1e-12

# Lengths whose largest prime factor exceeds this run the batched transform
# below.  Up to it numpy's pocketfft handles the factor by a generic radix
# pass and is faster; past it pocketfft runs Bluestein over the whole length
# and the batched transform wins (crossover near 200-230 with numpy 2.4).
_BATCH_PRIME = 250


def _largest_prime_factor(n: int) -> int:
    big, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            big, n = d, n // d
        d += 1
    return max(big, n)


@lru_cache(maxsize=2)
def _batch_plan(n: int):
    """Factors and twiddles for a real transform of length n, or None for np.fft.

    An even n packs y[0::2] + i y[1::2] into one complex transform of length
    N = n/2; N = r p with p its largest prime factor runs four-step (see
    _four_step).  An odd n goes to np.fft: closed grids are 2m x samples per
    period long, so no caller makes one.  Returns (r, p, twiddles, pack):
    twiddles[i, k] = w^(i k), w = exp(-2 pi i / N), of shape (r, p), and
    pack[k] = (1 - i exp(-2 pi i k/n)) / 2 for k <= n/2, which splits the
    packed spectrum into the real one.  The tables take 16 n bytes.
    """
    if n % 2:
        return None
    big = n // 2
    p = _largest_prime_factor(big)
    if p <= _BATCH_PRIME or p == big:  # smooth, or nothing to batch over
        return None
    r = big // p
    twiddles = np.exp(-2j * np.pi / big * (np.outer(np.arange(r), np.arange(p)) % big))
    pack = 0.5 - 0.5j * np.exp(-1j * np.pi / big * np.arange(big + 1))
    pack[-1] = 0.5 + 0.5j  # exactly, so the Nyquist mode comes out real
    return r, p, twiddles, pack


def _four_step(z: np.ndarray, r: int, p: int, twiddles: np.ndarray) -> np.ndarray:
    """DFT of complex z of length r p (Bailey's four-step).

    With input index i + r j and output index k2 + p k1 (i, k1 < r; j, k2 < p)
    the DFT is r length-p transforms over j, the twiddles w^(i k2) and p
    length-r transforms over i; numpy runs each batch on one plan.
    """
    a = np.fft.fft(z.reshape(p, r).T, axis=1)
    a *= twiddles
    return np.ascontiguousarray(np.fft.fft(a, axis=0)).reshape(-1)


def _rfft(y: np.ndarray) -> np.ndarray:
    """np.fft.rfft(y), batched over the large prime factor of len(y) (see _batch_plan)."""
    n = len(y)
    plan = _batch_plan(n)
    if plan is None:
        return np.fft.rfft(y)
    r, p, twiddles, pack = plan
    z = _four_step(np.ascontiguousarray(y).view(complex), r, p, twiddles)
    # Y[k] = Z[k] / 2 + conj(Z[N - k]) / 2 - i/2 exp(-2 pi i k/n) (Z[k] - conj(Z[N - k]))
    z = np.append(z, z[0])
    zc = z[::-1].conj()
    z -= zc
    z *= pack
    z += zc
    return z


def _irfft(f: np.ndarray, n: int) -> np.ndarray:
    """np.fft.irfft(f, n) for len(f) = n // 2 + 1, batched as _rfft is.

    The inverse DFT is conj(DFT(conj(.))) / N, so the conjugate spectrum is
    packed as _rfft packs and transformed forward on the same tables.
    """
    plan = _batch_plan(n)
    if plan is None:
        return np.fft.irfft(f, n)
    r, p, twiddles, pack = plan
    fc = f[::-1]
    z = f.conj()
    z -= fc
    z *= pack
    z += fc
    z = z[:-1]
    # only z[0] reads f[0] and f[n/2], whose imaginary parts irfft ignores
    a, b = f[0].real, f[-1].real
    z[0] = complex(0.5 * (a + b), 0.5 * (b - a))
    out = _four_step(z, r, p, twiddles).view(float).reshape(-1, 2)
    out *= (1.0 / len(z), -1.0 / len(z))
    return out.reshape(-1)


def diff_spectral(y: np.ndarray, h: float, order: int | tuple[int, ...]):
    """Derivative of smooth periodic samples by filtered Fourier symbol.

    Plain stencil cascades are rounding-limited near 1e-6 for kappa''-type
    chains; for analytic periodic data the spectrum decays below the noise
    floor, so modes past that point carry only rounding noise and are cut
    before applying (i k)^order.  ``order`` is one order, which returns one
    array, or a tuple of orders, which returns a tuple of arrays from one
    transform and one cut; each has the bits of its single-order call.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    fh = _rfft(y)
    mag = np.abs(fh)
    mmax = float(mag.max())
    if mmax > 0.0:
        tail = np.maximum.accumulate(mag[::-1])[::-1]
        below = np.nonzero(tail < _SPECTRAL_FLOOR * mmax)[0]
        if len(below):
            kcut = min(2 * int(below[0]) + 4, len(fh) - 1)
            fh[kcut + 1 :] = 0.0
    k = 2.0 * np.pi * np.arange(len(fh)) / (n * h)

    def derivative(m):
        fm = fh * (1j * k) ** m
        if n % 2 == 0 and m % 2 == 1:
            fm[-1] = 0.0  # Nyquist mode has no odd-derivative counterpart
        return _irfft(fm, n)

    return derivative(order) if np.ndim(order) == 0 else tuple(derivative(m) for m in order)


_SMOOTH_DEGREE = 10  # polynomial degree of the open-arc derivative filter
#: the windows that filter_window writes; the upper one also caps effective_window
FILTER_WINDOW_BOUNDS = (101, 401)


def _window_nodes(window: int) -> np.ndarray:
    half = (window - 1) / 2.0
    return (np.arange(window) - half) / half


@lru_cache(maxsize=16)
def _fit_projector(window: int, degree: int) -> np.ndarray:
    """P = pinv(chebvander(t, degree)), of shape (degree + 1, window).

    P @ y holds the Chebyshev coefficients of the least-squares polynomial
    through the window's samples y at the nodes t in [-1, 1].
    """
    proj = np.linalg.pinv(np.polynomial.chebyshev.chebvander(_window_nodes(window), degree))
    proj.flags.writeable = False  # every caller shares the cached array
    return proj


@lru_cache(maxsize=48)
def _fit_derivative(window: int, degree: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(D, centre): the order-th derivative of a window's fit, in units of t.

    D = chebvander(t, degree - order) @ chebder(I, order), of shape
    (window, degree + 1), takes fit coefficients to the derivative at every
    node (column k of chebder(I, order) holds the coefficients of
    T_k^(order)).  ``centre`` = D[half] @ P is the stencil of the middle
    node, shifted for order >= 1 to sum to zero so that it annihilates
    constants exactly.  The (window, window) filter D @ P (Savitzky-Golay on
    a Chebyshev basis) is never formed.
    """
    cheb = np.polynomial.chebyshev
    t = _window_nodes(window)
    dvals = cheb.chebvander(t, max(degree - order, 0)) @ cheb.chebder(np.eye(degree + 1), order)
    centre = dvals[(window - 1) // 2] @ _fit_projector(window, degree)
    if order >= 1:
        centre -= centre.mean()
    dvals.flags.writeable = centre.flags.writeable = False
    return dvals, centre


@lru_cache(maxsize=64)
def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def effective_window(n: int, window: int | None = None) -> int:
    """Smoothing-stencil length used by diff_smoothed for n samples."""
    if window is None:
        window = max(41, n // 16)
    window = min(window, FILTER_WINDOW_BOUNDS[1], n if n % 2 else n - 1)
    if window % 2 == 0:
        window += 1
    return window


def filter_window(rho: float, h: float) -> int:
    """Odd smoothing window of 0.2 rho / h nodes, clipped to ``FILTER_WINDOW_BOUNDS``.

    rho is the distance to the nearest singularity; the bias grows like (window / rho)^(degree+1).
    """
    win = int(np.clip(0.2 * rho / h, *FILTER_WINDOW_BOUNDS))
    return win if win % 2 else win + 1


def trusted_interior(n: int, closed: bool, window: int | None = None) -> slice:
    """Nodes trusted by residual norms: all when closed, else all but the
    one-sided zones of diff_smoothed (half its window, at least 3 nodes).
    """
    if closed:
        return slice(None)
    skip = max(3, effective_window(n, window) // 2)
    return slice(skip, n - skip)


def diff_smoothed(y: np.ndarray, h: float, order: int | tuple[int, ...], window: int | None = None):
    """Noise-suppressing derivative for open arcs (local polynomial fit).

    A least-squares polynomial of degree ``_SMOOTH_DEGREE`` over ``window``
    nodes acts as a long centered stencil: rounding noise shrinks with the
    window while the fit stays exact for resolved scales.  The default
    window is n // 16, clamped to [41, 401] and forced odd.  Estimates
    within half a window of the ends come from off-center fits and are
    markedly less accurate; residual norms should exclude them.

    ``order`` is one order or a tuple of orders, as in ``diff_spectral``.
    The centre stencils run as one FFT convolution of y - y[n // 2] at a
    5-smooth length >= n, which cannot wrap into the valid outputs.  Each
    end takes one fit, P @ (y_w - y_w[half]), shared by every order.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    orders = (order,) if np.ndim(order) == 0 else tuple(order)
    window = effective_window(n, window)
    degree = min(_SMOOTH_DEGREE, window - 2)
    half = (window - 1) // 2
    fits = [_fit_derivative(window, degree, m) for m in orders]
    scales = [(half * h) ** m for m in orders]

    size = _fft_length(n)
    ref = y[n // 2]
    stencils = np.array([centre[::-1] / scale for (_, centre), scale in zip(fits, scales)])
    spectra = np.fft.rfft(stencils, size)
    spectra *= np.fft.rfft(y - ref, size)
    core = np.fft.irfft(spectra, size)[:, window - 1 : n]

    refs = y[half], y[n - 1 - half]
    ends = np.column_stack([y[:window] - refs[0], y[n - window :] - refs[1]])
    coef = _fit_projector(window, degree) @ ends
    out = []
    for m, (dvals, _), scale, mid in zip(orders, fits, scales, core):
        d = np.empty(n)
        d[half : n - half] = mid
        d[:half] = dvals[:half] @ (coef[:, 0] / scale)
        d[n - half :] = dvals[half + 1 :] @ (coef[:, 1] / scale)
        if m == 0:  # a smoothed value keeps the constants subtracted above
            d += np.repeat([refs[0], ref, refs[1]], [half, n - 2 * half, half])
        out.append(d)
    return out[0] if np.ndim(order) == 0 else tuple(out)


def diff_samples(
    y: np.ndarray, h: float, order: int | tuple[int, ...], periodic: bool = False, window: int | None = None
):
    """Preferred derivative of curve samples: spectral when periodic, else smoothed.

    ``order`` is one order or a tuple of orders, as in ``diff_spectral``.
    """
    if periodic:
        return diff_spectral(y, h, order)
    return diff_smoothed(y, h, order, window=window)


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


def resample_uniform(nodes: np.ndarray, values: np.ndarray, n: int, periodic: bool = False):
    """Uniform grid of n points over [nodes[0], nodes[-1]] and one spline's values on it.

    ``values`` holds one row per node, of any trailing shape; a periodic
    spline takes the wrap node nodes[-1] as the first sample again, so
    ``values`` then has no row for it and the grid leaves it off.  The
    spline is quintic from 8 samples up, else cubic.  scipy.interpolate is
    imported on first use only.
    """
    from scipy.interpolate import make_interp_spline

    values = np.asarray(values, dtype=float)
    k = 5 if len(values) >= 8 else 3
    if periodic:
        values = np.concatenate([values, values[:1]])
    spline = make_interp_spline(nodes, values, k=k, bc_type="periodic" if periodic else None)
    grid = np.linspace(nodes[0], nodes[-1], n, endpoint=not periodic)
    return grid, spline(grid)


# Carlson's bound r on the truncation error of the fifth-order series;
# duplication stops once 4^-n max|A0 - x_k| < (3 r)^(1/6) |A_n|
_RF_ROOT6 = (3.0 * 2.0**-53) ** (1.0 / 6.0)


def carlson_rf(x, y, z):
    """Carlson's symmetric elliptic integral R_F(x, y, z) of one scalar triple.

    Duplication with the fifth-order series (Carlson 1995, Numer. Algorithms
    10; DLMF 19.36(i)); K(m) = R_F(0, 1 - m, 1) (DLMF 19.25(i)).  Complex
    arguments take principal square roots and give a complex.  As
    scipy.special.elliprf does, an argument that is NaN or on the negative
    real axis gives nan, an infinite one gives 0, and two zeros give inf.
    """
    kind = complex if isinstance(x, complex) or isinstance(y, complex) or isinstance(z, complex) else float
    args = x, y, z = kind(x), kind(y), kind(z)
    for a in args:
        if a != a or (a.imag == 0.0 and a.real < 0.0):
            return kind(math.nan)
    if math.inf in (abs(x), abs(y), abs(z)):
        return kind(0.0)
    if (x == 0.0) + (y == 0.0) + (z == 0.0) >= 2:
        return kind(math.inf)
    sqrt = cmath.sqrt if kind is complex else math.sqrt
    a0 = a = (x + y + z) / 3.0
    spread = max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    scale = 1.0  # 4^-n
    for _ in range(100):  # the spread shrinks 4-fold per step; a few dozen steps always suffice
        if spread * scale < _RF_ROOT6 * abs(a):
            break
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z, a = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0, (a + lam) / 4.0
        scale /= 4.0
    X, Y = ((a0 - v) * scale / a for v in args[:2])
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / sqrt(a)


def carlson_rf_array(x, y, z) -> np.ndarray:
    """``carlson_rf`` of real arrays x, y and z, broadcast together, entry by entry.

    One duplication loop serves every entry: an entry leaves it at the step
    where its scalar call stops, and each step is IEEE +, -, x, / and sqrt,
    so every entry has the bits of ``carlson_rf`` at its triple, the NaN,
    negative, infinite and two-zero rules included.
    """
    v = np.empty((3,) + np.broadcast(x, y, z).shape)
    v[0], v[1], v[2] = x, y, z
    shape, v = v.shape[1:], v.reshape(3, -1)
    nan = ~np.logical_and.reduce(v >= 0.0)  # a NaN or negative argument
    inf = np.logical_or.reduce(np.isinf(v))
    edge = nan | inf | (np.add.reduce(v == 0.0) >= 2)  # the rules' entries, else two zeros
    if np.count_nonzero(edge):
        v = np.where(edge, 1.0, v)  # a regular stand-in, so the loop below ends
    a0 = (v[0] + v[1] + v[2]) / 3.0
    spread = np.maximum.reduce(np.abs(a0 - v))
    q = np.concatenate((v, a0[None]))  # x, y, z and a
    # every entry duplicates until the last one stops; each keeps its a at every step
    steps, stops, scale = [a0], [], 1.0
    for _ in range(100):
        stops.append(spread * scale < _RF_ROOT6 * q[3])  # a > 0, so |a| = a
        if np.count_nonzero(stops[-1]) == len(a0):
            break
        r = np.sqrt(q[:3])
        q = (q + (r[0] * (r[1] + r[2]) + r[1] * r[2])) / 4.0
        steps.append(q[3])
        scale /= 4.0
    else:  # as in carlson_rf, an entry still duplicating after 100 steps takes the series there
        stops.append(np.ones_like(a0, dtype=bool))
    n = np.argmax(stops, axis=0)  # each entry's first stop
    A, S = np.array(steps)[n, np.arange(len(n))], np.ldexp(1.0, -2 * n)
    X, Y = (a0 - v[:2]) * S / A
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    out = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(A)
    if np.count_nonzero(edge):
        out = np.where(nan, math.nan, np.where(inf, 0.0, np.where(edge, math.inf, out)))
    return out.reshape(shape)


def brent_root(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of f in the bracket [a, b] by Brent's method (Brent 1973, ch. 4).

    Follows scipy.optimize.brentq step for step: the same iterates, the
    same f calls and the same stop once the bracket half-width is below
    (xtol + rtol |x|) / 2.  Raises ValueError when f(a) and f(b) have the
    same sign and RuntimeError after brentq's default 100 iterations.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best estimate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        interpolate = abs(spre) > delta and abs(fcur) < abs(fpre)
        if interpolate:
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # underflowed denominator: C brentq gets inf or nan and bisects
                stry = math.inf
            interpolate = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if interpolate else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError("no convergence in 100 iterations")


def median(a) -> float:
    """np.median of the values of a: NaN if any is NaN, (a + b) / 2 of the middle two for even n.

    One np.partition, as np.median makes, without the import of numpy.ma
    that np.median's first call costs a process.
    """
    a = np.ravel(a)
    k = len(a) // 2
    part = np.partition(a, (k - 1, k, -1) if len(a) % 2 == 0 else (k, -1))
    if np.isnan(part[-1]):  # partition sorts NaN last
        return math.nan
    return float((part[k - 1] + part[k]) / 2 if len(a) % 2 == 0 else part[k])


# ---------------------------------------------------------------------------
# number text: "%.17g", "%.6f" and repr from one digit-slot kernel

_BLOCK = 6144  # values formatted at a time; keeps the temporaries near 1 MB
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for binary64
_SLOT = 40  # bytes per value: "-0.000", then 17 digits, each but the last followed by "."
_SEP = 39  # slot byte of the separator, after the last digit


@lru_cache(maxsize=1)
def _slot_tables():
    """Tables of the slots of ``format_numbers``, built on first use.

    ``heads`` holds the first word of a slot, "-0.000d.", for d = 0..9,
    ``quads`` holds "d.d.d.d." for 0000..9999 as uint64 words and ``trail``
    the trailing zeros of each (4 for 0000).  ``keep`` holds the byte mask of
    a slot, as 5 uint64 words, for each (sign, exponent + 4, significant
    digits - 1).
    """
    quads = np.arange(10000)
    text = np.full((10000, 8), ord("."), np.uint8)
    text[:, ::2] = quads[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    trail = sum(quads % 10**k == 0 for k in range(1, 5)).astype(np.uint8)
    neg, x, nd = (a.reshape(-1, 1) for a in np.meshgrid([0, 1], np.arange(-4, 16), np.arange(1, 18), indexing="ij"))
    b = np.arange(_SLOT)
    digit = (b - 6) // 2  # the digit at slot byte b >= 6, or that the point at b follows
    inside = (b >= 6) & (b < _SEP)
    keep = (b == 0) & (neg == 1)
    keep |= (b >= 1) & (b <= 1 - x) & (x < 0)  # "0." and the zeros before the digits
    keep |= inside & (b % 2 == 0) & ((digit < nd) | (digit <= x))
    keep |= inside & (b % 2 == 1) & (digit == x) & (nd > x + 1)
    keep |= b == _SEP
    heads = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64)
    return heads, text.view(np.uint64).ravel(), trail, keep.view(np.uint64)


@lru_cache(maxsize=1)
def _powers_of_ten():
    """10^q, q <= 20, exact in binary64, with its Veltkamp halves, and 10^k, k <= 17, as int64."""
    p10 = np.array([float(10**q) for q in range(21)])
    split = _SPLIT * p10
    p10_hi = split - (split - p10)
    return p10, p10_hi, p10 - p10_hi, 10 ** np.arange(18, dtype=np.int64)


def _times_p10(a: np.ndarray, q) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi = fl(a 10^q) and hi + lo = a 10^q exactly, for q <= 20.

    10^q is exact there, so Dekker's two-product (Numer. Math. 18, 1971)
    leaves no error.
    """
    p10, p10_hi, p10_lo, _ = _powers_of_ten()
    b, b_hi, b_lo = p10[q], p10_hi[q], p10_lo[q]
    hi = a * b
    split = _SPLIT * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _decade(a: np.ndarray):
    """(X, hi, lo, ok): X = floor(log10 a), a 10^(16 - X) = hi + lo, ok where that lies in [1e16, 1e17).

    hi is then an even integer above 2^53.  ok is False where log10 missed
    the decade (a clip only moves X towards it).
    """
    x = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
    hi, lo = _times_p10(a, 16 - x)
    ok = ((hi > 1e16) | ((hi == 1e16) & (lo >= 0.0))) & ((hi < 1e17) | ((hi == 1e17) & (lo < 0.0)))
    return x, hi, lo, ok


def _g17_digits(a: np.ndarray):
    """The 17 digits of "%.17g": N = round_half_even(a 10^(16 - X)).

    N = hi + rint(lo) is exact, ties included.  N never rounds up to 10^17:
    below each power of ten, the largest double lies 8.7 or more units of
    the 17th digit under it.  Trailing zeros are dropped.
    """
    x, hi, lo, ok = _decade(a)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), x, 1, ok


def _f6_digits(a: np.ndarray):
    """The digits of "%.6f": N = round_half_even(a 10^6), all X + 7 of them.

    With a 10^6 = hi + lo and r = rint(hi), f = hi - r is exact and a tie
    of hi + lo is f = +-0.5, which lo decides by its sign.  Where hi >= 2^52
    f is 0 and N = hi + rint(lo), as for "%.17g".  The point goes after
    digit X = floor(log10 N) - 6, taken exactly from N.
    """
    p10_int = _powers_of_ten()[3]
    hi, lo = _times_p10(a, 6)
    r = np.rint(hi)
    f = hi - r
    n = r.astype(np.int64) + np.rint(lo).astype(np.int64)
    n += ((np.abs(f) == 0.5) & (f * lo > 0.0)) * np.sign(f).astype(np.int64)
    digits = np.searchsorted(p10_int, n, side="right")  # of n
    return n * p10_int[17 - digits], digits - 7, digits, True


def _divmod(n: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod(n, p) by one floor division, which numpy runs several times faster for a scalar p."""
    q = n // p
    return q, n - q * p


def _shortest_digits(a: np.ndarray):
    """The digits of float.__repr__: the shortest that read back as a (Steele & White 1990).

    Scaled like C = a 10^(16 - X) = hi + lo, the values that read back as a
    fill [C - w, C + w], w = ulp(a) 10^(16 - X) / 2, exact as 5^(16 - X) <
    2^53.  In this range lo +- w is a multiple of 2^-48 under 20, so exact,
    and the ends need no care: they are multiples of ten only from 2^53 up,
    where C itself is one, and the halved gap below a power of two changes
    none of the 68 in range (the tests check each).  The digits are the
    multiple of 10^j nearest C for the largest j with a multiple of 10^j
    inside, a tie going to the even digit, as Gay's dtoa mode 0 (which repr
    uses) picks them.  The interval spans at most 22 units, so it holds at
    most one multiple of 100, which is then the one multiple of 10^j inside
    for every larger j; as it is symmetric, it holds the multiple of ten
    nearest C if it holds any.  A multiple at 10^17 would move up a decade
    and goes to repr; none is inside, as the largest double under a power
    of ten lies a whole ulp below it.  Integral values keep one zero after
    the point.
    """
    p10 = _powers_of_ten()[0]
    x, hi, lo, ok = _decade(a)
    w = np.ldexp(p10[16 - x], np.frexp(a)[1] - 54)
    top = hi.astype(np.int64)
    lower = top + np.ceil(lo - w).astype(np.int64)
    upper = top + np.floor(lo + w).astype(np.int64)
    rint = np.rint(lo)
    frac = lo - rint
    n = top + rint.astype(np.int64)  # round(C) = C - frac, always inside
    tens, ones = _divmod(n, 10)
    tens += (ones > 5) | ((ones == 5) & ((frac > 0.0) | ((frac == 0.0) & (tens % 2 == 1))))
    n = np.where(upper // 10 * 10 >= lower, 10 * tens, n)
    hundreds = upper // 100 * 100
    n = np.where(hundreds >= lower, hundreds, n)
    return n, x, x + 2, ok & (n < 10**17)


_DIGITS = {"%.17g": (_g17_digits, 1e16), "%.6f": (_f6_digits, 1e10), "%r": (_shortest_digits, 1e16)}


def _format_block(v: np.ndarray, seps: np.ndarray, fmt: str) -> bytes:
    """The text ``fmt % x`` of each value x of v, each followed by its separator byte.

    Each value fills a slot: a value with 1e-4 <= |v| below the rule's bound
    gets its digits from the rule, as a 17-digit integer, the exponent X of
    its first digit and the fewest digits to print.  The slot's mask keeps
    the sign, "0." and -X - 1 zeros when X < 0, the digits without trailing
    zeros but at least that many, and the point after digit X when a digit
    follows it.  Every other value, and any the rule could not place, is
    formatted by "%", in its slot or, when wider, spliced in after the
    compress.
    """
    heads, quads, trail, keep_table = _slot_tables()
    rule, bound = _DIGITS[fmt]
    a = np.abs(v)
    ok = (a >= 1e-4) & (a < bound)
    digits, x, fewest, placed = rule(np.where(ok, a, 1.0))
    ok &= placed
    lead, rest = _divmod(digits, 10**16)
    g1, rest = _divmod(rest, 10**12)
    g2, rest = _divmod(rest, 10**8)
    g3, g4 = _divmod(rest, 10**4)
    slots = np.empty((len(v), _SLOT // 8), np.uint64)
    text = slots.view(np.uint8)
    for col, (table, i) in enumerate(((heads, lead), (quads, g1), (quads, g2), (quads, g3), (quads, g4))):
        np.take(table, i, out=slots[:, col], mode="clip")  # lead > 9 only where ~ok
    text[:, _SEP] = seps
    zeros = trail[g4] + (g4 == 0) * (trail[g3] + (g3 == 0) * (trail[g2] + (g2 == 0) * trail[g1]))
    key = (np.signbit(v) * 20 + (x + 4)) * 17 + (np.maximum(17 - zeros, fewest) - 1)
    key[~ok] = 0
    keep = np.take(keep_table, key, axis=0).view(bool)
    fall = np.flatnonzero(~ok)
    if not len(fall):
        return np.compress(keep.ravel(), text.ravel()).tobytes()
    other = [(fmt % u).encode() for u in v[fall].tolist()]
    wide = np.array([len(t) > _SEP for t in other], bool)
    slot = np.array([b"" if w else t for t, w in zip(other, wide)], dtype=f"S{_SEP}")
    text[fall, :_SEP] = slot.view(np.uint8).reshape(-1, _SEP)  # NUL-padded
    keep[fall, :_SEP] = text[fall, :_SEP] != 0
    out = np.compress(keep.ravel(), text.ravel())
    if wide.any():  # in front of the separator, the one byte its slot kept
        at = (np.cumsum(keep.sum(axis=1)) - 1)[fall[wide]]
        spliced = [t for t, w in zip(other, wide) if w]
        out = np.insert(out, np.repeat(at, [len(t) for t in spliced]), np.frombuffer(b"".join(spliced), np.uint8))
    return out.tobytes()


def format_numbers(values, fmt: str, seps: bytes) -> bytes:
    r"""ASCII bytes of ``fmt % x`` for each value x in C order, each followed by its separator.

    ``fmt`` is "%.17g", "%.6f" or "%r" (float.__repr__); ``seps`` holds one
    separator byte per value and repeats, so b",,\n" over an (n, 3) array
    gives CSV rows.
    """
    v = np.ravel(np.asarray(values, dtype=float))
    seps = np.tile(np.frombuffer(seps, np.uint8), -(-len(v) // len(seps)))[: len(v)]
    return b"".join(
        _format_block(v[start : start + _BLOCK], seps[start : start + _BLOCK], fmt)
        for start in range(0, len(v), _BLOCK)
    )
