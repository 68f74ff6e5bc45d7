"""Weierstrass elliptic kernel for real invariants (g2, g3).

Strategy: pick a half-period frame (W1, W3) for the period lattice such that
the nome q = exp(i*pi*W3/W1) satisfies |q| <= exp(-pi/2), reduce arguments to
the fundamental cell, and evaluate wp, wp', zeta and sigma through the first
Jacobi theta function and its first three derivatives.  Half-periods come
from the cubic roots of 4t^3 - g2 t - g3 and the complete elliptic integral
K(m) = R_F(0, 1 - m, 1) (DLMF 19.25(i)), from the in-package Carlson R_F.
Everything is double precision; lattices with vanishing discriminant are
rejected.

After reduction |Im u| <= pi Im(tau)/2, so term n of the theta series and
of its first three derivatives is at most (2n+1)^3 |q|^(n^2 - 1/4).  The
series stops after 7 terms (``_THETA_TERMS``): the first dropped one, n = 7,
is below 1e-29.  ``weierstrass`` returns (wp, wp', zeta, log sigma) from one
theta evaluation per argument; the single-function kernels compute the
same values from the same evaluation.

A theta evaluation takes e^(iu) once and gets every e^(+-i(2n+1)u) from it
by the rotation recurrence, multiplying by e^(+-2iu); no sin or cos is
called per term.  The coefficients of those powers in theta1 and its first
three derivatives, 2 (-1)^n e^(i pi tau (n+1/2)^2) (+-i(2n+1))^k / (+-2i),
are computed once per lattice and kept in the cached frame, and
theta1'(0) and theta1'''(0) are their plain sums.  A scalar argument goes
through the same array loops as an array, so it gets the same bits.

Each lattice is built once per (g2, g3) and cached as one frame: the theta
coefficients and the checked ``LatticeData``.  The build evaluates wp(w1)
and zeta(w1) on the new frame and checks them on the roots' own scale, so
``half_periods`` and the first kernel call on a lattice both run the check.

All functions are pure and accept scalars or ndarrays for the argument z;
they are safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._numerics import carlson_rf
from .errors import DegenerateDiscriminant, DomainError, NearPole

__all__ = [
    "Invariants",
    "LatticeData",
    "half_periods",
    "weierstrass",
    "wp",
    "wp_prime",
    "zeta_w",
    "sigma_w",
    "log_sigma_w",
    "invariants_from_qQ",
    "invariants_from_Ptau",
    "cubic_roots",
]

#: relative discriminant threshold below which a lattice is refused
DEGENERACY_RTOL = 1e-12

#: distance from a lattice point (relative to w1) that counts as "at a pole"
POLE_RTOL = 1e-6

_THETA_TERMS = 7  # the first dropped term is below 1e-29; see the module docstring
_BLOCK = 2048  # points per block of the theta series; its powers table is 460 kB


@dataclass(frozen=True)
class Invariants:
    """Weierstrass invariants of the quartic (wp')^2 = 4 wp^3 - g2 wp - g3.

    In equi-affine arc-length units g2 has dimension length^-4 and g3
    length^-6.
    """

    g2: float
    g3: float

    def __post_init__(self):
        with np.errstate(over="ignore", invalid="ignore"):
            disc = np.float64(self.g2) ** 3 - 27.0 * np.float64(self.g3) ** 2
        if not np.isfinite(disc):  # also when g2^3 or 27 g3^2 overflows a double
            raise DomainError(f"g2, g3 and g2^3 - 27 g3^2 must be finite, got g2={self.g2}, g3={self.g3}")

    @property
    def discriminant(self) -> float:
        return self.g2**3 - 27.0 * self.g3**2

    @property
    def is_degenerate(self) -> bool:
        scale = max(abs(self.g2) ** 3, 27.0 * self.g3**2)
        return abs(self.discriminant) <= DEGENERACY_RTOL * scale or scale == 0.0


@dataclass(frozen=True)
class LatticeData:
    """Half-period data of the (rectangular or rhombic) period lattice.

    ``w1`` is the real half-period: wp restricted to the real line has
    period 2*w1.  ``w2_im`` is the imaginary part of the purely imaginary
    half-period w2 = i*w2_im, the half-period of the restriction to the
    imaginary line.  ``roots`` holds the cubic roots, descending and real
    for a positive discriminant, else (a+ib, r, a-ib) with the single real
    root in the middle.  ``eta1`` is zeta(w1).
    """

    w1: float
    w2_im: float
    roots: tuple[complex, complex, complex]
    eta1: float

    @property
    def w2(self) -> complex:
        return 1j * self.w2_im


def cubic_roots(g2: float, g3: float) -> np.ndarray:
    """Roots of 4 t^3 - g2 t - g3 = 0, Newton-polished, in the ``LatticeData.roots`` order.

    For g2^3 > 27 g3^2 the three real roots, descending; otherwise
    (-r/2 + ib, r, -r/2 - ib) with r the real root and b > 0 (b = 0 only at
    a repeated root).  A complex array either way.
    """
    g2, g3 = float(g2), float(g3)
    r = np.roots([4.0, 0.0, -g2, -g3])
    for _ in range(2):
        f = 4.0 * r**3 - g2 * r - g3
        fp = 12.0 * r**2 - g2
        step = np.where(np.abs(fp) > 0, f / np.where(fp == 0, 1.0, fp), 0.0)
        r = r - step
    if g2**3 - 27.0 * g3**2 > 0.0:  # Invariants.discriminant
        return np.sort(r.real)[::-1].astype(complex)
    i_real = int(np.argmin(np.abs(r.imag)))
    rr = float(r[i_real].real)
    b = abs(float(r[int(i_real == 0)].imag))
    return np.array([complex(-0.5 * rr, b), complex(rr), complex(-0.5 * rr, -b)])


def invariants_from_qQ(q: float, Q: float) -> Invariants:
    """Invariants whose phase-plane cubic meets kappa' = 0 at kappa = q and Q.

    The third intersection sits at -(q + Q); requires q < Q.
    """
    if not q < Q:
        raise ValueError("need q < Q")
    g2 = (q * q + Q * Q + q * Q) / 9.0
    g3 = (q * q * Q + q * Q * Q) / 54.0
    return Invariants(g2, g3)


def invariants_from_Ptau(P: float, tau: float) -> Invariants:
    """Invariants with one real curvature intersection P and complex pair -P/2 +- i*tau.

    Requires tau > 0; the resulting discriminant is negative.
    """
    if not tau > 0:
        raise ValueError("need tau > 0")
    g2 = (3.0 * P * P - 4.0 * tau * tau) / 36.0
    g3 = -P * (P * P + 4.0 * tau * tau) / 216.0
    return Invariants(g2, g3)


# ---------------------------------------------------------------------------
# internal evaluation frame


@dataclass(frozen=True)
class _Frame:
    W1: complex  # theta-frame half periods (2*W1, 2*W3 generate the lattice)
    W3: complex
    theta_coef: np.ndarray  # (4, 2 * _THETA_TERMS) for tau = W3 / W1, see _theta_coefficients
    th1p0: complex  # theta1'(0)
    eta1f: complex  # zeta(W1)
    eta3f: complex  # zeta(W3)
    basis_inv: tuple[float, float, float, float]  # inverse of [2W1 | 2W3] as reals
    pole_tol: float
    lattice: LatticeData | None = None  # the checked half-periods; None only inside the build


_TERM_N = np.arange(_THETA_TERMS)
#: d^k/du^k of sin((2n+1)u) = (e^(i(2n+1)u) - e^(-i(2n+1)u)) / 2i, as weights of
#: e^(i(2n+1)u) (first half of a row) and e^(-i(2n+1)u) (second half)
_SIN_DERIVS = np.concatenate([(1j * (2 * _TERM_N + 1)) ** np.arange(4)[:, None] / 2j,
                              -(-1j * (2 * _TERM_N + 1)) ** np.arange(4)[:, None] / 2j], axis=1)


def _theta_coefficients(tau: complex) -> np.ndarray:
    """Row k: the coefficients of e^(+-i(2n+1)u) in the k-th u-derivative of
    theta1(u) = sum_n 2 (-1)^n e^(i pi tau (n+1/2)^2) sin((2n+1)u)."""
    c = 2.0 * (-1.0) ** _TERM_N * np.exp(1j * np.pi * tau * (_TERM_N + 0.5) ** 2)
    coef = _SIN_DERIVS * np.concatenate([c, c])
    coef.flags.writeable = False  # shared through the frame cache
    return coef


def _theta1_bundle(u: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """theta1 and its first three u-derivatives, stacked on a leading axis of 4.

    e^(iu) is taken once; e^(+-i(2n+1)u) follow by repeated multiplication
    with e^(+-2iu).  Points go through in blocks of ``_BLOCK``, which bounds
    the (block, 2, _THETA_TERMS) table of powers.  Each point goes through
    the same loops, so it gets the same bits whatever the shape of u.
    """
    out = np.empty((4,) + u.shape, dtype=complex)
    flat_u, flat_out = u.reshape(-1), out.reshape(4, -1)
    rot = np.empty((min(u.size, _BLOCK), 2, _THETA_TERMS), dtype=complex)
    for i in range(0, u.size, _BLOCK):
        ub = flat_u[i : i + _BLOCK]
        r = rot[: ub.size]
        r[:, 0, 0] = np.exp(1j * ub)
        r[:, 1, 0] = 1.0 / r[:, 0, 0]
        r[:, :, 1:] = r[:, :, :1] ** 2
        np.cumprod(r, axis=-1, out=r)
        np.einsum("nj,kj->kn", r.reshape(ub.size, -1), coef, out=flat_out[:, i : i + ub.size])
    return out


@lru_cache(maxsize=256)
def _frame_cached(g2: float, g3: float) -> _Frame:
    inv = Invariants(g2, g3)
    if inv.is_degenerate:
        raise DegenerateDiscriminant(
            f"discriminant {inv.discriminant:.3e} is degenerate relative to g2^3"
        )
    roots = tuple(complex(r) for r in cubic_roots(g2, g3))
    rhombic = inv.discriminant < 0.0
    if not rhombic:
        e1, e2, e3 = (r.real for r in roots)
        m = (e2 - e3) / (e1 - e3)
        scale = np.sqrt(e1 - e3)
    else:
        rr, b = roots[1].real, roots[0].imag
        H = np.sqrt(2.25 * rr * rr + b * b)
        m = 0.5 - 0.75 * rr / H
        scale = np.sqrt(H)
    w1 = carlson_rf(0.0, 1.0 - m, 1.0) / scale  # K(m), DLMF 19.25.1
    w2_im = carlson_rf(0.0, m, 1.0) / scale  # K(1 - m)

    # theta frame with Im(tau) >= 1/2 so the nome stays small
    if not rhombic:
        if w2_im >= w1:
            W1, W3 = complex(w1), 1j * w2_im
        else:
            W1, W3 = 1j * w2_im, complex(-w1)
    else:
        if w2_im >= w1:
            W1, W3 = complex(w1), 0.5 * (w1 + 1j * w2_im)
        else:
            W1, W3 = 1j * w2_im, 0.5 * (-w1 + 1j * w2_im)
    coef = _theta_coefficients(W3 / W1)
    th1p0 = complex(coef[1].sum())  # every e^(+-i(2n+1)u) is 1 at u = 0
    th1ppp0 = complex(coef[3].sum())
    eta1f = -np.pi**2 * th1ppp0 / (12.0 * W1 * th1p0)
    eta3f = (eta1f * W3 - 0.5j * np.pi) / W1
    p1, p2 = 2.0 * W1, 2.0 * W3
    det = p1.real * p2.imag - p1.imag * p2.real
    basis_inv = (p2.imag / det, -p2.real / det, -p1.imag / det, p1.real / det)
    w1, w2_im = float(w1), float(w2_im)
    fr = _Frame(W1=W1, W3=W3, theta_coef=coef, th1p0=th1p0, eta1f=eta1f, eta3f=eta3f,
                basis_inv=basis_inv, pole_tol=POLE_RTOL * w1)
    st, _ = _theta_state(w1, fr, "half_periods")
    e_half, eta1 = complex(_wp(*st)[0]), complex(_zeta(*st)[0])
    # both checks are relative to the lattice's own scale: (l^4 g2, l^6 g3) gets the same verdict
    if abs(eta1.imag) > 1e-9 * (abs(eta1) + 1.0 / w1):
        raise DomainError("zeta(w1) should be real for real invariants")
    # consistency: wp at the real half-period equals the largest real root
    e_ref = max(r.real for r in roots if r.imag == 0.0)
    if abs(e_half.real - e_ref) > 1e-8 * max(abs(r) for r in roots):
        raise DomainError("wp(w1) does not match the largest real root")
    return replace(fr, lattice=LatticeData(w1=w1, w2_im=w2_im, roots=roots, eta1=float(eta1.real)))


def _frame(inv: Invariants) -> _Frame:
    return _frame_cached(float(inv.g2), float(inv.g3))


def _reduce(z: np.ndarray, fr: _Frame):
    """Reduce z modulo the lattice to the centered cell; return multiples."""
    a, b, c, d = fr.basis_inv
    x = z.real
    y = z.imag
    ca = a * x + b * y
    cb = c * x + d * y
    M = np.rint(ca)
    N = np.rint(cb)
    zr = z - (2.0 * fr.W1 * M + 2.0 * fr.W3 * N)
    return zr, M, N


def _check_pole(zr: np.ndarray, fr: _Frame, what: str) -> None:
    """Raise NearPole within pole_tol of a lattice point.

    pole_tol is far below the cell size, so rounding in lattice coordinates
    sends every point that close to a lattice point to within pole_tol of 0.
    """
    if np.any(np.abs(zr) < fr.pole_tol):
        raise NearPole(f"{what}: argument within {fr.pole_tol:.2e} of a lattice point")


def _theta_state(z, fr: _Frame, what: str | None):
    """One theta evaluation on frame fr: the formula arguments (frame, reduced
    z, lattice multiples M and N, theta1 and three u-derivatives) and whether
    z is a scalar.  ``what`` names the caller in NearPole; None skips the pole
    check.  A scalar z is evaluated as a 1-element array, so it meets the
    same arithmetic loops, and gets the same bits, as inside an array."""
    arr = np.asarray(z, dtype=complex)
    zr, M, N = _reduce(np.atleast_1d(arr), fr)
    if what is not None:
        _check_pole(zr, fr, what)
    return (fr, zr, M, N, *_theta1_bundle(np.pi * zr / (2.0 * fr.W1), fr.theta_coef)), arr.ndim == 0


def _wp(fr, zr, M, N, t0, t1, t2, t3):
    dlog2 = (t2 * t0 - t1 * t1) / (t0 * t0)
    return -fr.eta1f / fr.W1 - (np.pi / (2.0 * fr.W1)) ** 2 * dlog2


def _wp_prime(fr, zr, M, N, t0, t1, t2, t3):
    dlog3 = (t3 * t0 * t0 - 3.0 * t2 * t1 * t0 + 2.0 * t1**3) / t0**3
    return -((np.pi / (2.0 * fr.W1)) ** 3) * dlog3


def _zeta(fr, zr, M, N, t0, t1, t2, t3):
    return (
        2.0 * (M * fr.eta1f + N * fr.eta3f)
        + fr.eta1f * zr / fr.W1
        + (np.pi / (2.0 * fr.W1)) * t1 / t0
    )


def _log_sigma(fr, zr, M, N, t0, t1, t2, t3):
    with np.errstate(divide="ignore"):  # sigma vanishes at lattice points
        log_t0 = np.log(t0 / fr.th1p0)
    eta_L = 2.0 * (M * fr.eta1f + N * fr.eta3f)
    L = 2.0 * fr.W1 * M + 2.0 * fr.W3 * N
    return (
        np.log(2.0 * fr.W1 / np.pi)
        + fr.eta1f * zr * zr / (2.0 * fr.W1)
        + log_t0
        + eta_L * (zr + 0.5 * L)
        + 1j * np.pi * (M + N + M * N)
    )


def _evaluate(formula, z, inv: Invariants, what: str | None):
    st, scalar = _theta_state(z, _frame(inv), what)
    val = formula(*st)
    return complex(val[0]) if scalar else val


def weierstrass(z, inv: Invariants):
    """(wp, wp', zeta, log sigma) at z from one theta evaluation; each equals its
    single-function kernel exactly, and a scalar z gives Python complexes."""
    st, scalar = _theta_state(z, _frame(inv), "weierstrass")
    vals = tuple(f(*st) for f in (_wp, _wp_prime, _zeta, _log_sigma))
    return tuple(complex(v[0]) for v in vals) if scalar else vals


def wp(z, inv: Invariants):
    """Weierstrass wp(z; g2, g3).  Scalar or ndarray argument."""
    return _evaluate(_wp, z, inv, "wp")


def wp_prime(z, inv: Invariants):
    """Derivative wp'(z; g2, g3)."""
    return _evaluate(_wp_prime, z, inv, "wp_prime")


def zeta_w(z, inv: Invariants):
    """Weierstrass zeta(z; g2, g3) with the quasi-period of this lattice."""
    return _evaluate(_zeta, z, inv, "zeta_w")


def log_sigma_w(z, inv: Invariants):
    """A logarithm of sigma(z); exp of differences of this is branch-safe.

    Useful because sigma itself overflows for moderately large |z| while
    ratios of sigmas stay bounded.
    """
    return _evaluate(_log_sigma, z, inv, None)


def sigma_w(z, inv: Invariants):
    """Weierstrass sigma(z; g2, g3).  Entire; may overflow for large |z|."""
    return _evaluate(lambda *st: np.exp(_log_sigma(*st)), z, inv, None)


def half_periods(inv: Invariants) -> LatticeData:
    """Half-period data for non-degenerate invariants.

    wp restricted to the real line has period 2*w1 and to the imaginary
    line period 2*w2.  Raises DegenerateDiscriminant when the cubic has a
    repeated root to tolerance, and DomainError when wp(w1) or zeta(w1) fails
    its consistency check.  The data is part of the lattice's cached frame,
    so the check runs once per lattice.
    """
    return _frame(inv).lattice
