"""Weierstrass elliptic kernel for real invariants (g2, g3).

Strategy: pick a half-period frame (W1, W3) for the period lattice such that
the nome q = exp(i*pi*W3/W1) satisfies |q| <= exp(-pi/2), reduce arguments to
the fundamental cell, and evaluate wp, wp', zeta and log sigma through the
first Jacobi theta function and its first three derivatives.  Half-periods come
from the cubic roots of 4t^3 - g2 t - g3 and the complete elliptic integral
K(m) = R_F(0, 1 - m, 1) (DLMF 19.25(i)), from the in-package Carlson R_F.
Everything is double precision; lattices with vanishing discriminant are
rejected.

After reduction |Im u| <= pi Im(tau)/2, so term n of the theta series and
of its first three derivatives is at most (2n+1)^3 |q|^(n^2 - 1/4).  The
series stops after 7 terms (``_THETA_TERMS``): the first dropped one, n = 7,
is below 1e-29.  ``weierstrass`` returns (wp, wp', zeta, log sigma) from one
theta evaluation per argument; ``wp`` computes the same value from the
same evaluation.

A theta evaluation takes e^(iu) once and gets every e^(+-i(2n+1)u) from it
by the rotation recurrence, multiplying by e^(+-2iu); no sin or cos is
called per term.  The coefficients of those powers in theta1 and its first
three derivatives, 2 (-1)^n e^(i pi tau (n+1/2)^2) (+-i(2n+1))^k / (+-2i),
are computed once per lattice and kept in its frame, and theta1'(0) and
theta1'''(0) are their plain sums.  A scalar argument goes through the
same array loops as an array, so it gets the same bits.

A frame belongs to one lattice and serves any number of points.
``_frame_cached`` builds it: the cubic roots (in closed form, see
``cubic_roots``), K and K' from the in-package R_F, the theta
coefficients, the quasi-periods, the cell basis and the check of wp(w1)
and zeta(w1) on the roots' own scale.  It is cached per (g2, g3) with the
checked ``LatticeData``, so ``half_periods`` and the first kernel call on
a lattice both run the check, once.  The closure quantity of
``synthesis`` needs no frame and no root solve: it comes from the exact
roots of q = 1 and Carlson's R_F and R_D.

All functions are pure and accept scalars or ndarrays for the argument z;
they are safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    length^-6.  One lattice: g2 and g3 are real scalars.
    """

    g2: float
    g3: float

    def __post_init__(self):
        if np.ndim(self.g2) or np.ndim(self.g3):
            raise DomainError("invariants are one lattice: g2 and g3 must be scalars")
        try:
            disc = float(self.g2) ** 3 - 27.0 * float(self.g3) ** 2
        except OverflowError:  # g2^3 or 27 g3^2 overflows a double
            disc = math.inf
        if not math.isfinite(disc):
            raise DomainError(f"g2, g3 and g2^3 - 27 g3^2 must be finite, got g2={self.g2}, g3={self.g3}")

    @property
    def discriminant(self) -> float:
        return _discriminant(self.g2, self.g3)

    @property
    def is_degenerate(self) -> bool:
        """Whether the discriminant vanishes relative to its terms."""
        return _is_degenerate(self.g2, self.g3, self.discriminant)


def _discriminant(g2, g3):
    return g2**3 - 27.0 * g3**2


def _is_degenerate(g2: float, g3: float, disc: float) -> bool:
    scale = max(abs(g2) ** 3, 27.0 * g3**2)
    return abs(disc) <= DEGENERACY_RTOL * scale or scale == 0.0


def _nondegenerate(g2: float, g3: float) -> float:
    """The discriminant of (g2, g3); raises DegenerateDiscriminant when it vanishes to tolerance."""
    disc = _discriminant(g2, g3)
    if _is_degenerate(g2, g3, disc):
        raise DegenerateDiscriminant(f"discriminant {disc:.3e} is degenerate relative to g2^3")
    return disc


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


def cubic_roots(g2: float, g3: float) -> np.ndarray:
    """Roots of 4 t^3 - g2 t - g3 = 0 in the ``LatticeData.roots`` order.

    For g2^3 > 27 g3^2 the three real roots, descending; otherwise
    (-r/2 + ib, r, -r/2 - ib) with r the real root and b > 0 (b = 0 only at
    a repeated root).  A complex array of 3, for one (g2, g3) pair.  Closed
    forms, trigonometric for three real roots and Cardano's for one (W.
    Kahan, "To solve a real cubic equation", 1986; Numerical Recipes 5.6),
    each polished by two Newton steps.  The closure quantity of q = 1 needs
    none of this: its roots are (1 + Q)/6, -1/6 and -Q/6 exactly.
    """
    return np.array(_cubic_roots(float(g2), float(g3)))


def _cubic_roots(g2: float, g3: float) -> tuple[complex, complex, complex]:
    """The roots of one cubic, as ``cubic_roots`` describes them."""
    disc = _discriminant(g2, g3)
    if disc > 0.0:  # three real roots rad cos(phi - 2 pi k/3), k = 0, 1, -1: descending
        rad = math.sqrt(g2 / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * g3 / (g2 * rad)))) / 3.0
        return tuple(complex(_newton(rad * math.cos(phi - k * math.tau / 3.0), g2, g3)) for k in (0, 1, -1))
    # one real root (Cardano): r = A + B, pair -r/2 +- i (sqrt(3)/2) |A - B|; sign(g3) spares A cancellation
    A = float(np.cbrt(0.125 * g3 + math.copysign(math.sqrt(-disc / 1728.0), g3)))
    B = g2 / (12.0 * A) if A else 0.0
    r = _newton(A + B, g2, g3)
    b = abs(_newton(complex(-0.5 * r, 0.5 * math.sqrt(3.0) * abs(A - B)), g2, g3).imag)
    return complex(-0.5 * r, b), complex(r), complex(-0.5 * r, -b)


def _newton(t, g2: float, g3: float):
    """Two Newton steps on the root t (float or complex) of 4 t^3 - g2 t - g3."""
    for _ in range(2):
        tt = t * t
        fp = 12.0 * tt - g2
        if fp:
            t -= ((4.0 * tt - g2) * t - g3) / fp  # Horner's form rounds less than 4 t^3 - g2 t
    return t


def invariants_from_qQ(q: float, Q: float) -> Invariants:
    """Invariants whose phase-plane cubic meets kappa' = 0 at kappa = q and Q.

    The third intersection sits at -(q + Q); requires q < Q.
    """
    if not q < Q:
        raise ValueError("need q < Q")
    return Invariants(*_qQ_invariants(q, Q))


def _qQ_invariants(q, Q):
    """g2 and g3 of ``invariants_from_qQ``, of floats or arrays."""
    return (q * q + Q * Q + q * Q) / 9.0, (q * q * Q + q * Q * Q) / 54.0


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
    """The theta frame of one lattice.  The fields from ``du`` to
    ``log_scale`` are formula constants, computed in Python's complex
    arithmetic."""

    W1: complex  # theta-frame half period; the periods 2 W1 and 2 W3 generate the lattice
    P1: complex  # 2 W1
    P3: complex  # 2 W3
    theta_coef: np.ndarray  # (4, 2 * _THETA_TERMS) for tau = W3 / W1, see _theta_coefficients
    th1p0: complex  # theta1'(0)
    eta1f: complex  # zeta(W1)
    eta3f: complex  # zeta(W3)
    du: complex  # pi / (2 W1), the scale of the theta argument u = pi z / (2 W1)
    du2: complex  # du^2
    du3: complex  # du^3
    wp_shift: complex  # -eta1f / W1
    log_scale: complex  # log(2 W1 / pi)
    basis_inv: tuple[float, float, float, float]  # inverse of [2W1 | 2W3] as reals
    pole_tol: float


_TERM_N = np.arange(_THETA_TERMS)
_TERM_SIGN = 2.0 * (-1.0) ** _TERM_N  # 2 (-1)^n
_TERM_SQUARE = (_TERM_N + 0.5) ** 2
#: d^k/du^k of sin((2n+1)u) = (e^(i(2n+1)u) - e^(-i(2n+1)u)) / 2i, as weights of
#: e^(i(2n+1)u) (first half of a row) and e^(-i(2n+1)u) (second half)
_SIN_DERIVS = np.concatenate([(1j * (2 * _TERM_N + 1)) ** np.arange(4)[:, None] / 2j,
                              -(-1j * (2 * _TERM_N + 1)) ** np.arange(4)[:, None] / 2j], axis=1)


def _theta_coefficients(tau) -> np.ndarray:
    """Row k: the coefficients of e^(+-i(2n+1)u) in the k-th u-derivative of
    theta1(u) = sum_n 2 (-1)^n e^(i pi tau (n+1/2)^2) sin((2n+1)u)."""
    c = _TERM_SIGN * np.exp(1j * np.pi * np.asarray(tau) * _TERM_SQUARE)
    coef = (_SIN_DERIVS.reshape(4, 2, _THETA_TERMS) * c).reshape(4, -1)
    coef.flags.writeable = False  # shared through the frame cache
    return coef


def _theta1_bundle(u: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """theta1 and its first three u-derivatives, stacked on a leading axis of 4.

    e^(iu) is taken once; e^(+-i(2n+1)u) follow by repeated multiplication
    with e^(+-2iu).  Points go through in blocks of ``_BLOCK``, which bounds
    the (block, 2, _THETA_TERMS) table of powers.  Each point goes through
    the same loops, so it gets the same bits whatever the shape of u.
    ``coef`` is the lattice's (4, 2 * _THETA_TERMS) table.
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
        r.cumprod(axis=-1, out=r)
        np.einsum("nj,kj->kn", r.reshape(ub.size, -1), coef, out=flat_out[:, i : i + ub.size])
    return out


def _half_period_scalars(roots, rhombic: bool):
    """w1, w2_im and the theta-frame half-periods W1, W3 of one lattice."""
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
    return float(w1), float(w2_im), W1, W3


@lru_cache(maxsize=256)
def _frame_cached(g2: float, g3: float) -> tuple[_Frame, LatticeData]:
    """The frame and checked half-periods of one lattice.

    Raises DegenerateDiscriminant for a repeated root to tolerance and
    DomainError when wp(w1) or zeta(w1) fails its check.
    """
    disc = _nondegenerate(g2, g3)
    roots = _cubic_roots(g2, g3)
    w1, w2_im, W1, W3 = _half_period_scalars(roots, disc < 0.0)
    coef = _theta_coefficients(W3 / W1)
    th1p0, th1ppp0 = coef[1::2].sum(axis=-1).tolist()  # every e^(+-i(2n+1)u) is 1 at u = 0
    eta1f = -np.pi**2 * th1ppp0 / (12.0 * W1 * th1p0)
    du = np.pi / (2.0 * W1)
    P1, P3 = 2.0 * W1, 2.0 * W3
    det = P1.real * P3.imag - P1.imag * P3.real
    fr = _Frame(W1=W1, P1=P1, P3=P3, theta_coef=coef, th1p0=th1p0, eta1f=eta1f,
                eta3f=(eta1f * W3 - 0.5j * np.pi) / W1, du=du, du2=du**2, du3=du**3, wp_shift=-eta1f / W1,
                log_scale=complex(np.log(2.0 * W1 / np.pi)),
                basis_inv=(P3.imag / det, -P3.real / det, -P1.imag / det, P1.real / det), pole_tol=POLE_RTOL * w1)
    st, _ = _theta_state(w1, fr, None)  # w1 is a half-period, far from every pole
    e_half, eta1 = complex(_wp(*st)[0]), complex(_zeta(*st)[0])
    # both checks are relative to the lattice's own scale, so (l^4 g2, l^6 g3) gets the
    # same verdict; wp at the real half-period must equal the largest real root
    if abs(eta1.imag) > 1e-9 * (abs(eta1) + 1.0 / w1):
        raise DomainError("zeta(w1) should be real for real invariants")
    if abs(e_half.real - max(x.real for x in roots if x.imag == 0.0)) > 1e-8 * max(abs(x) for x in roots):
        raise DomainError("wp(w1) does not match the largest real root")
    return fr, LatticeData(w1=w1, w2_im=w2_im, roots=roots, eta1=eta1.real)


def _lattice(inv: Invariants) -> tuple[_Frame, LatticeData]:
    return _frame_cached(float(inv.g2), float(inv.g3))


def _frame(inv: Invariants) -> _Frame:
    return _lattice(inv)[0]


def _reduce(z: np.ndarray, fr: _Frame):
    """Reduce z modulo the lattice to the centered cell; return multiples."""
    a, b, c, d = fr.basis_inv
    x = z.real
    y = z.imag
    ca = a * x + b * y
    cb = c * x + d * y
    M = np.rint(ca)
    N = np.rint(cb)
    zr = z - (fr.P1 * M + fr.P3 * N)
    return zr, M, N


def _check_pole(zr: np.ndarray, fr: _Frame, what: str) -> None:
    """Raise NearPole within pole_tol of a lattice point.

    pole_tol is far below the cell size, so rounding in lattice coordinates
    sends every point that close to a lattice point to within pole_tol of 0.
    """
    if np.count_nonzero(np.abs(zr) < fr.pole_tol):
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
    return (fr, zr, M, N, *_theta1_bundle(np.pi * zr / fr.P1, fr.theta_coef)), arr.ndim == 0


def _wp(fr, zr, M, N, t0, t1, t2, t3):
    dlog2 = (t2 * t0 - t1 * t1) / (t0 * t0)
    return fr.wp_shift - fr.du2 * dlog2


def _wp_prime(fr, zr, M, N, t0, t1, t2, t3):
    dlog3 = (t3 * t0 * t0 - 3.0 * t2 * t1 * t0 + 2.0 * t1**3) / t0**3
    return -fr.du3 * dlog3


def _zeta(fr, zr, M, N, t0, t1, t2, t3):
    return (
        2.0 * (M * fr.eta1f + N * fr.eta3f)
        + fr.eta1f * zr / fr.W1
        + fr.du * t1 / t0
    )


def _log_sigma(fr, zr, M, N, t0, t1, t2, t3):
    with np.errstate(divide="ignore"):  # sigma vanishes at lattice points
        log_t0 = np.log(t0 / fr.th1p0)
    eta_L = 2.0 * (M * fr.eta1f + N * fr.eta3f)
    L = fr.P1 * M + fr.P3 * N
    return (
        fr.log_scale
        + fr.eta1f * zr * zr / fr.P1
        + log_t0
        + eta_L * (zr + 0.5 * L)
        + 1j * np.pi * (M + N + M * N)
    )


def _evaluate(formula, z, inv: Invariants, what: str | None):
    st, scalar = _theta_state(z, _frame(inv), what)
    val = formula(*st)
    return complex(val[0]) if scalar else val


def weierstrass(z, inv: Invariants):
    """(wp, wp', zeta, log sigma) at z from one theta evaluation; wp equals
    ``wp`` exactly, and a scalar z gives Python complexes."""
    st, scalar = _theta_state(z, _frame(inv), "weierstrass")
    vals = tuple(f(*st) for f in (_wp, _wp_prime, _zeta, _log_sigma))
    return tuple(complex(v[0]) for v in vals) if scalar else vals


def wp(z, inv: Invariants):
    """Weierstrass wp(z; g2, g3).  Scalar or ndarray argument."""
    return _evaluate(_wp, z, inv, "wp")


def half_periods(inv: Invariants) -> LatticeData:
    """Half-period data for non-degenerate invariants.

    wp restricted to the real line has period 2*w1 and to the imaginary
    line period 2*w2.  Raises DegenerateDiscriminant when the cubic has a
    repeated root to tolerance, and DomainError when wp(w1) or zeta(w1) fails
    its consistency check.  The data is part of the lattice's cached frame,
    so the check runs once per lattice.
    """
    return _lattice(inv)[1]
