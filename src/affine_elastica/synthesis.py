"""Curve synthesis for every case of the area-constrained taxonomy and the
length-constrained family.

Generic families ride on the Lame equation F'' = 6 wp F: the first solution
phi1 is the logarithmic-derivative expression built from sigma and zeta; when
Re phi1 and Im phi1 are dependent, the second comes from the mirrored
parameter -c (the reciprocal Floquet solution, closed form).  Coordinate
functions are antiderivatives of the phi's; a final constant linear map
enforces |gamma', gamma''| = 1.  Where the coordinates come from complex
solution rows, ``_unimodular_pair`` is that one sequence: real parts, two
independent combinations, Wronskian checks, unimodular scale.

Degenerate families (D, E, F, G, ellipses) use their explicit closed forms;
the D and E coordinates are elementary antiderivatives of their solution
pairs.  The closure condition for the bounded-oscillation family with
positive minimum curvature is solved by bracketed root finding in the
maximum curvature Q.

Each family is defined in one place, a builder of its ``_FamilySpec``: the
closed-form curvature, the default grid, the real poles, the distance to the
nearest complex singularity, the coordinate route and the branch shift c0.
The ``_FAMILIES`` table maps each ``Case`` to its builder; the
length-constrained family builds its spec from (A, g3, c0).  ``_sample``
turns any spec into a curve: grid, pole check, route, then metadata and the
derivative-filter window.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from ._numerics import brent_root, carlson_rf, carlson_rf_array, filter_window, median
from .classifier import Branch, Case, CaseLabel, classify
from .curvature import CurveSamples, frame_and_curvature
from .elliptic import (
    Invariants,
    LatticeData,
    _array_batch,
    half_periods,
    invariants_from_qQ,
    weierstrass,
    wp,
    zeta_w,
)
from .errors import (
    DomainError,
    EllipseFitFailed,
    GridHitsPole,
    NoSuchC,
    NotBracketed,
    SynthesisError,
    UnimodularizationFailed,
    first_failure,
)

__all__ = [
    "ClosureSolution",
    "lame_parameter_c",
    "synthesize",
    "synthesize_closed",
    "synthesize_length_constrained",
    "closure_lhs",
    "closure_lhs_with_d",
    "solve_closure",
    "euclidean_display_transform",
]

_POLE_MARGIN = 1e-6  # relative grid-to-pole distance that raises GridHitsPole
_DEPENDENCE_RTOL = 1e-8  # below this, Re phi1 and Im phi1 count as dependent
_Q_INTERVAL = (1.0 + 1e-3, 1.0e3)  # where solve_closure looks for the maximum curvature Q
_PRESCAN_NODES = 32  # geometric grid over _Q_INTERVAL that solve_closure scans once per process
_XTOL, _RTOL = 1e-13, 4e-15  # solve_closure's Brent tolerance on Q: xtol + rtol Q
_FLOQUET_TOL = 1e-8  # |rho - e^(-+i pi n/m)| above which a closed curve's Q does not close


@dataclass
class ClosureSolution:
    """A closed curve of the positive-minimum-curvature family (q = 1)."""

    m: int
    n: int
    Q: float
    inv: Invariants
    lattice: LatticeData
    d: float  # c = w1 + d*i with the negative-imaginary representative
    lhs: float

    @property
    def period(self) -> float:
        return 4.0 * self.m * self.lattice.w1

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "Q": self.Q,
            "g2": self.inv.g2,
            "g3": self.inv.g3,
            "w1": self.lattice.w1,
            "w2_im": self.lattice.w2_im,
            "d": self.d,
            "lhs": self.lhs,
            "period": self.period,
        }


def lame_parameter_c(inv: Invariants, prefer_negative_imag: bool = False) -> complex | np.ndarray:
    """The parameter c with wp(c) = -g3/g2, in closed form.

    Carlson's symmetric integral inverts wp on the real axis,
    u = R_F(wp(u) - e1, wp(u) - e2, wp(u) - e3) for 0 < u <= w1
    (DLMF 23.6(iv)).  The half-period shift wp(u + w1) = e1 + (e1 - e2)(e1 -
    e3)/(wp(u) - e1) and the rotation wp(iy; g2, g3) = -wp(y; g2, -g3) carry
    this to the other segments where wp is real.  From Vieta, e - v = 4 e^3/g2
    for each root e and v = -g3/g2.  So on a rectangular lattice v lies in
    [e3, e1], and c is on the vertical line through w1 when g3 >= 0 (v >=
    e2) and on the horizontal line through w2 otherwise; the real and
    imaginary axes, where wp >= e1 and wp <= e3, are never reached.  On a
    rhombic lattice c is real when v is at least the real root, else
    imaginary.  On the rectangular segments the R_F arguments are
    rescaled by homogeneity so that they hold only root differences and the
    Vieta form of v - e, which keeps c accurate where v nears e2 and wp'(c)
    nears 0.  Either representative of the pair +-c works;
    ``prefer_negative_imag`` picks the one with Im(c) <= 0 for
    reproducibility.  Raises NoSuchC when R_F is not finite.  A batch of
    invariants gives an array of c, one per lattice, each with the bits of
    the scalar formula: from arrays when the batch takes the array formulas
    (see ``elliptic``), else lattice by lattice.
    """
    lat = half_periods(inv)
    sign = -1.0 if prefer_negative_imag else 1.0
    if not getattr(inv.g2, "ndim", 0):
        return _lame_c(inv.g2, inv.g3, inv.discriminant, lat.roots, lat.w1, lat.w2_im, sign)
    disc = inv.discriminant
    if _array_batch(disc):
        return _rect_lame_c(inv.g2, inv.g3, lat.roots.real, lat.w1, lat.w2_im, sign)
    cols = (inv.g2.tolist(), inv.g3.tolist(), disc.tolist(), lat.roots.tolist(), lat.w1.tolist(),
            lat.w2_im.tolist())
    return np.array([_lame_c(*row, sign) for row in zip(*cols)])


def _rect_lame_c(g2, g3, roots, w1, w2_im, sign) -> np.ndarray:
    """``_lame_c`` of a batch of rectangular lattices, from their real roots:
    one R_F call on arrays; e^3 is taken per entry, as Python's float power
    rounds it, and the rest in the same IEEE operations as ``_lame_c``."""
    v = -g3 / g2
    e1, e2, e3 = roots.T
    d1, d2, d3 = -4.0 * np.array([e**3 for e in roots.T.ravel().tolist()]).reshape(3, -1) / g2
    up = g3 >= 0  # c on the vertical line through w1, else on the horizontal one through w2
    rf = carlson_rf_array(
        np.where(up, (e1 - e2) * (e1 - e3), -(e1 - e3) * d2),
        np.where(up, (e1 - e2) * d3, -(e2 - e3) * d1),
        np.where(up, (e1 - e3) * d2, (e1 - e3) * (e2 - e3)))
    with np.errstate(invalid="ignore"):
        part = np.where(up, np.sqrt(-d1), np.sqrt(d3)) * rf
    c = np.empty(len(v), dtype=complex)
    c.real, c.imag = np.where(up, w1, part), sign * np.where(up, part, w2_im)
    bad = ~(np.isfinite(c.real) & np.isfinite(c.imag))
    if np.count_nonzero(bad):
        raise NoSuchC(f"level {v[np.argmax(bad)]:.6g} is within rounding of a root of the cubic")
    return c


def _lame_c(g2, g3, disc, roots, w1, w2_im, sign) -> complex:
    """``lame_parameter_c`` of one lattice, from its invariants and half-period data."""
    v = -g3 / g2
    if disc < 0:
        e1, r, e3 = roots
        if v >= r.real:
            c = complex(carlson_rf(v - e1, v - r, v - e3).real, 0.0)
        else:
            c = complex(0.0, sign * carlson_rf(e1 - v, r - v, e3 - v).real)
    else:
        e1, e2, e3 = (float(e.real) for e in roots)
        d1, d2, d3 = (-4.0 * e**3 / g2 for e in (e1, e2, e3))  # v - e_k, cancellation-free
        if g3 >= 0:
            y = np.sqrt(-d1) * carlson_rf((e1 - e2) * (e1 - e3), (e1 - e2) * d3, (e1 - e3) * d2)
            c = complex(w1, sign * y)
        else:
            x = np.sqrt(d3) * carlson_rf(-(e1 - e3) * d2, -(e2 - e3) * d1, (e1 - e3) * (e2 - e3))
            c = complex(x, sign * w2_im)
    if not cmath.isfinite(c):
        raise NoSuchC(f"level {v:.6g} is within rounding of a root of the cubic")
    return c


def _mu(inv: Invariants, c: complex) -> complex:
    """mu = -wp'(c)/(2 wp(c)) - zeta(c) for a c with wp(c) = v = -g3/g2.

    The cubic gives wp'(c)^2 = 4 v^3 exactly, so -wp'(c)/(2 v) is taken as
    the root of v nearer the theta value, as ``closure_lhs`` does; then the
    Floquet multiplier of a closed curve is the one its closure solve made
    a root of unity.
    """
    pc, ppc, zc, _ = weierstrass(c, inv)
    r = cmath.sqrt(-inv.g3 / inv.g2)
    a = -ppc / (2.0 * pc)
    return (r if abs(a - r) <= abs(a + r) else -r) - zc


def _lame_values(z, inv: Invariants, c: complex, mu: complex, at_z=None):
    """(h, phi1, phi1_prime) at the Lame variable z for parameter c and mu = _mu(inv, c).

    h(z) = sigma(z + c)/sigma(z) * exp(mu z) is the antiderivative of phi1;
    evaluation goes through log-sigma differences so the exponential
    quasi-period factors cancel before exponentiation.  ``at_z`` is
    weierstrass(z, inv) when the caller has it already.
    """
    z = np.asarray(z, dtype=complex)
    wp0, _, zeta0, lsig0 = weierstrass(z, inv) if at_z is None else at_z
    wpc, _, zetac, lsigc = weierstrass(z + c, inv)
    h = np.exp(lsigc - lsig0 + mu * z)
    g = zetac - zeta0 + mu
    return h, h * g, h * (g**2 + wp0 - wpc)


# ---------------------------------------------------------------------------
# closure condition


def _closure_quantity(lat: LatticeData, c, mu):
    """2i/pi (-mu w1 - eta1 c).  The parts are divided by pi one by one, as
    Python's complex division by a real does, so scalars and arrays agree."""
    A = -mu * lat.w1 - lat.eta1 * c
    return -2.0 * A.imag / np.pi + 1j * (2.0 * A.real / np.pi)


def closure_lhs_with_d(Q: float | np.ndarray):
    """Closure quantity and the parameter d (c = w1 + d i) for q = 1.

    The two representatives +-Im(c) give opposite signs of the (purely
    real) quantity; the positive-imaginary one matches the positive winding
    ratios n/m, while d is reported for the negative-imaginary
    representative used to draw the curve.  With v = wp(c) = -g3/g2 the
    cubic gives wp'(c)^2 = 4 v^3 exactly, and on the vertical segment
    through w1 with Im c > 0 wp falls from e1 to e2, so -wp'(c)/(2 v) is
    the principal sqrt(v) and mu = sqrt(v) - zeta(c) needs no theta wp'(c).

    Q is a float, or a 1-d array of them, which gives two arrays.  An array
    is one batch of lattices (see ``elliptic``): two theta evaluations in
    all, and each entry has the bits of the scalar call at its Q.  When a Q
    of the batch fails, the call raises the error that the scalar call
    raises at the first such Q.  A float reads and fills the per-lattice
    cache; an array does not.
    """
    if isinstance(Q, float) or np.ndim(Q) == 0:
        lhs, d = _closure_lhs_with_d(Q)
        return float(lhs), float(d)
    Q = np.array(Q, dtype=float)
    if Q.ndim != 1:
        raise ValueError("Q must be a float or a 1-d array")
    if Q.size == 0:
        return Q.copy(), Q.copy()
    with np.errstate(over="ignore"):  # a Q that overflows g2 or g3 fails Invariants' check
        return first_failure(lambda: _closure_lhs_with_d(Q), closure_lhs_with_d, zip(Q.tolist()))


def _closure_lhs_with_d(Q):
    if np.count_nonzero(~np.asarray(Q > 1.0)):
        raise ValueError("normalization requires Q > 1")
    inv = invariants_from_qQ(1.0, Q)
    lat = half_periods(inv)
    c = lame_parameter_c(inv, prefer_negative_imag=False)
    if np.count_nonzero(abs(c.real - lat.w1) > 1e-9 * lat.w1):
        raise NoSuchC("expected c on the vertical segment through w1")
    mu = np.sqrt(-inv.g3 / inv.g2 + 0j) - zeta_w(c, inv)
    val = _closure_quantity(lat, c, mu)
    if np.count_nonzero((abs(val.imag) > 1e-8) & (abs(val.imag) > 1e-8 * abs(val.real))):  # 1e-8 max(1, |val|)
        raise NoSuchC("closure quantity is not real to rounding")
    return val.real, -c.imag


def closure_lhs(Q: float | np.ndarray):
    """Closure quantity as a function of the maximum curvature Q (q = 1);
    a 1-d array of Q gives an array, as in ``closure_lhs_with_d``."""
    return closure_lhs_with_d(Q)[0]


@cache
def _prescan() -> tuple:
    """The closure quantity on a fixed geometric grid over ``_Q_INTERVAL``.

    One batch call, made once per process: the lists Q, lhs and d, each
    entry with the bits of the scalar call at its Q.
    """
    Q = np.geomspace(*_Q_INTERVAL, _PRESCAN_NODES)
    lhs, d = closure_lhs_with_d(Q)
    return Q.tolist(), lhs.tolist(), d.tolist()


def _inverse_guess(Q, lhs, target: float) -> float:
    """The Q where the quantity is ``target``, by inverse cubic interpolation
    through the 4 grid nodes (Q, lhs).

    The quantity leaves sqrt 2 like (Q - 1)^2 / Q and tends to 1 like
    Q^(-1/2), so v = log(sqrt 2 - lhs)/2 - log(lhs - 1) follows u =
    log(sqrt Q - 1/sqrt Q) up to a constant at both ends of the window, and
    the cubic u(v) fits every grid cell.
    """
    Q, lhs = np.array(Q), np.array([*lhs, target])
    u = np.log(Q - 1.0) - 0.5 * np.log(Q)
    v = 0.5 * np.log(np.sqrt(2.0) - lhs) - np.log(lhs - 1.0)
    t = math.exp(np.polyval(np.polyfit(v[:-1], u, 3), v[-1]))
    return (0.5 * (t + math.sqrt(t * t + 4.0))) ** 2


def solve_closure(m: int, n: int) -> ClosureSolution:
    """Root-find the Q > 1 whose closure quantity equals n/m.

    The quantity falls strictly over the solver's Q interval, from about
    sqrt(2) to about 1.026; a ratio outside that range raises NotBracketed,
    and m < 1 or n < 1 raises DomainError.  The solve starts from the
    cached pre-scan (``_prescan``): its end nodes decide NotBracketed, the
    first node at or below n/m picks the grid cell, and inverse cubic
    interpolation (``_inverse_guess``) gives a guess in it.  The sign at the
    guess splits the cell, and Brent's method (xtol 1e-13, rtol 4e-15)
    solves in the part that brackets.  Every Q evaluated, the nodes
    included, is kept for the solve, so no Q is evaluated twice.
    """
    if m < 1 or n < 1:
        raise DomainError(f"closure pair needs m >= 1 and n >= 1, got {m}:{n}")
    target = n / m
    Qs, lhs, ds = _prescan()
    if np.sign(lhs[0] - target) == np.sign(lhs[-1] - target):
        raise NotBracketed(f"no Q in [{Qs[0]:g}, {Qs[-1]:g}] with closure quantity {target:g}")
    known = dict(zip(Qs, zip(lhs, ds)))

    def evaluate(q: float) -> tuple[float, float]:
        if q not in known:
            known[q] = closure_lhs_with_d(q)
        return known[q]

    def f(q: float) -> float:
        return evaluate(q)[0] - target

    k = next(i for i in range(1, len(Qs)) if lhs[i] <= target)  # the root is in cell (k - 1, k)
    j = min(max(k - 2, 0), len(Qs) - 4)
    guess = min(max(_inverse_guess(Qs[j : j + 4], lhs[j : j + 4], target), Qs[k - 1]), Qs[k])
    lo, hi = (Qs[k - 1], guess) if f(guess) <= 0.0 else (guess, Qs[k])
    Q = brent_root(f, lo, hi, xtol=_XTOL, rtol=_RTOL)
    lhs_Q, d = evaluate(Q)
    inv = invariants_from_qQ(1.0, Q)
    lat = half_periods(inv)
    return ClosureSolution(m=m, n=n, Q=float(Q), inv=inv, lattice=lat, d=d, lhs=lhs_Q)


# ---------------------------------------------------------------------------
# case families


def _no_poles(s: np.ndarray) -> np.ndarray:
    return np.array([])


def _origin(s: np.ndarray) -> np.ndarray:
    return np.array([0.0])


def _pole_lattice(s: np.ndarray, half: float, odd: bool = False) -> np.ndarray:
    """The even (or odd) multiples of ``half`` around the grid s."""
    k = np.arange(np.floor(s.min() / (2 * half)) - 1, np.ceil(s.max() / (2 * half)) + 2)
    return half * (2.0 * k + 1.0) if odd else 2.0 * half * k


@dataclass(frozen=True)
class _FamilySpec:
    """What synthesis knows about one curve family, evaluated for one parameter set.

    Each ``Case`` builds its spec from the label; the length-constrained
    family builds one from (A, g3, c0).  ``meta`` names the family and its
    parameters in every curve's metadata.  ``poles(s)`` lists the real
    curvature singularities around a grid, which no sample may touch on the
    length ``pole_scale``; ``rho_complex`` is the distance from the real line
    to the nearest complex one.  ``route(spec, s)`` returns (x, y, metadata
    naming the route); only the Lame route reads ``closure``, the (m, n) of
    a closed curve whose grid holds 2m equal kappa-periods.
    """

    meta: dict
    inv: Invariants
    kappa: Callable[[np.ndarray], np.ndarray]  # closed-form curvature on a real grid
    grid: tuple[float, float, int]  # default (lo, hi, n)
    route: Callable[..., tuple[np.ndarray, np.ndarray, str]]
    poles: Callable[[np.ndarray], np.ndarray] = _no_poles
    pole_scale: float = 1.0
    rho_complex: float = np.inf
    c0: complex = 0.0 + 0.0j  # branch shift of the curvature: 0 or the imaginary half-period
    lat: LatticeData | None = None
    period: float | None = None  # closed family: the default grid is one period
    closure: tuple[int, int] | None = None


def _unimodular_scale(x: np.ndarray, y: np.ndarray, det0: float):
    """Diagonal map making |gamma', gamma''| = 1 from a constant det0."""
    if not np.isfinite(det0) or det0 == 0.0:
        raise UnimodularizationFailed("constant determinant vanished")
    a = 1.0 / np.sqrt(abs(det0))
    b = np.sign(det0) * a
    return x * a, y * b


def _constant_wronskian(w: np.ndarray, scale: float) -> float:
    """The value of a sampled Wronskian that must be constant: its median.

    Raises UnimodularizationFailed when the median is below 1e-12 ``scale``
    or the median deviation from it exceeds 1e-6 of it.
    """
    det0 = median(w)
    spread = median(np.abs(w - det0))
    if abs(det0) < 1e-12 * scale or spread > 1e-6 * abs(det0):
        raise UnimodularizationFailed("Wronskian of the solution pair is not constant")
    return det0


def _unimodular_pair(rows, rows_p, rows_pp):
    """Unimodular coordinates out of complex solution rows and their two derivatives.

    The mean-removed real and imaginary parts of each row are the candidate
    real solutions; the two combinations ``_solution_pair`` picks must have a
    nonzero, constant Wronskian, which ``_unimodular_scale`` maps to 1.
    """

    def parts(a):
        return np.array([p for row in a for p in (row.real, row.imag)])

    funcs = parts(rows)
    funcs = funcs - funcs.mean(axis=1, keepdims=True)
    u, up, upp = _solution_pair(funcs, parts(rows_p), parts(rows_pp))
    w = up[0] * upp[1] - up[1] * upp[0]
    det0 = _constant_wronskian(w, median(np.abs(up[0] * upp[1])))
    return _unimodular_scale(u[0], u[1], det0)


def _floquet_multiplier(lat: LatticeData, c: complex, mu: complex, m: int, n: int):
    """The exact multiplier of h over 2 w1, as j with rho = e^(i pi j/m), and its defect.

    sigma(z + 2 w1) = -e^(2 eta1 (z + w1)) sigma(z) gives h(z + 2 w1) = rho
    h(z) with rho = e^(2 (mu w1 + eta1 c)) (Whittaker & Watson 23.7).  A
    closing Q makes rho the root of unity e^(-+i pi n/m), so j = -+n, the
    nearer of the two; the defect is its distance from the computed rho.
    Raises SynthesisError when the defect exceeds ``_FLOQUET_TOL``: the Q
    given does not close with m:n.
    """
    rho = cmath.exp(2.0 * (mu * lat.w1 + lat.eta1 * c))
    defect, j = min((abs(rho - cmath.exp(1j * np.pi * j / m)), j) for j in (-n, n))
    if not defect <= _FLOQUET_TOL:
        raise SynthesisError(
            f"Floquet multiplier {rho:.6g} is {defect:.2e} from e^(-+i pi {n}/{m}): Q does not close"
        )
    return j, defect


def _floquet_powers(j: int, m: int) -> np.ndarray:
    """rho^k = e^(i pi j k/m) for the 2m kappa-periods k, each from its reduced angle."""
    return np.exp(1j * np.pi * (j * np.arange(2 * m) % (2 * m)) / m)


def _tile(a: np.ndarray, powers: np.ndarray | None) -> np.ndarray:
    """Period k of a Floquet solution is powers[k] times the first period."""
    return a if powers is None else (powers[:, None] * a).ravel()


def _lame_route(f: _FamilySpec, s: np.ndarray):
    """Coordinates for the generic families via the Lame solutions.

    A closed curve (``f.closure`` = (m, n)) evaluates the solutions on its
    first kappa-period only and tiles the other 2m - 1 by the exact Floquet
    multiplier; any other grid is evaluated as it stands.
    """
    c = lame_parameter_c(f.inv, prefer_negative_imag=f.c0 != 0)
    mu = _mu(f.inv, c)
    z = s.astype(complex) - f.c0
    powers, meta = None, {}
    if f.closure is not None:
        m, n = f.closure
        per = len(s) // (2 * m)
        if per < 2:
            raise DomainError(f"a closed curve needs at least 2 samples per period, got {per}")
        j, defect = _floquet_multiplier(f.lat, c, mu, m, n)
        powers, z = _floquet_powers(j, m), z[:per]
        meta = {"floquet_arg_pi": j / m, "floquet_defect": defect}
    at_z = weierstrass(z, f.inv)  # shared by the +c and -c solutions
    H, P1, P1p = _lame_values(z, f.inv, c, mu, at_z)
    # the tiles are copies of this period up to |rho| = 1, so their medians are its medians
    wri = np.imag(np.conj(P1) * P1p)
    scale = median(np.abs(P1) * np.abs(P1p)) + 1e-300
    independent = median(np.abs(wri)) > _DEPENDENCE_RTOL * scale

    if independent:
        # Wronskian of the (Re phi1, Im phi1) pair is Im(conj(phi1) phi1')
        det0 = _constant_wronskian(wri, scale)
        H = _tile(H, powers)
        x, y = _unimodular_scale(H.real, H.imag, det0)
        return x, y, {"route": "explicit", **meta}

    # general route: mirrored Floquet partner (multiplier 1/rho) supplies the missing solution
    Hm, P1m, P1pm = _lame_values(z, f.inv, -c, _mu(f.inv, -c), at_z)
    inverse = None if powers is None else powers.conj()
    x, y = _unimodular_pair(
        *((_tile(a, powers), _tile(b, inverse)) for a, b in ((H, Hm), (P1, P1m), (P1p, P1pm)))
    )
    return x, y, {"route": "general", **meta}


def _solution_pair(funcs: np.ndarray, d1: np.ndarray, d2: np.ndarray):
    """Two independent real combinations out of candidate solution rows.

    Rows of d1 are candidate first derivatives; rows whose norm is
    negligible (numerically zero functions) are dropped before the SVD so
    normalization cannot amplify rounding noise into fake directions.
    """
    norms = np.sqrt(np.mean(d1**2, axis=1))
    keep = norms > 1e-12 * norms.max()
    if np.count_nonzero(keep) < 2:
        raise UnimodularizationFailed("fewer than two usable solution candidates")
    funcs, d1, d2, norms = funcs[keep], d1[keep], d2[keep], norms[keep]
    U, svals, _ = np.linalg.svd(d1 / norms[:, None], full_matrices=False)
    if svals[1] < 1e-10 * svals[0]:
        raise UnimodularizationFailed("could not find two independent real solutions")
    combo = U[:, :2].T / norms[None, :]
    return combo @ funcs, combo @ d1, combo @ d2


def _length_constrained_route(f: _FamilySpec, s: np.ndarray, A: float):
    """Zeta-based closed form of the length-constrained family, g2 = A^2/12.

    The rows (-zeta + A s/12, A zeta z/6 + wp - zeta^2 - (A z/12)^2) at
    z = s - c0 span the coordinate solutions.
    """
    z = s.astype(complex) - f.c0
    pv, ppv, zv, _ = weierstrass(z, f.inv)
    xf = -zv + (A / 12.0) * s
    yf = (A / 6.0) * zv * z + pv - zv * zv - (A / 12.0) ** 2 * z * z
    xfp = pv + A / 12.0
    yfp = (A / 6.0) * (zv - pv * z) + ppv + 2.0 * zv * pv - (A * A / 72.0) * z
    ppp = 6.0 * pv * pv - f.inv.g2 / 2.0
    yfpp = (A / 6.0) * (-2.0 * pv - ppv * z) + ppp - 2.0 * pv * pv + 2.0 * zv * ppv - A * A / 72.0
    x, y = _unimodular_pair((xf, yf), (xfp, yfp), (ppv, yfpp))
    return x, y, {"route": "general"}


def _sqrt_line_route(f: _FamilySpec, s: np.ndarray, positive: bool = False):
    """Families whose position is +-sqrt(|kappa|) (1, s) up to a linear map.

    ``positive`` marks the family whose curvature is >= 0 (A2), else it is
    <= 0.  A2's curvature vanishes at the odd multiples of w1, where the
    position flips sign between smooth arcs; its metadata says so in
    ``sign_flip_at_poles``.
    """
    kappa = f.kappa(s)
    w = np.sqrt(kappa) if positive else np.sqrt(-kappa)
    det0 = 3.0 * f.inv.g2 if positive else -3.0 * f.inv.g2
    x, y = _unimodular_scale(w, w * s, det0)
    meta = {"route": "sqrt-line", "sign_flip_at_poles": True} if positive else {"route": "sqrt-line"}
    return x, y, meta


def _d_route(f: _FamilySpec, s: np.ndarray, tfun, E: float):
    """Closed-form coordinates of a g3 < 0 degenerate family, t = tfun(b s).

    The solutions e^(+-a s)(1 -+ 3 sqrt2 t + 3 t^2), a = sqrt2 b, are the
    derivatives of X = e^(as)(4/a - 3t/b) and Y = -e^(-as)(4/a + 3t/b),
    because t' = b(1 - t^2) for t = tanh and t = coth alike; the Wronskian is
    4a.
    """
    a = np.sqrt(-3.0 * E)
    b = np.sqrt(-1.5 * E)
    t = tfun(b * s)
    X = np.exp(a * s) * (4.0 / a - 3.0 * t / b)
    Y = -np.exp(-a * s) * (4.0 / a + 3.0 * t / b)
    x, y = _unimodular_scale(X - X[0], Y - Y[0], 4.0 * a)
    return x, y, {"route": "closed-form"}


def _e_route(f: _FamilySpec, s: np.ndarray, E: float):
    """Closed-form coordinates of the g3 > 0 degenerate open family, t = tan(b s).

    X = (4/al) sin(al s) - (3/b) t cos(al s) and Y = (4/al) cos(al s) +
    (3/b) t sin(al s), al = sqrt2 b, have Wronskian 2 al.
    """
    al = np.sqrt(3.0 * E)
    b = np.sqrt(1.5 * E)
    t = np.tan(b * s)
    X = (4.0 / al) * np.sin(al * s) - (3.0 / b) * t * np.cos(al * s)
    Y = (4.0 / al) * np.cos(al * s) + (3.0 / b) * t * np.sin(al * s)
    x, y = _unimodular_scale(X - X[0], Y - Y[0], 2.0 * al)
    return x, y, {"route": "closed-form"}


def _f_route(f: _FamilySpec, s: np.ndarray):
    """g2 = 0 family: affine image of (zeta(s), wp(s) - zeta(s)^2)."""
    pv, _, zv, _ = weierstrass(s.astype(complex), f.inv)
    x, y = _unimodular_scale(zv.real, (pv - zv * zv).real, -f.inv.g3)
    return x, y, {"route": "closed-form"}


def _g_route(f: _FamilySpec, s: np.ndarray):
    al = 20.0 ** -0.5
    return al * s**4, al / s, {"route": "closed-form"}


def _ellipse_route(f: _FamilySpec, s: np.ndarray, kappa0: float):
    R = kappa0 ** -0.75
    om = np.sqrt(kappa0)
    return R * np.cos(om * s), R * np.sin(om * s), {"route": "closed-form"}


def _case_meta(label: CaseLabel) -> dict:
    return {
        "case": label.tag.value,
        "g2": label.g2,
        "g3": label.g3,
        "params": {k: float(v) for k, v in label.params.items()},
    }


def _case_spec(label: CaseLabel, **fields) -> _FamilySpec:
    return _FamilySpec(_case_meta(label), Invariants(label.g2, label.g3), **fields)


def _wp_spec(meta, inv, grid, route, poles=None, c0_w2=False, shift=0.0):
    """Spec of a family with curvature -6 wp(s - c0) + shift, built with one half_periods call.

    ``grid`` is the default (lo, hi, n) and ``poles`` the real pole lattice
    (half-spacing, odd) or None, lengths in units of the real half-period.
    """
    lat = half_periods(inv)
    w1 = lat.w1
    c0 = 1j * lat.w2_im if c0_w2 else 0.0 + 0.0j
    pole_set = _no_poles if poles is None else lambda s: _pole_lattice(s, poles[0] * w1, poles[1])
    return _FamilySpec(
        meta, inv, kappa=lambda s: -6.0 * wp(s - c0, inv).real + shift,
        grid=(grid[0] * w1, grid[1] * w1, grid[2]), route=route, poles=pole_set,
        pole_scale=w1, rho_complex=lat.w2_im, c0=c0, lat=lat,
    )


def _wp_family(*args, **kw):
    """Entry of a case with curvature -6 wp(s - c0); arguments as for ``_wp_spec``."""
    return lambda label: _wp_spec(_case_meta(label), Invariants(label.g2, label.g3), *args, **kw)


def _d_family(tfun, grid, poles):
    """Entry of a g3 < 0 degenerate family, kappa = 9 E tfun(b s)^2 - 6 E, grid in units of 1/b."""

    def build(label: CaseLabel) -> _FamilySpec:
        E = label.params["E"]
        b = np.sqrt(-1.5 * E)
        return _case_spec(
            label, kappa=lambda s: 9.0 * E * tfun(b * s) ** 2 - 6.0 * E,
            grid=(grid[0] / b, grid[1] / b, 4000), route=partial(_d_route, tfun=tfun, E=E),
            poles=poles, pole_scale=1.0 / b, rho_complex=0.5 * np.pi / b,
        )

    return build


def _e_family(label: CaseLabel) -> _FamilySpec:
    """Entry of the g3 > 0 degenerate open family, kappa = -9 E tan(b s)^2 - 6 E."""
    E = label.params["E"]
    b = np.sqrt(1.5 * E)
    lim = 0.5 * (np.pi / 2.0) / b
    return _case_spec(
        label, kappa=lambda s: -9.0 * E * np.tan(b * s) ** 2 - 6.0 * E, grid=(-lim, lim, 4000),
        route=partial(_e_route, E=E), poles=lambda s: _pole_lattice(s, (np.pi / 2.0) / b, odd=True),
        pole_scale=1.0 / b, rho_complex=0.5 * np.pi / b,
    )


def _ellipse_family(label: CaseLabel) -> _FamilySpec:
    kappa0 = 3.0 * label.params["E"]
    period = 2.0 * np.pi / np.sqrt(kappa0)
    return _case_spec(
        label, kappa=lambda s: np.full_like(s, kappa0), grid=(0.0, period, 4096),
        route=partial(_ellipse_route, kappa0=kappa0), period=period,
    )


_ONE_PERIOD = (0.5, 1.5, 4000)  # branch through the curvature pole: stay inside one period
_EVEN = (1.0, False)  # poles at the even multiples of w1

#: the one place where a case is defined: its spec, built from the label
_FAMILIES = {
    Case.A1: _wp_family((0.0, 6.0, 6000), _lame_route, c0_w2=True),
    Case.A2: _wp_family((-0.9, 0.9, 4000), partial(_sqrt_line_route, positive=True), (1.0, True), c0_w2=True),
    Case.A3: _wp_family((0.0, 6.0, 6000), _lame_route, c0_w2=True),
    Case.B1: _wp_family(_ONE_PERIOD, _lame_route, _EVEN),
    Case.B2: _wp_family(_ONE_PERIOD, _sqrt_line_route, _EVEN),
    Case.B3: _wp_family(_ONE_PERIOD, _lame_route, _EVEN),
    Case.C1: _wp_family(_ONE_PERIOD, _lame_route, _EVEN),
    Case.C2: _wp_family(_ONE_PERIOD, _lame_route, _EVEN),
    # curvature poles at even multiples of w1, square-root flips at odd ones
    Case.C3: _wp_family((0.3, 0.8, 5000), _sqrt_line_route, (0.5, False)),
    Case.C4: _wp_family(_ONE_PERIOD, _lame_route, _EVEN),
    Case.C5: _wp_family(_ONE_PERIOD, _lame_route, _EVEN),
    Case.F: _wp_family(_ONE_PERIOD, _f_route, _EVEN),
    Case.Da: _d_family(lambda x: 1.0 / np.tanh(x), (1.2, 5.0), _origin),
    Case.Dc: _d_family(np.tanh, (-2.5, 2.5), _no_poles),
    Case.E_case: _e_family,
    Case.G: lambda label: _case_spec(
        label, kappa=lambda s: -6.0 / s**2, grid=(0.7, 3.5, 4000), route=_g_route, poles=_origin
    ),
    Case.Ellipse: _ellipse_family,
}


def _family(label: CaseLabel) -> _FamilySpec:
    return _FAMILIES[label.tag](label)


def _length_constrained_family(A: float, g3: float, c0) -> _FamilySpec:
    """Spec of the length-constrained family: kappa = -6 wp(s - c0) + A/2, g2 = A^2/12.

    wp(s - c0) has real poles at the even multiples of w1 for c0 = 0, at the
    odd ones for c0 = w2 on a rhombic lattice and none for c0 = w2 on a
    rectangular one.
    """
    if c0 not in ("0", "w2"):
        raise DomainError(f"c0 must be '0' or 'w2', got {c0!r}")
    inv = Invariants(A * A / 12.0, g3)
    if inv.is_degenerate:
        raise ValueError("choose g3 with a non-degenerate discriminant")
    if c0 == "0":
        grid, poles = (0.4, 1.6, 4000), _EVEN
    elif inv.discriminant < 0:
        grid, poles = (-0.6, 0.6, 4000), (1.0, True)
    else:
        grid, poles = (0.0, 4.0, 4000), None
    meta = {"case": "length-constrained", "A": A, "g2": inv.g2, "g3": g3, "c0": c0}
    route = partial(_length_constrained_route, A=A)
    return _wp_spec(meta, inv, grid, route, poles, c0 == "w2", shift=A / 2.0)


# ---------------------------------------------------------------------------
# synthesis


def _grid_from(default, grid, n, endpoint: bool = True) -> np.ndarray:
    """The sample grid; an (lo, hi) range needs finite lo < hi (else DomainError)."""
    if grid is None:
        lo, hi, npts = default
        return np.linspace(lo, hi, npts if n is None else n, endpoint=endpoint)
    if isinstance(grid, tuple) and len(grid) == 2:
        lo, hi = grid
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise DomainError(f"grid range needs finite lo < hi, got {lo:g} {hi:g}")
        return np.linspace(lo, hi, 4000 if n is None else n)
    return np.asarray(grid, dtype=float)


def _sample(f: _FamilySpec, grid=None, n=None) -> CurveSamples:
    """The one synthesis sequence: grid, pole check, route, metadata and filter window.

    The derivative-filter window ``fd_window`` is sized by the nearest
    curvature singularity, real or complex.  A spec with a period is closed
    on its default grid.
    """
    s = _grid_from(f.grid, grid, n, endpoint=f.period is None)
    if len(s) < 7:  # the CurveSamples minimum, checked before anything indexes s
        raise DomainError(f"a curve needs at least 7 samples, got {len(s)}")
    poles = f.poles(s)
    rho = f.rho_complex
    if len(poles):
        gap = float(np.min(np.abs(s[:, None] - poles[None, :])))
        if gap < _POLE_MARGIN * f.pole_scale:
            raise GridHitsPole(f"grid touches a {f.meta['case']} pole")
        rho = min(rho, gap)
    x, y, route_meta = f.route(f, s)

    meta = {**f.meta, **route_meta}
    if np.isfinite(rho):
        meta["fd_window"] = filter_window(rho, float(s[1] - s[0]))
    return CurveSamples(s, x, y, closed=f.period is not None and grid is None, period=f.period, meta=meta)


def synthesize(label: CaseLabel, grid=None, n: int | None = None) -> CurveSamples:
    """Equi-affine samples of the critical curve described by ``label``.

    ``grid`` is an (lo, hi) tuple of ``n`` samples (default 4000) or an
    explicit uniform array; omitted, a case-appropriate pole-avoiding
    default of ``n`` samples is used.  The output satisfies |gamma', gamma''| = 1 and
    its recomputed curvature matches the closed form for the case.  Only a
    family with a period (the ellipse) on its default grid is closed; closed
    curves of the other families come from ``synthesize_closed``.
    """
    return _sample(_family(label), grid, n)


def synthesize_closed(sol: ClosureSolution, samples_per_period: int = 2000) -> CurveSamples:
    """One full closed curve of a closure solution, grid excluding the wrap.

    The grid holds ``samples_per_period`` points in each of the 2m
    kappa-periods; the theta series runs on the first period only and tiles
    the others by the Floquet multiplier.  The metadata records the
    multiplier used (``floquet_arg_pi``, its argument over pi) and its
    distance from the computed one (``floquet_defect``).  Raises DomainError
    when a period gets fewer than 2 samples or the solution's family has no
    period lattice.
    """
    label = classify(sol.inv, Branch.closed_branch)
    f = _family(label)
    if f.lat is None:
        raise DomainError(f"case {label.tag.value} has no period lattice to close over")
    grid = (0.0, sol.period, samples_per_period * 2 * sol.m)
    out = _sample(replace(f, grid=grid, period=sol.period, closure=(sol.m, sol.n)))
    out.meta.update(sol.to_json_dict())
    return out


def synthesize_length_constrained(
    A: float, g3: float, c0="w2", grid=None, n: int | None = None
) -> CurveSamples:
    """Critical curves of total curvature under arc-length constraint.

    The curvature is -6 wp(s - c0) + A/2 with g2 = A^2 / 12 and free g3;
    coordinates come from the zeta-based closed form, reduced to two
    independent real solutions and unimodularized.  ``c0`` is "0" or "w2"
    (else DomainError).
    """
    return _sample(_length_constrained_family(A, g3, c0), grid, n)


# ---------------------------------------------------------------------------
# display transform


def _conic_through(points: np.ndarray) -> np.ndarray:
    """Least-squares conic coefficients (A, B, C, D, E, F) through points."""
    x, y = points[:, 0], points[:, 1]
    M = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    _, _, Vt = np.linalg.svd(M)
    return Vt[-1]


def euclidean_display_transform(c: CurveSamples) -> CurveSamples:
    """Linear display map sending the curvature-maximum ellipse to a circle.

    The output is display-normalized only (no longer equi-affine normalized)
    and flagged as such in the metadata.  Constant-curvature inputs return
    unchanged.
    """
    fr = frame_and_curvature(c)
    kappa = fr.kappa
    kscale = float(np.mean(np.abs(kappa)))
    if float(np.std(kappa)) < 1e-8 * max(kscale, 1e-300):
        out = c.transformed(np.eye(2))
        out.meta["display_normalized"] = True
        return out
    if not c.closed:
        raise EllipseFitFailed("display normalization needs a closed curve")

    # locate curvature maxima with sub-grid parabolic refinement, all at once
    idx = np.nonzero((kappa > np.roll(kappa, 1)) & (kappa >= np.roll(kappa, -1)))[0]
    if len(idx) < 5:
        raise EllipseFitFailed("need at least 5 curvature maxima to fit the ellipse")
    prev, nxt = (idx - 1) % c.n, (idx + 1) % c.n
    km, k0, kp = kappa[prev], kappa[idx], kappa[nxt]
    denom = km - 2 * k0 + kp
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat top (denom 0) stays on its node
        f = np.clip(np.where(denom != 0, 0.5 * (km - kp) / denom, 0.0), -1.0, 1.0)[:, None]
    # quadratic position interpolation through three neighbouring samples
    P = c.points()
    pm, p0, pp = P[prev], P[idx], P[nxt]
    pts = p0 + 0.5 * f * (pp - pm) + 0.5 * f * f * (pp - 2 * p0 + pm)

    coef = _conic_through(pts)
    A2 = np.array([[coef[0], coef[1] / 2.0], [coef[1] / 2.0, coef[2]]])
    if np.linalg.det(A2) <= 0:
        raise EllipseFitFailed("fitted conic is not an ellipse")
    center = np.linalg.solve(2.0 * A2, -coef[3:5])
    val0 = (
        coef[0] * center[0] ** 2
        + coef[1] * center[0] * center[1]
        + coef[2] * center[1] ** 2
        + coef[3] * center[0]
        + coef[4] * center[1]
        + coef[5]
    )
    S = A2 / (-val0)
    evals, evecs = np.linalg.eigh(S)
    if np.any(evals <= 0):
        raise EllipseFitFailed("fitted conic is not an ellipse")
    L = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    out = c.transformed(L, -L @ center)
    out.meta["display_normalized"] = True
    return out
