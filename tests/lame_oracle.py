"""Test-only Lame oracle: the solutions phi1, phi1' and phi2 of F'' = 6 wp F.

phi2 comes from the reduction-of-order integral, evaluated by Gauss-Legendre
quadrature along straight paths, independently of the synthesis routes.
"""

from dataclasses import dataclass

import numpy as np

from affine_elastica.elliptic import Invariants, wp
from affine_elastica.errors import SynthesisError
from affine_elastica.synthesis import _lame_values, _mu


class PathThroughZero(SynthesisError):
    """Integration path passes through a zero of the first solution."""


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


@dataclass(frozen=True)
class LameSolutionParams:
    """Data needed to evaluate the Lame solutions for one curve family.

    ``c`` satisfies wp(c) = -g3/g2; ``c0`` is the branch shift of the
    curvature (0 or the imaginary half-period).
    """

    inv: Invariants
    c: complex
    c0: complex
    s_grid: np.ndarray

    def __post_init__(self):
        g2, g3 = self.inv.g2, self.inv.g3
        target = -g3 / g2
        val = wp(self.c, self.inv)
        if abs(val - target) > 1e-8 * max(1.0, abs(target)):
            raise ValueError("c does not satisfy wp(c) = -g3/g2")


def lame_phi1(z, p: LameSolutionParams):
    """First Lame solution phi1(z); satisfies phi1'' = 6 wp phi1."""
    return _lame_values(z, p.inv, p.c, _mu(p.inv, p.c))[1]


def lame_phi1_prime(z, p: LameSolutionParams):
    """Derivative of the first Lame solution."""
    return _lame_values(z, p.inv, p.c, _mu(p.inv, p.c))[2]


def lame_phi2(z, p: LameSolutionParams, panels_per_unit: int = 160):
    """Second Lame solution by reduction of order, Wronskian 1.

    phi2(z) = phi1(z) * integral of phi1(v)^-2 from z0 to z, with z0 the
    first grid point shifted by -c0 and a straight integration path.  Raises
    PathThroughZero if phi1 nearly vanishes on the path.
    """
    mu = _mu(p.inv, p.c)

    def phi1(v):
        return _lame_values(v, p.inv, p.c, mu)[1]

    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zs = np.atleast_1d(z)
    z0 = complex(p.s_grid[0]) - p.c0

    # straight path per requested point; reject paths crossing a phi1 zero
    out = np.empty_like(zs)
    for i, zt in enumerate(zs):
        npan = max(8, int(abs(zt - z0) * panels_per_unit))
        nodes = z0 + (zt - z0) * np.linspace(0.0, 1.0, npan + 1)
        vals = phi1(nodes)
        a, b = vals[:-1], vals[1:]
        d = b - a
        t = np.clip(-np.real(np.conj(d) * a) / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)
        dmin = np.abs(a + t * d)  # closest approach of each linear segment to 0
        if np.min(dmin) < 1e-5 * np.median(np.abs(vals)):
            raise PathThroughZero("phi1 vanishes on the integration path")
        I = gl_cumulative(lambda v: 1.0 / phi1(v) ** 2, nodes)[-1]
        out[i] = phi1(zt) * I
    return complex(out[0]) if scalar else out
