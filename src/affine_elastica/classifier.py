"""Case taxonomy of the phase-plane cubic (kappa')^2 = -2/3 kappa^3 + 6 g2 kappa - 36 g3.

Every area-constrained critical curve traces part of this cubic in the
(kappa, kappa') plane.  The taxonomy splits on the signs of g2, g3 and the
cubic discriminant, and for the generic families on which branch of the
cubic is travelled (the closed oval exists only for positive discriminant).

Curvature-space intersections with the axis kappa' = 0 relate to the roots
e of 4t^3 - g2 t - g3 by kappa = -6 e.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .elliptic import Invariants, cubic_roots
from .errors import BranchUnavailable

__all__ = ["Case", "Branch", "CaseLabel", "classify"]

# Every floor below is weight-homogeneous (g2 ~ lambda^4, g3 ~ lambda^6,
# curvatures ~ lambda^2), so tags do not depend on the units of the input.
# A vanishing discriminant is Invariants.is_degenerate.

#: |q| below this times max(|P|, |Q|) counts as q = 0 (sub-cases A2 / B2), and
#: |P| below this times max(|P|, tau) as P = 0 (C3)
Q_ZERO_RTOL = 1e-10

#: |g2| below this times max(|g2|, |g3|^(2/3)) counts as g2 = 0 (cases F / G)
G2_ZERO_RTOL = 1e-10


class Case(str, enum.Enum):
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    Da = "Da"
    Dc = "Dc"
    E_case = "E"
    F = "F"
    G = "G"
    Ellipse = "ellipse"


class Branch(str, enum.Enum):
    closed_branch = "closed"
    open_branch = "open"


@dataclass
class CaseLabel:
    """Classification tag with its defining case parameters.

    ``params`` holds the raw (unrescaled) parameters: q, Q for A-cases,
    P, q, Q for B-cases, P, tau for C-cases, E for D/E/ellipse, g3 for F.
    """

    tag: Case
    params: dict = field(default_factory=dict)
    g2: float = 0.0
    g3: float = 0.0

    def to_json(self) -> str:
        payload = {
            "tag": self.tag.value,
            "params": {k: float(v) for k, v in self.params.items()},
            "g2": self.g2,
            "g3": self.g3,
            "discriminant": Invariants(self.g2, self.g3).discriminant,
        }
        return json.dumps(payload, indent=1)


def classify(inv: Invariants, branch: Branch = Branch.open_branch) -> CaseLabel:
    """Assign the case tag for invariants (g2, g3) and a branch choice.

    The closed branch exists only for positive discriminant (and collapses
    to the isolated point, an ellipse, on the degenerate boundary with
    g3 > 0); requesting it otherwise raises BranchUnavailable.
    """
    if isinstance(branch, str):
        branch = Branch(branch)
    g2, g3 = float(inv.g2), float(inv.g3)

    if abs(g2) <= G2_ZERO_RTOL * max(abs(g2), abs(g3) ** (2.0 / 3.0)):
        if g3 == 0.0:
            return CaseLabel(Case.G, {}, g2, g3)
        return CaseLabel(Case.F, {"g3": g3}, g2, g3)

    if inv.is_degenerate:
        E = np.cbrt(g3)
        if g3 < 0.0:
            tag = Case.Dc if branch is Branch.closed_branch else Case.Da
            return CaseLabel(tag, {"E": E}, g2, g3)
        tag = Case.Ellipse if branch is Branch.closed_branch else Case.E_case
        return CaseLabel(tag, {"E": E}, g2, g3)

    if inv.discriminant > 0.0:
        P, q, Q = -6.0 * cubic_roots(g2, g3).real  # ascending, as the roots descend
        q_zero = abs(q) < Q_ZERO_RTOL * max(abs(P), abs(Q))
        if branch is Branch.closed_branch:
            if q_zero:
                return CaseLabel(Case.A2, {"q": 0.0, "Q": Q}, g2, g3)
            tag = Case.A1 if q > 0 else Case.A3
            return CaseLabel(tag, {"q": q, "Q": Q}, g2, g3)
        if q_zero:
            return CaseLabel(Case.B2, {"P": P, "q": 0.0, "Q": Q}, g2, g3)
        tag = Case.B1 if q > 0 else Case.B3
        return CaseLabel(tag, {"P": P, "q": q, "Q": Q}, g2, g3)

    # negative discriminant: one real intersection P, complex pair -P/2 +- i tau
    if branch is Branch.closed_branch:
        raise BranchUnavailable("the cubic has no closed branch for negative discriminant")
    e = cubic_roots(g2, g3)  # (-r/2 + ib, r, -r/2 - ib)
    P, tau = -6.0 * float(e[1].real), 6.0 * float(e[0].imag)
    if abs(P) < Q_ZERO_RTOL * max(abs(P), tau):
        return CaseLabel(Case.C3, {"P": 0.0, "tau": tau}, g2, g3)
    if P > 0:
        tag = Case.C1 if g2 < 0 else Case.C2
    else:
        tag = Case.C4 if g2 < 0 else Case.C5
    return CaseLabel(tag, {"P": P, "tau": tau}, g2, g3)
