"""Rounding noise of the closure quantity and the cost of the closure solve.

Prints two things for the ``affine_elastica`` package in the given source
directory (default: ``src`` beside this file's directory):

- For each of five closing ratios n/m, the rms scatter of ``closure_lhs``
  about its least-squares line over 121 Q within +-3e-14 (relative) of the
  solved root, in units of the spacing of doubles at n/m.
- How many scalar ``closure_lhs_with_d`` evaluations ``solve_closure``
  makes per pair, over every coprime pair with m <= 200 whose ratio lies in
  the solver's window (4,749 pairs): the distribution, the largest count,
  the total, and the largest count for roots above Q = 25.

Run it on two trees to compare them:

    python tests/closure_noise.py path/to/old/src
    python tests/closure_noise.py path/to/new/src

pytest does not collect this file; a run takes a few seconds.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path

#: the ratios whose root windows are measured
ROOTS = ((12, 13), (13, 14), (3, 4), (7, 9), (29, 37))
SPAN, POINTS = 3e-14, 121


def scatter_ulp(sy, np, m: int, n: int) -> float:
    """rms distance of the quantity from its fitted line near the root of n/m, in ulp of n/m."""
    Q0 = sy.solve_closure(m, n).Q
    Qs = Q0 * (1.0 + np.linspace(-SPAN, SPAN, POINTS))
    lhs = np.array([sy.closure_lhs(float(q)) for q in Qs])
    t = Qs - Q0
    resid = lhs - np.polyval(np.polyfit(t, lhs, 1), t)
    return float(np.sqrt(np.mean(resid**2)) / math.ulp(n / m))


def evaluations(sy, np) -> tuple[Counter, int]:
    """Scalar evaluations per solve over the window's pairs, and the largest above Q = 25."""
    window = sy.closure_lhs(np.array(sy._Q_INTERVAL))
    pairs = [(m, n) for m in range(1, 201) for n in range(m + 1, 2 * m)
             if math.gcd(m, n) == 1 and window[1] < n / m < window[0]]
    evaluate, counts, high = sy.closure_lhs_with_d, Counter(), 0
    calls = [0]

    def counted(Q):
        calls[0] += np.ndim(Q) == 0
        return evaluate(Q)

    sy.closure_lhs_with_d = counted
    try:
        for m, n in pairs:
            calls[0] = 0
            Q = sy.solve_closure(m, n).Q
            counts[calls[0]] += 1
            if Q > 25.0:
                high = max(high, calls[0])
    finally:
        sy.closure_lhs_with_d = evaluate
    return counts, high


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    import numpy as np

    from affine_elastica import synthesis as sy

    for m, n in ROOTS:
        print(f"scatter {m}:{n}: {scatter_ulp(sy, np, m, n):.2f} ulp rms")
    counts, high = evaluations(sy, np)
    print(f"evaluations per solve over {sum(counts.values())} pairs: "
          + ", ".join(f"{k}: {counts[k]}" for k in sorted(counts)))
    print(f"largest {max(counts)}, total {sum(k * v for k, v in counts.items())}, largest above Q = 25: {high}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
