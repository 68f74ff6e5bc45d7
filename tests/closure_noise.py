"""Accuracy and rounding noise of the closure quantity and the cost of the
closure solve and of array evaluations.

Prints four things for the ``affine_elastica`` package in the given source
directory (default: ``src`` beside this file's directory):

- The largest error of ``closure_lhs`` against the 50-digit values of
  ``oracles.CLOSURE_LHS_REFERENCE`` over Q >= 1.9, and its error at
  Q = 1.001.
- For each of five closing ratios n/m, the rms scatter of ``closure_lhs``
  about its least-squares line over 121 Q within +-3e-14 (relative) of the
  solved root, in units of the spacing of doubles at n/m.
- How many scalar ``closure_lhs_with_d`` evaluations ``solve_closure``
  makes per pair, over every coprime pair with m <= 200 whose ratio lies in
  the solver's window (4,749 pairs): the distribution, the largest count,
  the total, and the largest count for roots above Q = 25.
- The best of 7 timeit repeats of one array ``closure_lhs_with_d`` call on
  ``np.geomspace(1.01, 100, n)`` for n = 2, 20, 50 and 80, in us per call.

Run it on two trees to compare them:

    python tests/closure_noise.py path/to/old/src
    python tests/closure_noise.py path/to/new/src

pytest does not collect this file; a run takes about ten seconds.
"""

from __future__ import annotations

import math
import sys
import timeit
from collections import Counter
from decimal import Decimal
from pathlib import Path

#: the ratios whose root windows are measured
ROOTS = ((12, 13), (13, 14), (3, 4), (7, 9), (29, 37))
SPAN, POINTS = 3e-14, 121
#: the array lengths whose evaluation cost is timed
ARRAY_SIZES = (2, 20, 50, 80)


def reference_errors(sy) -> tuple[float, float]:
    """The largest error against the 50-digit references over Q >= 1.9, and the error at Q = 1.001."""
    from oracles import CLOSURE_LHS_REFERENCE  # beside this file; it imports the package under test

    err = {Q: abs(float(Decimal(ref) - Decimal(sy.closure_lhs(Q)))) for Q, ref in CLOSURE_LHS_REFERENCE}
    return max(e for Q, e in err.items() if Q >= 1.9), err[1.001]


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


def array_costs(sy, np) -> list[float]:
    """Best-of-7 cost of one array evaluation at each of ``ARRAY_SIZES``, in us."""
    costs = []
    for n in ARRAY_SIZES:
        Q = np.geomspace(1.01, 100.0, n)
        costs.append(1e6 * min(timeit.repeat(lambda: sy.closure_lhs_with_d(Q), number=200, repeat=7)) / 200)
    return costs


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    import numpy as np

    from affine_elastica import synthesis as sy

    high, low = reference_errors(sy)
    print(f"reference error: {high:.3g} largest over Q >= 1.9, {low:.3g} at Q = 1.001")
    for m, n in ROOTS:
        print(f"scatter {m}:{n}: {scatter_ulp(sy, np, m, n):.2f} ulp rms")
    counts, high = evaluations(sy, np)
    print(f"evaluations per solve over {sum(counts.values())} pairs: "
          + ", ".join(f"{k}: {counts[k]}" for k in sorted(counts)))
    print(f"largest {max(counts)}, total {sum(k * v for k, v in counts.items())}, largest above Q = 25: {high}")
    print("array cost: " + ", ".join(f"{n} Q {c:.0f} us" for n, c in zip(ARRAY_SIZES, array_costs(sy, np))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
