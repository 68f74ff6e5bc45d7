"""Random sweep of the (g2, g3) families: classify, synthesize, verify.

Draws ``count`` invariant pairs (g2, g3) uniformly in [-3, 3]^2 from
``seed``, each with a random branch.  Each draw is classified, synthesized
on its family's default grid and judged by ``verify``'s ``el`` check at the
default tolerance, with warnings raised as errors.  Prints, per case tag,
how many draws passed, failed and raised each error type (tag "-" when
``classify`` raised), then the ``synth`` argv of every failure, so that it
can be replayed; a ``classify`` refusal by DomainError (a closed branch
that does not exist, a degenerate lattice) is counted but not listed:

    python tests/family_sweep.py SEED COUNT [path/to/src]

The optional last argument is the directory that holds the
``affine_elastica`` package (default: ``src`` beside this file's directory).
pytest does not collect this file; ``tests/test_acceptance.py`` runs a
300-draw slice of it.  10,000 draws take about a minute.
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter
from pathlib import Path

BOX, TOL = 3.0, 1e-5


def sweep(seed: int, count: int) -> list[tuple]:
    """(g2, g3, branch, tag, outcome) of each draw; the outcome is "pass",
    "fail" or the class of the exception raised."""
    import numpy as np  # imported here, after main has chosen the source tree

    from affine_elastica import cli
    from affine_elastica.classifier import Branch, classify
    from affine_elastica.elliptic import Invariants
    from affine_elastica.synthesis import synthesize

    rng = np.random.default_rng(seed)
    g2s, g3s, closed = rng.uniform(-BOX, BOX, count), rng.uniform(-BOX, BOX, count), rng.random(count) < 0.5
    out = []
    for g2, g3, branch in zip(g2s.tolist(), g3s.tolist(), np.where(closed, "closed", "open").tolist()):
        tag = "-"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                label = classify(Invariants(g2, g3), Branch(branch))
                tag = label.tag.value
                outcome = "pass" if cli._verify_curve(synthesize(label), "el", TOL)[1] else "fail"
            except Exception as ex:  # an untyped error is a finding, not a crash
                outcome = type(ex)
        out.append((g2, g3, branch, tag, outcome))
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print("usage: python tests/family_sweep.py SEED COUNT [path/to/src]", file=sys.stderr)
        return 2
    src = Path(argv[3]) if len(argv) > 3 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    from affine_elastica.errors import DomainError

    rows = sweep(int(argv[1]), int(argv[2]))
    counts = Counter((tag, o if isinstance(o, str) else o.__name__) for _, _, _, tag, o in rows)
    for tag in sorted({tag for tag, _ in counts}):
        print(f"{tag}: " + ", ".join(f"{o} {n}" for (t, o), n in sorted(counts.items()) if t == tag))
    for g2, g3, branch, tag, outcome in rows:
        if outcome == "pass" or (tag == "-" and issubclass(outcome, DomainError)):
            continue
        name = outcome if isinstance(outcome, str) else outcome.__name__
        print(f"{tag} {name}: synth --g2 {g2!r} --g3 {g3!r} --branch {branch} --self-check")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
