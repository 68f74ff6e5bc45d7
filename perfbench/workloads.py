"""Seeded CLI inputs and per-op checks for the three benchmark workloads.

A workload hands out rounds of ops.  Every round holds the same pairs or
families; the seed picks their order and every drawn parameter (scan ranges,
sample counts, mark indices, invariants).  Parameters come from Latin
hypercube decks: each block of k draws puts one value in each of k equal
slices of every range, so the cost mix of a run, and with it ops per second,
depends little on the seed.  The library sees only the generated argv and
files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path


class CheckFailed(Exception):
    """An op's output is wrong or outside tolerance."""


@dataclass
class Op:
    """One ``cli.main(argv)`` call with the exit code it must return.

    ``check(stdout)`` raises CheckFailed on a wrong output and returns the
    op's checked numerical error, or None when the op has no error figure.
    ``fresh`` lists output files removed before the call, so that a stale
    file from an earlier op can never pass a check.
    """

    argv: list
    expect_rc: int
    check: object
    fresh: tuple = ()


#: tier-1 acceptance rows (m, n, Q, w1, w2, d), reproduced to 1e-6
TABLE = [
    (3, 4, 3.940854279, 1.424009578, 1.670043233, -1.540700057),
    (4, 5, 8.947959902, 1.009840213, 1.086362374, -1.058686673),
    (29, 37, 6.926542623, 1.129312548, 1.239778028, -1.194744029),
    (17, 24, 1.244192459, 2.097620948, 3.602731724, -2.351154225),
]
TABLE_TOL = 1e-6
TABLE_PRINT_FLOOR = 5e-10  # half a unit in the last printed decimal of `table`

#: every closing ratio n/m in ]1, sqrt 2[ with m < 16, m and n coprime (29 pairs)
CLOSURE_PAIRS = [
    (m, n)
    for m in range(2, 16)
    for n in range(m + 1, 2 * m)
    if math.gcd(m, n) == 1 and n * n < 2 * m * m
]
CLOSURE_TOL = 1e-6

#: closed_synth pairs with m <= 11 and n/m >= 1.25, so Q < 8 (Q from `table`);
#: above Q ~ 9 the self-check fails on its absolute 1e-5 tolerance
CLOSED_Q = {
    (3, 4): 3.940854279,
    (5, 7): 1.703870627,
    (7, 9): 6.292845007,
    (8, 11): 2.483140257,
    (10, 13): 5.477755503,
    (11, 14): 7.142154726,
    (11, 15): 2.847019099,
}

#: open_verify families: (flag, first range, ratio range, branch, samples range).
#: A/B draw q and Q = |q| r; C draws P and tau = |P| r.  Each box is where the
#: seed commit's `verify --suite el` passes with a margin of 3x or more, and
#: where the Lame route's line z + c keeps at least 0.1 w2 from every lattice
#: point.  A3 and C2/C4 run that line through lattice points, so a grid node
#: can land inside the pole guard and `synth` fails with NearPole.
FAMILIES = {
    "A1": ("--q", (0.4, 1.0), (1.3, 2.5), "closed", (2000, 6000)),
    "B1": ("--q", (0.4, 0.8), (1.3, 2.0), "open", (1000, 4000)),
    "B3": ("--q", (-1.0, -0.4), (2.5, 4.0), "open", (1000, 6000)),
    "C1": ("--P", (0.5, 1.6), (1.2, 3.0), "open", (1000, 6000)),
    "C5": ("--P", (-1.0, -0.5), (0.3, 0.7), "open", (1000, 6000)),
}

ERROR_FLOOR = 1e-16


class Deck:
    """Latin hypercube draws from a box of ranges, handed out one at a time.

    Each block of k draws has, in every range, one value in each of the k
    equal slices, in shuffled order.
    """

    def __init__(self, rng: random.Random, ranges, k: int):
        self.rng = rng
        self.ranges = ranges
        self.k = k
        self._block: list[tuple] = []

    def draw(self) -> tuple:
        if not self._block:
            cols = []
            for lo, hi in self.ranges:
                width = (hi - lo) / self.k
                col = [lo + (i + self.rng.random()) * width for i in range(self.k)]
                self.rng.shuffle(col)
                cols.append(col)
            self._block = list(zip(*cols))
        return self._block.pop()


def _report(out: str) -> dict:
    return json.loads(out)["checks"]


def passing_el(out: str) -> float:
    """Check a passing `verify --suite el` report; its error is the worse residual."""
    checks = _report(out)
    failed = [k for k, v in checks.items() if not v["pass"]]
    if failed:
        raise CheckFailed(f"checks failed: {failed}")
    return max(checks["el_residual"]["value"], checks["unimodularity"]["value"], ERROR_FLOOR)


def failing_verdict(out: str) -> None:
    """Check a report that must hold at least one failing check."""
    if all(v["pass"] for v in _report(out).values()):
        raise CheckFailed("report passes where the family fixes a failing verdict")


def _csv_rows(path: Path) -> int:
    with open(path) as f:
        return sum(1 for _ in f) - 1


class Workload:
    name = ""
    #: rounds after which every deck has dealt one full block
    block_rounds = 1

    def __init__(self, seed: int, workdir: Path, synthesis):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.sy = synthesis
        self._configs: dict[int, str] = {}

    def config(self, samples: int) -> str:
        """A ``--config`` file setting ``samples``, written once per workload."""
        if samples not in self._configs:
            path = self.workdir / f"samples_{samples}.cfg"
            path.write_text(f"samples = {samples}\n")
            self._configs[samples] = str(path)
        return self._configs[samples]

    def round(self) -> list[Op]:
        raise NotImplementedError


class ClosureScan(Workload):
    """`table --pairs m:n` over all 29 pairs, bare `table`, and 4 scans."""

    name = "closure_scan"
    SCANS = 4

    def __init__(self, seed, workdir, synthesis):
        super().__init__(seed, workdir, synthesis)
        # log qmin, where qmax sits between 1.5 qmin and 100, steps
        self.scans = Deck(self.rng, [(math.log(1.01), math.log(50.0)), (0.0, 1.0), (20, 80)], self.SCANS)

    def round(self) -> list[Op]:
        ops = [self._pair(m, n) for m, n in CLOSURE_PAIRS]
        ops.append(Op(["table"], 0, self._reference))
        ops += [self._scan(*self.scans.draw()) for _ in range(self.SCANS)]
        self.rng.shuffle(ops)
        return ops

    def _pair(self, m: int, n: int) -> Op:
        def check(out: str) -> float:
            row = out.strip().splitlines()[-1].split()
            if (int(row[0]), int(row[1])) != (m, n) or len(row) != 6:
                raise CheckFailed(f"no solution row: {' '.join(row)}")
            err = abs(self.sy.closure_lhs(float(row[2])) - n / m)
            if not err < CLOSURE_TOL:
                raise CheckFailed(f"|closure_lhs(Q) - n/m| = {err:.3g}")
            return max(err, ERROR_FLOOR)

        return Op(["table", "--pairs", f"{m}:{n}"], 0, check)

    @staticmethod
    def _reference(out: str) -> float:
        rows = [ln.split() for ln in out.strip().splitlines()[1:]]
        if len(rows) != len(TABLE):
            raise CheckFailed(f"{len(rows)} rows, expected {len(TABLE)}")
        err = 0.0
        for row, ref in zip(rows, TABLE):
            got = (int(row[0]), int(row[1]), float(row[2]), float(row[3]),
                   float(row[4].rstrip("i")), float(row[5]))
            err = max([err] + [abs(a - b) for a, b in zip(got, ref)])
        if not err < TABLE_TOL:
            raise CheckFailed(f"reference rows off by {err:.3g}")
        return max(err, TABLE_PRINT_FLOOR)

    def _scan(self, log_lo: float, frac: float, steps: float) -> Op:
        lo = math.exp(log_lo)
        hi = math.exp(math.log(1.5 * lo) + frac * math.log(100.0 / (1.5 * lo)))
        steps = int(steps)

        def check(out: str) -> None:
            lines = out.strip().splitlines()
            if lines[0] != "Q,lhs,d" or len(lines) != steps + 1:
                raise CheckFailed(f"expected header and {steps} rows")
            rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
            if not all(math.isfinite(v) for row in rows for v in row):
                raise CheckFailed("non-finite scan value")
            if any(b[0] <= a[0] or b[1] >= a[1] for a, b in zip(rows, rows[1:])):
                raise CheckFailed("closure quantity not strictly decreasing in Q")
            return None

        argv = ["scan-closure", "--qmin", f"{lo:.6f}", "--qmax", f"{hi:.6f}", "--steps", str(steps)]
        return Op(argv, 0, check)


class ClosedSynth(Workload):
    """`synth --closure m n --csv F --self-check`, two ops a round with --mark/--svg."""

    name = "closed_synth"
    MARKED = 2  # ops per round that also draw overlays
    block_rounds = 3

    def __init__(self, seed, workdir, synthesis):
        super().__init__(seed, workdir, synthesis)
        self.samples = {pair: Deck(self.rng, [(500, 2000)], self.block_rounds) for pair in CLOSED_Q}

    def round(self) -> list[Op]:
        pairs = list(CLOSED_Q)
        marked = set(self.rng.sample(pairs, self.MARKED))
        ops = [self._op(m, n, int(self.samples[m, n].draw()[0]), (m, n) in marked) for m, n in pairs]
        self.rng.shuffle(ops)
        return ops

    def _op(self, m: int, n: int, samples: int, mark: bool) -> Op:
        csv_path = self.workdir / "closed.csv"
        svg_path = self.workdir / "closed.svg"
        rows = 2 * m * samples
        argv = ["--config", self.config(samples), "synth", "--closure", str(m), str(n),
                "--csv", str(csv_path), "--self-check"]
        if mark:
            argv += ["--mark", str(self.rng.randrange(rows)), "--svg", str(svg_path)]
        Q = CLOSED_Q[(m, n)]
        C = (1.0 + Q + Q * Q) / 3.0  # fitted C = 3 g2 for q = 1

        def check(out: str) -> float:
            checks = _report(out)
            if not all(v["pass"] for v in checks.values()):
                raise CheckFailed(f"self-check failed: {checks}")
            if _csv_rows(csv_path) != rows:
                raise CheckFailed(f"CSV does not hold {rows} rows")
            if mark and not svg_path.read_text().startswith("<?xml"):
                raise CheckFailed("SVG missing")
            err = max(checks["el_residual"]["value"] / C, checks["unimodularity"]["value"])
            return max(err, ERROR_FLOOR)

        return Op(argv, 0, check, fresh=(csv_path, svg_path))


class OpenVerify(Workload):
    """Per family: synth to CSV and JSON, then `verify` el, sqrt and fullaffine on both.

    Five of a group's seven ops are warm verifies, so the median op is one;
    the synth and the JSON el verify, whose filter window is new and cold,
    make the tail.
    """

    name = "open_verify"
    block_rounds = 4

    def __init__(self, seed, workdir, synthesis):
        super().__init__(seed, workdir, synthesis)
        self.draws = {
            fam: Deck(self.rng, [spec[1], spec[2], spec[4]], self.block_rounds)
            for fam, spec in FAMILIES.items()
        }

    def round(self) -> list[Op]:
        groups = [self._group(fam) for fam in FAMILIES]
        self.rng.shuffle(groups)
        return [op for group in groups for op in group]

    def _group(self, fam: str) -> list[Op]:
        flag, _, _, branch, _ = FAMILIES[fam]
        a, b, samples = self.draws[fam].draw()
        samples = int(samples)
        inv = [flag, f"{a:.6f}", "--Q" if flag == "--q" else "--tau", f"{abs(a) * b:.6f}"]
        csv_path = self.workdir / "open.csv"
        json_path = self.workdir / "open.json"

        def synth_check(out: str) -> None:
            if _csv_rows(csv_path) != samples or len(json.loads(json_path.read_text())["s"]) != samples:
                raise CheckFailed(f"curve files do not hold {samples} samples")
            return None

        synth = ["--config", self.config(samples), "synth", *inv, "--branch", branch,
                 "--csv", str(csv_path), "--json", str(json_path)]
        return [
            Op(synth, 0, synth_check, fresh=(csv_path, json_path)),
            Op(["verify", str(csv_path), "--suite", "el"], 0, passing_el),
            Op(["verify", str(json_path), "--suite", "el"], 0, passing_el),
        ] + [
            # no family here is a conic, so neither full-affine suite can pass
            Op(["verify", str(path), "--suite", suite], 1, failing_verdict)
            for path in (csv_path, json_path)
            for suite in ("sqrt", "fullaffine")
        ]


WORKLOADS = {w.name: w for w in (ClosureScan, ClosedSynth, OpenVerify)}
