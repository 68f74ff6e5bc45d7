"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks the tail-percentile rule; that failures are counted, on the
acceptance suite's negative control (an equi-affinely reparametrized
hypotrochoid) and on an exception escaping the CLI; and that a traced run
leaves every package module attribute as it found it.  Exits 1 on a failure.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import affine_elastica.cli as cli  # noqa: E402
from affine_elastica import curvature as cv  # noqa: E402
from harness import run_op, tail_percentile  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402
from workloads import Op, failing_verdict, passing_el  # noqa: E402


def expect(condition, message) -> None:
    """An assertion that ``python -O`` keeps."""
    if not condition:
        raise AssertionError(message)


def check_tail_rule() -> None:
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    value, pct = tail_percentile(values)
    expect(value == 90, value)  # 91..100 are the ten samples beyond it
    expect(abs(pct - 100.0 * 89 / 99) < 1e-12, pct)
    expect(tail_percentile(list(range(11))) == (0, 0.0), "n = 11 must give the minimum")
    expect(tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0), "n < 11 must give the maximum")


def check_failure_counting(workdir: Path) -> None:
    t = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
    pts = np.column_stack([4.0 * np.cos(t) + 0.1 * np.cos(4 * t), 4.0 * np.sin(t) - 0.1 * np.sin(4 * t)])
    path = workdir / "hypotrochoid.csv"
    cv.curve_to_csv(cv.reparametrize_equiaffine(pts, closed=True), str(path))
    argv = ["verify", str(path), "--closed", "--suite", "el"]

    expecting_pass = run_op(cli.main, Op(argv, 0, passing_el))
    expect(not expecting_pass.ok, "negative control counted as passed")
    expecting_fail = run_op(cli.main, Op(argv, 1, failing_verdict))
    expect(expecting_fail.ok, expecting_fail.reason)
    missing = run_op(cli.main, Op(["verify", str(workdir / "missing.csv"), "--suite", "el"], 0, passing_el))
    expect(not missing.ok and missing.reason, "an escaping exception was not counted")


def check_attributes_restored() -> None:
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("affine_elastica.")]

    def snapshot():
        return {(m.__name__, k): id(v) for m in modules for k, v in vars(m).items()}

    before = snapshot()
    tracer = Tracer(modules, "affine_elastica")
    tracer.install()
    try:
        expect(snapshot() != before, "tracer wrapped nothing")
        result = run_op(cli.main, Op(["table", "--pairs", "3:4"], 0, lambda out: None), tracer)
        expect(result.ok, result.reason)
    finally:
        tracer.restore()
    expect(snapshot() == before, "module attributes differ after the traced run")
    metrics = per_layer_metrics(tracer.spans)
    expect(metrics["synthesis.solve_closure.calls"][0] == 1, metrics["synthesis.solve_closure.calls"])
    expect(metrics["elliptic.scalar.calls"][0] > 0, "no scalar kernel spans")
    expect(metrics["cli.main.self_s"][0] > 0, "no cli.main span")


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_selftest_", dir=HERE.parent))
    failures = 0
    try:
        checks = {
            "tail rule": check_tail_rule,
            "failure counting": lambda: check_failure_counting(workdir),
            "attributes restored": check_attributes_restored,
        }
        for name, check in checks.items():
            try:
                check()
            except AssertionError as ex:
                failures += 1
                print(f"FAIL {name}: {ex}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "ok" if not failures else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
