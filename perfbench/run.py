"""Benchmark of the affine-elastica CLI: one seeded workload per run.

    python3 perfbench/run.py --workload closure_scan --seed 1 --seconds 36 --trace 0

Run from a checkout root: the package is imported from ``src/`` of the
checkout this file sits in.  Ops call ``affine_elastica.cli.main(argv)`` in
this process with stdout captured, one after another, until ``--seconds``
have passed; every op's exit code and output are checked.  The run starts
in a fresh interpreter, so the first ops meet cold per-process caches as a
CLI call does.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the first
half of the run's ops with every public package function wrapped in a span
(after emptying the package's caches) and prints the per-layer metrics.
Record lines (machine, run facts, failures) precede the final JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from harness import (
    PACKAGE,
    TOL_ENV,
    clear_caches,
    import_seconds,
    info,
    machine,
    run_op,
    tail_percentile,
)
from tracer import Tracer, per_layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
PREPARED_ROUNDS = 16


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class OpStream:
    """Ops of a workload, round after round, in the order the seed fixed.

    ``block_len`` counts the ops of the first full deck block.
    """

    def __init__(self, workload, rounds: int):
        self.workload = workload
        self.ops = []
        for i in range(rounds):
            self.ops.extend(workload.round())
            if i + 1 == workload.block_rounds:
                self.block_len = len(self.ops)

    def __getitem__(self, i: int):
        while i >= len(self.ops):
            self.ops.extend(self.workload.round())
        return self.ops[i]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_for(cli, ops, seconds: float, count: int | None = None, tracer=None):
    """Run ops in order until ``seconds`` have passed, or exactly ``count`` ops.

    ``cli.main`` is looked up per op, so that a traced pass calls the wrapper.

    Returns the results, the wall time, and the peak RSS once the first deck
    block has run (at the end, if the run is shorter).  Package caches grow
    with every new curve, so a peak taken at the end would rise with speed.
    """
    results = []
    rss = None
    t0 = time.perf_counter()
    while (len(results) < count) if count is not None else (time.perf_counter() - t0 < seconds):
        results.append(run_op(cli.main, ops[len(results)], tracer))
        if len(results) == ops.block_len:
            rss = _rss_mb()
    return results, time.perf_counter() - t0, rss or _rss_mb()


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _end_to_end(results, block_len: int, setup_s: float, rss_mb: float) -> dict:
    """End-to-end metrics; accuracy covers the first deck block, the same ops at any speed."""
    ms = [1e3 * r.seconds for r in results]
    passed = sum(r.ok for r in results)
    digits = [r.digits for r in results[:block_len] if r.digits is not None]
    tail, _ = tail_percentile(ms)
    return {
        "ops_per_s": (passed / sum(r.seconds for r in results), "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.tail": (tail, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "accuracy_digits": (min(digits) if digits else 0.0, "digits"),
        "pass_ratio": (passed / len(results), "ratio"),
        "setup_s": (setup_s, "s"),
    }


def _per_layer(cli, modules, ops, seconds: float):
    """Run ops untraced for half of ``seconds``, then replay them traced.

    The package's caches are emptied between the passes, so both start as
    cold as a fresh process.  Returns the results of both passes, their wall
    time and the per-layer metrics of the traced pass.
    """
    cpu0 = _cpu_seconds()
    plain, plain_wall, _ = run_for(cli, ops, seconds / 2)
    clear_caches(modules)
    tracer = Tracer(modules, PACKAGE)
    tracer.install()
    try:
        traced, traced_wall, _ = run_for(cli, ops, 0.0, len(plain), tracer)
    finally:
        tracer.restore()
    wall = plain_wall + traced_wall
    cpu = _cpu_seconds() - cpu0
    metrics = per_layer_metrics(tracer.spans)
    metrics["process.cpu_s"] = (cpu, "s")
    metrics["process.cpu_per_wall"] = (cpu / wall, "ratio")
    metrics["trace.overhead_s"] = (sum(r.seconds for r in traced) - sum(r.seconds for r in plain), "s")
    metrics["trace.outside_s"] = (traced_wall - tracer.top_level_seconds(), "s")
    metrics["trace.ops"] = (len(traced), "count")
    return plain + traced, wall, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "affine_elastica" / "cli.py").is_file():
        print(f"perfbench: no affine_elastica sources under {SRC}", file=sys.stderr)
        return 2

    os.environ.pop(TOL_ENV, None)  # verdicts must not depend on the caller's shell
    sys.path.insert(0, str(SRC))
    import affine_elastica.cli as cli
    from affine_elastica import synthesis

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith(PACKAGE + ".")]

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        imports, inputs = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds(str(SRC)))
            t0 = time.perf_counter()
            ops = OpStream(WORKLOADS[args.workload](args.seed, workdir, synthesis), PREPARED_ROUNDS)
            inputs.append(time.perf_counter() - t0)
        setup_s = statistics.median(i + g for i, g in zip(imports, inputs))
        info("machine", **machine())

        if args.trace == 0:
            checked, wall, rss_mb = run_for(cli, ops, args.seconds)
            metrics = _end_to_end(checked, ops.block_len, setup_s, rss_mb)
        else:
            checked, wall, metrics = _per_layer(cli, modules, ops, args.seconds)
            metrics["setup.import_s"] = (statistics.median(imports), "s")
            metrics["setup.inputs_s"] = (statistics.median(inputs), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = [r for r in checked if not r.ok]
    _, pct = tail_percentile([r.seconds for r in checked])
    info("run", workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
         wall_s=wall, tail_percentile=pct, tail_samples=len(checked),
         fail_ratio=len(failed) / len(checked), fail_base=len(checked))
    info("failures", ops=[{"argv": r.op.argv, "reason": r.reason} for r in failed])
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
