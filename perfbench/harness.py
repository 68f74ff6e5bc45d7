"""Op execution, the tail rule, the set-up probe and the machine record."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass

from workloads import Op

PACKAGE = "affine_elastica"
TOL_ENV = "AFFINE_ELASTICA_TOL"


@dataclass
class OpResult:
    op: Op
    seconds: float
    ok: bool
    digits: float | None
    reason: str = ""


def call_cli(main, argv: list) -> tuple[float, int | None, str, str]:
    """Run ``main(argv)`` with stdout and stderr captured; time only the call.

    An exception escaping ``main`` (argparse exits included) yields a None
    or non-zero exit code with the exception in the captured stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as ex:
        rc = ex.code if isinstance(ex.code, int) else 2
    except Exception as ex:  # counted as a failed op, never retried
        rc = None
        err.write(f"{type(ex).__name__}: {ex}")
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def run_op(main, op: Op, tracer=None) -> OpResult:
    """Run one op and check it; with a tracer, spans are recorded for the call only."""
    for path in op.fresh:
        path.unlink(missing_ok=True)
    if tracer is not None:
        tracer.active = True
    try:
        seconds, rc, out, err = call_cli(main, op.argv)
    finally:
        if tracer is not None:
            tracer.active = False
    if rc != op.expect_rc:
        tail = err.strip().splitlines()[-1:] or [""]
        return OpResult(op, seconds, False, None, f"exit {rc}, expected {op.expect_rc}: {tail[0]}")
    try:
        error = op.check(out)
    except Exception as ex:  # any failing check, parse or library error fails the op
        return OpResult(op, seconds, False, None, f"{type(ex).__name__}: {ex}")
    digits = None if error is None else -math.log10(error)
    return OpResult(op, seconds, True, digits)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: (value, percentile).

    With n sorted samples that is the one at index n - 11, whose percentile
    is 100 (n - 11) / (n - 1).  Below 11 samples no percentile qualifies, and
    the maximum is reported as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 11) / (n - 1)


def import_seconds(src: str) -> float:
    """Time of ``import affine_elastica.cli`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import affine_elastica.cli; print(time.perf_counter() - t)"
    )
    env = {k: v for k, v in os.environ.items() if k != TOL_ENV}
    proc = subprocess.run(
        [sys.executable, "-c", code, src], env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def clear_caches(modules) -> None:
    """Empty every functools cache of the package, as a fresh process has them."""
    for mod in modules:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and getattr(
                obj, "__module__", ""
            ).startswith(PACKAGE):
                obj.cache_clear()


def machine() -> dict:
    """nproc, Python, NumPy, SciPy and BLAS versions, and the BLAS thread variables."""
    import numpy
    import scipy

    blas = {}
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_thread_vars": {k: os.environ.get(k) for k in thread_vars},
    }


def info(kind: str, **fields) -> None:
    """One JSON record line on stdout, ahead of the final result line."""
    print(json.dumps({"perfbench": kind, **fields}), flush=True)

