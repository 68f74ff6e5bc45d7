"""Span tracer that wraps the package's public functions from outside.

`Tracer.install` replaces every public function of every package module,
including the names a module imported from another package module
(``synthesis.wp``, ``curvature.diff_samples``, ...), with one wrapper per
underlying function.  Each call records a span: name, start, end, parent span
and a few call facts (argument size, rows written, ...).  Spans nest by a
stack and stay in memory; `Tracer.restore` puts every attribute back, and
`per_layer_metrics` turns the spans into the benchmark's per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

# span record fields
NAME, START, END, PARENT, CHILD, INFO = range(6)

_KERNEL = ("wp", "wp_prime", "zeta_w", "log_sigma_w", "sigma_w")
_VECTOR_KERNEL = ("wp", "wp_prime", "zeta_w", "log_sigma_w")
_EL_RESIDUAL = (
    "curvature.el_residual_general",
    "curvature.el_residual_area_constrained",
    "curvature.el_residual_area_and_length",
)
_FULLAFFINE = ("el_residual_sqrt", "full_affine_invariants", "osculating_parabola", "osculating_conic")


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _kernel_info(args, kwargs, result):
    z = _first(args, kwargs, "z")
    return {"scalar": np.ndim(z) == 0, "points": int(np.size(z))}


def _diff_info(args, kwargs, result):
    periodic = args[3] if len(args) > 3 else kwargs.get("periodic", False)
    return {"kind": "spectral" if periodic else "smoothed", "samples": len(args[0])}


def _csv_write_info(args, kwargs, result):
    return {"rows": _first(args, kwargs, "c").n, "bytes": len(result.encode())}


# extra facts recorded per span name; everything else records only timing
_INFO = {
    **{f"elliptic.{k}": _kernel_info for k in _KERNEL},
    "synthesis.synthesize": lambda a, k, r: {"samples": r.n},
    "_numerics.diff_samples": _diff_info,
    "curvature.curve_to_csv": _csv_write_info,
    "curvature.curve_from_csv": lambda a, k, r: {"rows": r.n},
}


class Tracer:
    """Records spans around the public functions of ``modules``."""

    def __init__(self, modules, package: str):
        self.modules = list(modules)
        self.package = package
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _span_name(self, fn) -> str:
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

    def _wrap(self, fn):
        name = self._span_name(fn)
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += rec[END] - rec[START]
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(self.package):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def top_level_seconds(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)


def _has_ancestor(spans, rec, names) -> bool:
    p = rec[PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def _sum(rs, key) -> int:
    """Total of one recorded fact; spans whose call raised carry no facts."""
    return sum(r[INFO][key] for r in rs if r[INFO])


def per_layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times from recorded spans: name -> (value, unit).

    A time sums the outermost spans of its kind, so a function that calls
    another of the same group (``sigma_w`` -> ``log_sigma_w``) is counted once.
    """
    by_name: dict[str, list] = {}
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)

    def recs(name, pred=None):
        return [r for r in by_name.get(name, ()) if pred is None or pred(r)]

    def total(rs):
        return float(sum(r[END] - r[START] for r in rs))

    def self_time(rs):
        return float(sum(r[END] - r[START] - r[CHILD] for r in rs))

    def outermost(names, pred=None):
        return [
            r for n in names for r in recs(n, pred) if not _has_ancestor(spans, r, set(names))
        ]

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def calls_time(prefix, rs):
        put(f"{prefix}.calls", len(rs), "count")
        put(f"{prefix}.time_s", total(rs), "s")

    put("cli.main.self_s", self_time(recs("cli.main")), "s")
    put("cli.curve_svg.time_s", total(recs("cli.curve_svg")), "s")
    calls_time("classifier.classify", recs("classifier.classify"))

    for fn in ("solve_closure", "closure_lhs_with_d"):
        rs = recs(f"synthesis.{fn}")
        calls_time(f"synthesis.{fn}", rs)
        put(f"synthesis.{fn}.self_s", self_time(rs), "s")
    solves = len(recs("synthesis.solve_closure"))
    in_solve = recs(
        "synthesis.closure_lhs_with_d",
        lambda r: _has_ancestor(spans, r, {"synthesis.solve_closure"}),
    )
    put("synthesis.closure_evals_per_solve", len(in_solve) / solves if solves else 0.0, "count")
    lame = recs("synthesis.lame_parameter_c")
    put("synthesis.lame_parameter_c.time_s", total(lame), "s")
    wp_in_lame = recs(
        "elliptic.wp", lambda r: _has_ancestor(spans, r, {"synthesis.lame_parameter_c"})
    )
    put(
        "synthesis.lame_parameter_c.wp_calls_per_call",
        len(wp_in_lame) / len(lame) if lame else 0.0,
        "count",
    )

    synth = recs("synthesis.synthesize")
    samples = _sum(synth, "samples")
    put("synthesis.synthesize.calls", len(synth), "count")
    put("synthesis.synthesize.samples", samples, "count")
    put("synthesis.synthesize.self_s", self_time(synth), "s")
    put("synthesis.ns_per_sample", 1e9 * total(synth) / samples if samples else 0.0, "ns")

    kernel = [f"elliptic.{k}" for k in _KERNEL]
    scalar = outermost(kernel, lambda r: r[INFO] is not None and r[INFO]["scalar"])
    put("elliptic.scalar.calls", len(scalar), "count")
    put("elliptic.scalar.us_per_call", 1e6 * total(scalar) / len(scalar) if scalar else 0.0, "us")
    calls_time("elliptic.half_periods", recs("elliptic.half_periods"))
    vec_time = 0.0
    vec_points = 0
    for k in _VECTOR_KERNEL:
        rs = recs(f"elliptic.{k}", lambda r: r[INFO] is not None and not r[INFO]["scalar"])
        rs = [r for r in rs if not _has_ancestor(spans, r, set(kernel))]
        points = sum(r[INFO]["points"] for r in rs)
        calls_time(f"elliptic.{k}", rs)
        put(f"elliptic.{k}.points", points, "count")
        vec_time += total(rs)
        vec_points += points
    put("elliptic.vector.ns_per_point", 1e9 * vec_time / vec_points if vec_points else 0.0, "ns")

    calls_time("curvature.frame_and_curvature", recs("curvature.frame_and_curvature"))
    put("curvature.el_residual.time_s", total(outermost(_EL_RESIDUAL)), "s")
    for kind in ("spectral", "smoothed"):
        rs = recs("_numerics.diff_samples", lambda r, kind=kind: r[INFO] and r[INFO]["kind"] == kind)
        calls_time(f"curvature.diff_samples.{kind}", rs)
        put(f"curvature.diff_samples.{kind}.samples", _sum(rs, "samples"), "count")

    csv_w = recs("curvature.curve_to_csv")
    put("curvature.csv_write.rows", _sum(csv_w, "rows"), "count")
    put("curvature.csv_write.bytes", _sum(csv_w, "bytes"), "bytes")
    put("curvature.csv_write.time_s", total(csv_w), "s")
    csv_r = recs("curvature.curve_from_csv")
    put("curvature.csv_read.rows", _sum(csv_r, "rows"), "count")
    put("curvature.csv_read.time_s", total(csv_r), "s")
    put("curvature.json_read.time_s", total(recs("curvature.curve_from_json")), "s")
    put("curvature.json_write.time_s", total(recs("curvature.curve_to_json")), "s")

    for fn in _FULLAFFINE:
        calls_time(f"fullaffine.{fn}", recs(f"fullaffine.{fn}"))
    return out
