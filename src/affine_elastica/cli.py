"""Command-line interface.

Subcommands: classify, table, synth, verify, scan-closure.  Exit codes:
0 success, 1 verification failure, 2 input or domain error, 3 synthesis
failure.  The default verification tolerance can be overridden with the
AFFINE_ELASTICA_TOL environment variable or per-key in a ``--config`` file
of ``key = value`` lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import curvature as cv
from . import fullaffine as fa
from . import synthesis as sy
from .classifier import Branch, Case, CaseLabel, classify
from .elliptic import Invariants, invariants_from_Ptau, invariants_from_qQ
from .errors import DomainError, SynthesisError

_DEFAULT_TOL = 1e-5

_CONFIG_KEYS = {"tol", "samples", "svg_size"}


def _load_config(path: str | None) -> dict:
    cfg = {"tol": float(os.environ.get("AFFINE_ELASTICA_TOL", _DEFAULT_TOL)),
           "samples": None, "svg_size": 720.0}
    if path is None:
        return cfg
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"config line {line_no}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise DomainError(f"config line {line_no}: unknown key {key!r}")
            cfg[key] = float(val) if key != "samples" else int(val)
    return cfg


# ---------------------------------------------------------------------------
# SVG


_SVG_COMMENT = "<!-- affine-elastica curve plot -->"


def _svg_polyline(points: np.ndarray, cls: str) -> str:
    coords = " ".join(f"{p[0]:.6f},{p[1]:.6f}" for p in points)
    return f'<polyline class="{cls}" fill="none" points="{coords}"/>'


def curve_svg(c: cv.CurveSamples, size: float = 720.0, overlays: list | None = None) -> str:
    """Deterministic standalone SVG of the curve with optional overlays.

    Overlays are (points, class) pairs; stroke classes: curve solid,
    parabola dashed, conic dotted, frame plain thin.
    """
    pts = c.points()
    all_pts = [pts] + [p for p, _ in (overlays or [])]
    stack = np.vstack(all_pts)
    lo = stack.min(axis=0)
    hi = stack.max(axis=0)
    span = max(float(np.max(hi - lo)), 1e-12)
    margin = 0.05 * span
    lo -= margin
    scale = size / (span + 2.0 * margin)

    def to_px(p):
        q = (p - lo) * scale
        return np.column_stack([q[:, 0], size - q[:, 1]])

    body = [_svg_polyline(to_px(pts), "curve")]
    for p, cls in overlays or []:
        body.append(_svg_polyline(to_px(np.asarray(p)), cls))
    style = (
        "<style>.curve{stroke:#000;stroke-width:1.5}"
        ".parabola{stroke:#444;stroke-width:1;stroke-dasharray:8 5}"
        ".conic{stroke:#444;stroke-width:1;stroke-dasharray:2 4}"
        ".frame{stroke:#a00;stroke-width:1}</style>"
    )
    return "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            _SVG_COMMENT,
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" height="{size:g}" '
            f'viewBox="0 0 {size:g} {size:g}">',
            style,
            *body,
            "</svg>",
            "",
        ]
    )


# ---------------------------------------------------------------------------
# subcommands


def _label_from_args(args) -> CaseLabel:
    branch = Branch.closed_branch if args.branch == "closed" else Branch.open_branch
    if args.q is not None and args.Q is not None:
        return classify(invariants_from_qQ(args.q, args.Q), branch)
    if args.P is not None and args.tau is not None:
        return classify(invariants_from_Ptau(args.P, args.tau), branch)
    if args.g2 is not None and args.g3 is not None:
        return classify(Invariants(args.g2, args.g3), branch)
    raise DomainError("provide --g2/--g3, --q/--Q or --P/--tau")


def cmd_classify(args) -> int:
    label = _label_from_args(args)
    print(label.to_json())
    return 0


_TABLE_DEFAULT = [(3, 4), (4, 5), (29, 37), (17, 24)]


def cmd_table(args) -> int:
    pairs = list(_TABLE_DEFAULT)
    if args.pairs:
        pairs = []
        for part in args.pairs.split(","):
            m_s, n_s = part.split(":")
            pairs.append((int(m_s), int(n_s)))
    print(f"{'m':>4s} {'n':>4s} {'Q':>15s} {'w1':>15s} {'w2':>18s} {'d':>15s}")
    for m, n in pairs:
        try:
            sol = sy.solve_closure(m, n)
        except SynthesisError:
            print(f"{m:4d} {n:4d}   no solution found")
            continue
        print(
            f"{m:4d} {n:4d} {sol.Q:15.9f} {sol.lattice.w1:15.9f} "
            f"{sol.lattice.w2_im:15.9f}i {sol.d:15.9f}"
        )
    return 0


def cmd_synth(args, cfg) -> int:
    if args.closure:
        m, n = args.closure
        sol = sy.solve_closure(int(m), int(n))
        curve = sy.synthesize_closed(sol, samples_per_period=int(cfg["samples"] or 2000))
    elif args.length_constrained:
        curve = sy.synthesize_length_constrained(
            A=args.A, g3=args.g3 if args.g3 is not None else -0.15, c0=args.c0
        )
    elif args.case is not None:
        label = _case_label_from_tag(args)
        grid = tuple(args.grid) if args.grid else None
        curve = sy.synthesize(label, grid=grid, n=cfg["samples"])
    else:
        label = _label_from_args(args)
        grid = tuple(args.grid) if args.grid else None
        curve = sy.synthesize(label, grid=grid, n=cfg["samples"])
    return _emit(curve, args, cfg)


def _conic_points(coef, curve, i, n=400) -> np.ndarray:
    """Points of the conic on n rays from the marked curve point.

    Along the ray p0 + r u the conic is A r^2 + B r + C = 0; each ray keeps
    its smallest root in [1e-4 span, span], with span 0.8 of the curve's
    extent.
    """
    a, b, c2, d, e, f = coef
    x0, y0 = curve.x[i], curve.y[i]
    span = 0.8 * max(np.ptp(curve.x), np.ptp(curve.y))
    th = np.linspace(0, 2 * np.pi, n)
    ux, uy = np.cos(th), np.sin(th)
    A = a * ux**2 + b * ux * uy + c2 * uy**2
    B = (2 * a * x0 + b * y0 + d) * ux + (b * x0 + 2 * c2 * y0 + e) * uy
    C = a * x0**2 + b * x0 * y0 + c2 * y0**2 + d * x0 + e * y0 + f
    with np.errstate(divide="ignore", invalid="ignore"):
        # cancellation-free pair; when A = 0 the second is the linear root -C/B
        k = -0.5 * (B + np.copysign(np.sqrt(B * B - 4 * A * C), B))
        roots = np.array([k / A, C / k])
    roots[~((roots >= 1e-4 * span) & (roots <= span))] = np.inf
    r = roots.min(axis=0)
    hit = np.isfinite(r)
    if not hit.any():
        return np.array([[x0, y0]])
    return np.column_stack([x0 + r[hit] * ux[hit], y0 + r[hit] * uy[hit]])


_SUITES = ("el", "sqrt", "closure", "fullaffine", "all")


def _residual_over_windows(curve: cv.CurveSamples, fn) -> float:
    """Best residual estimate over a few derivative-filter windows.

    Bare sample files carry no filter hint; every window yields a valid
    upper estimate of the same residual, so the minimum is reported.  A
    curve too short for every probe window gets the default window.
    """
    wins = [w for w in (101, 151, 201, 301, 401) if w < curve.n // 2]
    if curve.closed or "fd_window" in curve.meta or not wins:
        return fn(curve)
    return float(min(
        fn(cv.CurveSamples(curve.s, curve.x, curve.y, curve.closed, curve.period, {"fd_window": w}))
        for w in wins
    ))


def _verify_curve(curve: cv.CurveSamples, suite: str, tol: float):
    report: dict = {"suite": suite, "tol": tol, "checks": {}}
    ok = True

    def record(name, value, passed):
        nonlocal ok
        report["checks"][name] = {"value": value, "pass": bool(passed)}
        ok = ok and passed

    if suite in ("el", "all"):
        best = _residual_over_windows(
            curve,
            lambda cu: min(
                cv.el_residual_area_constrained(cu).residual,
                cv.el_residual_area_and_length(cu).residual,
            ),
        )
        record("el_residual", best, best < tol)
        defect = cv.unimodularity_defect(curve)
        record("unimodularity", defect, defect < max(tol, 1e-6))
    if suite in ("sqrt", "fullaffine", "all"):
        try:
            res = _residual_over_windows(curve, fa.el_residual_sqrt)
            record("sqrt_el_residual", res, res < tol)
        except DomainError as ex:
            record("sqrt_el_residual", str(ex), suite not in ("sqrt",))
    if suite in ("closure", "all"):
        if curve.closed:
            gap = float(np.hypot(curve.x[0] - curve.x[-1], curve.y[0] - curve.y[-1]))
            diam = float(np.hypot(np.ptp(curve.x), np.ptp(curve.y)))
            record("closure_gap_rel", gap / diam, gap / diam < 10.0 * curve.h / diam + tol)
        else:
            record("closure_gap_rel", "open curve", suite != "closure")
    if suite in ("fullaffine", "all"):
        try:
            fdat = fa.full_affine_invariants(curve)
            if curve.closed:
                total = float(
                    np.sum(fdat.kappa_F * np.gradient(fdat.s_F))
                )
                record("total_full_affine_curvature", total, abs(total) < max(tol, 1e-4))
        except DomainError as ex:
            record("full_affine", str(ex), suite != "fullaffine")
    return report, ok


def cmd_verify(args, cfg) -> int:
    path = args.file
    if path.endswith(".json"):
        curve = cv.curve_from_json(path)
    else:
        curve = cv.curve_from_csv(path, closed=args.closed)
    report, ok = _verify_curve(curve, args.suite, cfg["tol"])
    print(json.dumps(report, indent=1))
    return 0 if ok else 1


def cmd_scan_closure(args) -> int:
    qs = np.geomspace(args.qmin, args.qmax, args.steps)
    lines = ["Q,lhs,d"]
    for qv in qs:
        lhs, d = sy.closure_lhs_with_d(float(qv))
        lines.append(f"{qv:.17g},{lhs:.17g},{d:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="affine-elastica",
        description="Critical curves of equi-affine curvature functionals",
    )
    ap.add_argument("--config", help="key = value configuration file")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_invariant_flags(p):
        p.add_argument("--g2", type=float)
        p.add_argument("--g3", type=float)
        p.add_argument("--q", type=float)
        p.add_argument("--Q", type=float)
        p.add_argument("--P", type=float)
        p.add_argument("--tau", type=float)
        p.add_argument("--branch", choices=("closed", "open"), default="closed")

    p = sub.add_parser("classify", help="classify invariants into the case taxonomy")
    add_invariant_flags(p)

    p = sub.add_parser("table", help="reproduce closed-curve closure data rows")
    p.add_argument("--pairs", help="comma-separated m:n pairs (default: the four known rows)")

    p = sub.add_parser("synth", help="synthesize a curve to CSV/JSON/SVG")
    add_invariant_flags(p)
    p.add_argument("--case", help="case tag (alternative to invariants)", default=None)
    p.add_argument("--E", type=float, help="parameter for D/E/ellipse case tags")
    p.add_argument("--closure", nargs=2, type=int, metavar=("M", "N"))
    p.add_argument("--length-constrained", action="store_true")
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--c0", choices=("0", "w2"), default="w2")
    p.add_argument("--grid", nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--csv")
    p.add_argument("--json", dest="json_out")
    p.add_argument("--svg")
    p.add_argument("--euclidean-display", action="store_true")
    p.add_argument("--mark", type=int, help="sample index for parabola/conic/frame overlays")
    p.add_argument("--congruence-json", help="write the osculating-parabola congruence path")
    p.add_argument("--self-check", action="store_true")

    p = sub.add_parser("verify", help="run a verification suite on a curve file")
    p.add_argument("file")
    p.add_argument("--suite", choices=_SUITES, default="all")
    p.add_argument("--closed", action="store_true", help="treat CSV input as closed")

    p = sub.add_parser("scan-closure", help="scan the closure quantity over Q")
    p.add_argument("--qmin", type=float, default=1.1)
    p.add_argument("--qmax", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out")
    return ap


# default --E of the degenerate tags; a given --E must have the same sign
_E_DEFAULT = {Case.Da: -0.5, Case.Dc: -0.5, Case.E_case: 1.0, Case.Ellipse: 1.0}


def _case_label_from_tag(args) -> CaseLabel:
    tag = Case(args.case)
    if tag in _E_DEFAULT:
        default = _E_DEFAULT[tag]
        E = args.E if args.E is not None else default
        if not (np.isfinite(E) and E * default > 0):
            word = "positive" if default > 0 else "negative"
            raise DomainError(f"--E must be finite and {word} for case {tag.value}, got {E:g}")
        return CaseLabel(tag, {"E": E}, 3.0 * E * E, E**3)
    if tag is Case.F:
        g3 = args.g3 if args.g3 is not None else -1.0
        return CaseLabel(tag, {"g3": g3}, 0.0, g3)
    if tag is Case.G:
        return CaseLabel(tag, {}, 0.0, 0.0)
    raise DomainError("generic tags need invariants; pass --q/--Q, --P/--tau or --g2/--g3")


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "table":
            return cmd_table(args)
        if args.command == "synth":
            return cmd_synth(args, cfg)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        if args.command == "scan-closure":
            return cmd_scan_closure(args)
        raise DomainError(f"unknown command {args.command}")
    except (DomainError, ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except SynthesisError as ex:
        print(f"synthesis error: {ex}", file=sys.stderr)
        return 3


def _emit(curve, args, cfg) -> int:
    overlays = []
    if args.euclidean_display:
        curve = sy.euclidean_display_transform(curve)
    if args.mark is not None:
        i = int(args.mark) % curve.n
        L, tr = fa.osculating_parabola(curve, i)
        t = np.linspace(-1.5, 1.5, 200)
        std = np.column_stack([t, t * t / 2.0])
        overlays.append((std @ L.as_matrix().T + tr, "parabola"))
        overlays.append((_conic_points(fa.osculating_conic(curve, i), curve, i), "conic"))
        # Frenet frame ticks: short segments along the tangent and normal
        M = L.as_matrix()
        span = 0.15 * max(np.ptp(curve.x), np.ptp(curve.y))
        for col in (0, 1):
            v = M[:, col] / np.linalg.norm(M[:, col])
            overlays.append((np.array([tr, tr + span * v]), "frame"))
    if getattr(args, "congruence_json", None):
        path = fa.congruence_path(curve)
        with open(args.congruence_json, "w") as f:
            json.dump(path.to_json_dict(), f, indent=1)
    wrote = False
    if args.csv:
        cv.curve_to_csv(curve, args.csv)
        wrote = True
    if args.json_out:
        cv.curve_to_json(curve, args.json_out)
        wrote = True
    if args.svg:
        with open(args.svg, "w") as f:
            f.write(curve_svg(curve, size=cfg["svg_size"], overlays=overlays))
        wrote = True
    if not wrote:
        sys.stdout.write(cv.curve_to_csv(curve))
    if args.self_check:
        report, ok = _verify_curve(curve, "el", cfg["tol"])
        print(json.dumps(report, indent=1))
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
