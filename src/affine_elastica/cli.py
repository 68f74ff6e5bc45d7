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
from functools import cache

import numpy as np

from . import curvature as cv
from . import fullaffine as fa
from . import synthesis as sy
from ._numerics import format_numbers
from .classifier import Branch, Case, CaseLabel, classify
from .elliptic import Invariants, invariants_from_Ptau, invariants_from_qQ
from .errors import DomainError, SynthesisError

_DEFAULT_TOL = 1e-5

_CONFIG_KEYS = {"tol", "samples", "svg_size"}


def _positive(name: str, text) -> float:
    """``text`` as a float, which must be finite and positive (else DomainError naming ``name``)."""
    try:
        val = float(text)
    except ValueError:
        val = np.nan
    if not (np.isfinite(val) and val > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {text}")
    return val


def _positive_int(name: str, text: str) -> int:
    """``text`` as an int, which must be positive (else DomainError naming ``name``)."""
    try:
        val = int(text)
    except ValueError:
        val = 0
    if val < 1:
        raise DomainError(f"{name} must be a positive integer, got {text}")
    return val


def _load_config(path: str | None) -> dict:
    cfg = {"tol": _positive("AFFINE_ELASTICA_TOL", os.environ.get("AFFINE_ELASTICA_TOL", _DEFAULT_TOL)),
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
            cfg[key] = (_positive_int if key == "samples" else _positive)(f"config line {line_no}: {key}", val)
    return cfg


# ---------------------------------------------------------------------------
# SVG


_SVG_COMMENT = "<!-- affine-elastica curve plot -->"


def _svg_polyline(points: np.ndarray, cls: str) -> str:
    coords = format_numbers(points, "%.6f", b", ")[:-1].decode()
    return f'<polyline class="{cls}" fill="none" points="{coords}"/>'


def curve_svg(c: cv.CurveSamples, size: float = 720.0, overlays: list | None = None) -> str:
    """Deterministic standalone SVG of the curve with optional overlays.

    Overlays are (points, class) pairs; stroke classes: curve solid,
    parabola dashed, conic dotted, frame plain thin.  The view is fitted to
    the curve alone, with a 5 % margin, so overlays do not move the curve's
    polyline; the viewBox clips what they draw past the margin.
    """
    pts = c.points()
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
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


def cmd_classify(args, cfg) -> int:
    label = _label_from_args(args)
    print(label.to_json())
    return 0


_TABLE_DEFAULT = [(3, 4), (4, 5), (29, 37), (17, 24)]


def _pairs_from_args(args) -> list[tuple[int, int]]:
    if args.pairs is None:
        return list(_TABLE_DEFAULT)
    try:
        pairs = [tuple(int(v) for v in part.split(":")) for part in args.pairs.split(",")]
    except ValueError:
        pairs = []
    if not pairs or any(len(p) != 2 for p in pairs):
        raise DomainError(f"--pairs needs M:N[,M:N...], got {args.pairs!r}")
    return pairs


def cmd_table(args, cfg) -> int:
    pairs = _pairs_from_args(args)
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
        if args.grid:
            raise DomainError("--grid does not apply to --closure, whose curve spans its whole period")
        m, n = args.closure
        sol = sy.solve_closure(int(m), int(n))
        per_period = 2000 if cfg["samples"] is None else cfg["samples"]
        curve = sy.synthesize_closed(sol, samples_per_period=per_period)
    elif args.length_constrained:
        curve = sy.synthesize_length_constrained(
            A=args.A, g3=args.g3 if args.g3 is not None else -0.15, c0=args.c0,
            grid=_grid_from_args(args), n=cfg["samples"],
        )
    else:
        label = _case_label_from_tag(args) if args.case is not None else _label_from_args(args)
        curve = sy.synthesize(label, grid=_grid_from_args(args), n=cfg["samples"])
    return _emit(curve, args, cfg)


def _grid_from_args(args):
    if not args.grid:
        return None
    lo, hi = args.grid
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError(f"--grid needs finite LO < HI, got {lo:g} {hi:g}")
    return lo, hi


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


def _probe_curves(curve: cv.CurveSamples) -> list[cv.CurveSamples]:
    """The curve once per derivative-filter window, or alone when closed, hinted
    or too short for every window: without a hint each window yields a valid
    upper estimate of the same residuals, so each residual is minimized over them."""
    wins = [w for w in (101, 151, 201, 301, 401) if w < curve.n // 2]
    if curve.closed or "fd_window" in curve.meta or not wins:
        return [curve]
    return [cv.CurveSamples(curve.s, curve.x, curve.y, curve.closed, curve.period, {"fd_window": w})
            for w in wins]


def _el_residual(curve, probes, tol):
    # each estimate is the smaller of the two EL fits; the absolute rms scales
    # as lambda^-4 under s -> lambda s, so the verdict is on the relative one
    fits = [(cv.el_residual_area_constrained(p), cv.el_residual_area_and_length(p)) for p in probes]
    relative = min(min(f.relative for f in pair) for pair in fits)
    best = min(min(f.residual for f in pair) for pair in fits)
    return {"el_residual": {"value": best, "relative": relative, "pass": relative < tol}}


def _unimodularity(curve, probes, tol):
    defect = cv.unimodularity_defect(curve)
    return {"unimodularity": {"value": defect, "pass": defect < max(tol, cv.UNIMODULAR_TOL)}}


def _sqrt_el_residual(curve, probes, tol):
    # the rms of kappa_F's fit: kappa_F is dimensionless, so it is unit-free
    best = min(fa.el_residual_sqrt(p) for p in probes)
    return {"sqrt_el_residual": {"value": best, "pass": best < tol}}


def _closure_gap(curve, probes, tol):
    if not curve.closed:
        raise DomainError("open curve")
    # the wrap step p[-1] -> p[0] is one more grid step, as long as its
    # neighbours; a curve that stops k steps short wraps in about k + 1
    before, wrap, after = np.hypot(*np.diff(curve.points()[[-2, -1, 0, 1]], axis=0).T)
    ratio = float(wrap / max(before, after))
    return {"closure_gap_rel": {"value": ratio, "pass": ratio < 1.5}}


#: the full-affine functionals, in the order of the fits that _full_affine makes
_FULL_AFFINE_FUNCTIONALS = ("free", "area", "length", "total_curvature")


def _full_affine(curve, probes, tol):
    # per functional, the smallest rms over the probes of kappa_F's fit:
    # A x + B y + C when free, plus Q R under each constraint
    def fits(p):
        r = fa.constrained_sqrt_residuals(p)
        return fa.el_residual_sqrt(p), r.area_residual, r.length_residual, r.total_curv_residual

    rms = np.min([fits(p) for p in probes], axis=0)
    critical_for = [name for name, r in zip(_FULL_AFFINE_FUNCTIONALS, rms) if r < tol]
    return {"full_affine": {"value": float(rms.min()), "critical_for": critical_for, "pass": bool(critical_for)}}


#: the checks in report order: name, the suites that run it, the suites where
#: it must apply, and the function from (curve, probes, tol) to its records.
#: A check that cannot apply (it raises DomainError) records the error's text
#: under its name, and fails in the suites where it must apply.
_CHECKS = (
    ("el_residual", ("el", "all"), ("el", "all"), _el_residual),
    ("unimodularity", ("el", "all"), ("el", "all"), _unimodularity),
    ("sqrt_el_residual", ("sqrt", "all"), ("sqrt", "all"), _sqrt_el_residual),
    ("closure_gap_rel", ("closure", "all"), ("closure",), _closure_gap),
    ("full_affine", ("fullaffine", "all"), ("fullaffine", "all"), _full_affine),
)


def _verify_curve(curve: cv.CurveSamples, suite: str, tol: float):
    probes = _probe_curves(curve)
    checks = {}
    for name, suites, required, check in _CHECKS:
        if suite in suites:
            try:
                checks.update(check(curve, probes, tol))
            except DomainError as ex:
                checks[name] = {"value": str(ex), "pass": suite not in required}
    return {"suite": suite, "tol": tol, "checks": checks}, all(c["pass"] for c in checks.values())


def cmd_verify(args, cfg) -> int:
    if args.file.endswith(".json"):
        curve = cv.curve_from_json(args.file)
    else:
        curve = cv.curve_from_csv(args.file, closed=args.closed)
    report, ok = _verify_curve(curve, args.suite, cfg["tol"])
    print(json.dumps(report, indent=1))
    return 0 if ok else 1


def cmd_scan_closure(args, cfg) -> int:
    for flag, value in (("--qmin", args.qmin), ("--qmax", args.qmax)):
        if not (np.isfinite(value) and value > 0.0):  # a geometric grid needs both ends positive
            raise DomainError(f"{flag} must be finite and positive, got {value:g}")
    if args.steps < 0:
        raise DomainError(f"--steps must be at least 0, got {args.steps}")
    qs = np.geomspace(args.qmin, args.qmax, args.steps)
    lhs, d = sy.closure_lhs_with_d(qs)
    lines = ["Q,lhs,d"]
    lines += [f"{q:.17g},{v:.17g},{w:.17g}" for q, v, w in zip(qs.tolist(), lhs.tolist(), d.tolist())]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later ``main`` calls."""
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
    p.set_defaults(run=cmd_classify)
    add_invariant_flags(p)

    p = sub.add_parser("table", help="reproduce closed-curve closure data rows")
    p.set_defaults(run=cmd_table)
    p.add_argument("--pairs", help="comma-separated m:n pairs (default: the four known rows)")

    p = sub.add_parser("synth", help="synthesize a curve to CSV/JSON/SVG")
    p.set_defaults(run=cmd_synth)
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
    p.set_defaults(run=cmd_verify)
    p.add_argument("file")
    p.add_argument("--suite", choices=("el", "sqrt", "closure", "fullaffine", "all"), default="all")
    p.add_argument("--closed", action="store_true", help="treat CSV input as closed")

    p = sub.add_parser("scan-closure", help="scan the closure quantity over Q")
    p.set_defaults(run=cmd_scan_closure)
    p.add_argument("--qmin", type=float, default=1.1)
    p.add_argument("--qmax", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out")
    return ap


def _e_label(E):
    return {"E": E}, 3.0 * E * E, E**3


#: tags synthesized without invariants: the flag each reads, its default and
#: the label's (params, g2, g3) from the value; a given --E must have the default's sign
_TAG_LABELS = {
    Case.Da: ("E", -0.5, _e_label),
    Case.Dc: ("E", -0.5, _e_label),
    Case.E_case: ("E", 1.0, _e_label),
    Case.Ellipse: ("E", 1.0, _e_label),
    Case.F: ("g3", -1.0, lambda g3: ({"g3": g3}, 0.0, g3)),
    Case.G: ("g3", 0.0, lambda _: ({}, 0.0, 0.0)),
}


def _case_label_from_tag(args) -> CaseLabel:
    tag = Case(args.case)
    if tag not in _TAG_LABELS:
        raise DomainError("generic tags need invariants; pass --q/--Q, --P/--tau or --g2/--g3")
    flag, default, build = _TAG_LABELS[tag]
    val = default if getattr(args, flag) is None else getattr(args, flag)
    if flag == "E" and not (np.isfinite(val) and val * default > 0):
        word = "positive" if default > 0 else "negative"
        raise DomainError(f"--E must be finite and {word} for case {tag.value}, got {val:g}")
    try:
        return CaseLabel(tag, *build(val))
    except OverflowError:  # E**3 past the float range
        raise DomainError(f"--{flag} {val:g} is too large for case {tag.value}: its g3 overflows") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args, _load_config(args.config))
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
        overlays.append((std @ L.T + tr, "parabola"))
        overlays.append((_conic_points(fa.osculating_conic(curve, i), curve, i), "conic"))
        # Frenet frame ticks: short segments along the tangent and normal
        span = 0.15 * max(np.ptp(curve.x), np.ptp(curve.y))
        for col in (0, 1):
            v = L[:, col] / np.linalg.norm(L[:, col])
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
