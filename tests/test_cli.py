"""Command-line interface: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affine_elastica
from affine_elastica import curvature as cv
from affine_elastica import elliptic as el
from affine_elastica import fullaffine as fa
from affine_elastica import synthesis as sy
from affine_elastica.classifier import Branch, classify
from affine_elastica.cli import _conic_points, _svg_polyline, _verify_curve, main
from affine_elastica.elliptic import invariants_from_qQ
from affine_elastica.errors import DomainError
from conftest import hypotrochoid_points, scaled_curve


@lru_cache(maxsize=None)
def _scaling_curves() -> dict:
    return {
        "closed 3:4": sy.synthesize_closed(sy.solve_closure(3, 4), samples_per_period=400),
        "open B1": sy.synthesize(classify(invariants_from_qQ(0.6, 1.2), Branch.open_branch), n=1500),
        "hypotrochoid": cv.reparametrize_equiaffine(hypotrochoid_points(n=2000), closed=True),
    }


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_zero_g2(self, capsys):
        code, out, _ = run(["classify", "--g2", "0", "--g3", "-1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["tag"] == "F"

    def test_fully_degenerate(self, capsys):
        code, out, _ = run(["classify", "--g2", "0", "--g3", "0"], capsys)
        assert code == 0
        assert json.loads(out)["tag"] == "G"

    def test_from_qQ(self, capsys):
        code, out, _ = run(
            ["classify", "--q", "1", "--Q", "3.940854279", "--branch", "closed"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tag"] == "A1"
        assert payload["params"]["Q"] == pytest.approx(3.940854279)

    def test_missing_invariants_is_domain_error(self, capsys):
        code, _, err = run(["classify", "--g2", "1"], capsys)
        assert code == 2
        assert "error" in err

    def test_degenerate_boundary_reports_case(self, capsys):
        # Delta = 0 inputs classify into the degenerate families, exit 0
        code, out, _ = run(["classify", "--g2", "0.75", "--g3", "-0.125", "--branch", "open"], capsys)
        assert code == 0
        assert json.loads(out)["tag"] == "Da"


class TestTable:
    def test_reference_row(self, capsys):
        code, out, _ = run(["table", "--pairs", "3:4"], capsys)
        assert code == 0
        assert "3.940854279" in out
        assert "1.424009578" in out
        assert "1.670043233" in out
        assert "-1.540700057" in out

    def test_unreachable_ratio_reports_without_abort(self, capsys):
        code, out, _ = run(["table", "--pairs", "1:2,3:4"], capsys)
        assert code == 0
        assert "no solution found" in out
        assert "3.940854279" in out


class TestSynth:
    def test_csv_deterministic(self, tmp_path, capsys):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        for p in (p1, p2):
            code, _, _ = run(["synth", "--case", "G", "--csv", str(p)], capsys)
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_deterministic(self, tmp_path, capsys):
        p1 = tmp_path / "a.svg"
        p2 = tmp_path / "b.svg"
        for p in (p1, p2):
            code, _, _ = run(
                ["synth", "--q", "1", "--Q", "3.0", "--branch", "closed", "--svg", str(p)],
                capsys,
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.startswith("<?xml")
        assert "<polyline" in text

    def test_svg_points_format_each_coordinate_to_six_decimals(self, rng):
        pts = rng.standard_normal((500, 2)) * np.logspace(-9, 9, 500)[:, None]
        pts[:4] = [[-0.0, 0.0], [np.nan, np.inf], [-np.inf, 1e-7], [2.5e-7, -5e-7]]
        coords = " ".join(f"{x:.6f},{y:.6f}" for x, y in pts)
        assert _svg_polyline(pts, "curve") == f'<polyline class="curve" fill="none" points="{coords}"/>'
        assert _svg_polyline(np.empty((0, 2)), "frame").endswith('points=""/>')

    def test_case_g_algebraic_output(self, tmp_path, capsys):
        p = tmp_path / "g.csv"
        code, _, _ = run(["synth", "--case", "G", "--csv", str(p)], capsys)
        assert code == 0
        c = cv.curve_from_csv(str(p))
        vals = c.x * c.y**4
        assert np.max(np.abs(vals / np.mean(vals) - 1.0)) < 1e-6

    def test_length_constrained_family(self, tmp_path, capsys):
        p = tmp_path / "lc.json"
        code, _, _ = run(
            ["synth", "--length-constrained", "--A", "1", "--c0", "w2",
             "--g3", "-0.15", "--json", str(p)],
            capsys,
        )
        assert code == 0
        c = cv.curve_from_json(str(p))
        assert cv.unimodularity_defect(c) < 1e-6

    def test_closure_selfcheck(self, tmp_path, capsys):
        p = tmp_path / "c34.csv"
        code, out, _ = run(
            ["synth", "--closure", "3", "4", "--csv", str(p), "--self-check"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["checks"]["el_residual"]["pass"]

    # at Q within rounding of these roots, evaluating every period moved the
    # residual past 1e-5; one period tiled by the exact multiplier does not.
    # The bound is on the scale-free residual: the absolute rms of 7:8 (rms
    # kappa^2 about 507) follows the last bits of Q from 6e-6 to 4e-5
    @pytest.mark.parametrize("m,n", [(5, 6), (7, 8)])
    def test_closure_selfcheck_one_period(self, m, n, tmp_path, capsys):
        code, out, _ = run(
            ["synth", "--closure", str(m), str(n), "--csv", str(tmp_path / "c.csv"), "--self-check"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["checks"]["el_residual"]["relative"] < 1e-5

    def test_closed_self_check_transforms_each_signal_once(self, rfft_calls):
        curve = sy.synthesize_closed(sy.solve_closure(3, 4), samples_per_period=400)
        _, ok = _verify_curve(curve, "el", 1e-5)
        assert ok
        assert len(rfft_calls) <= 3  # x, y and kappa

    def test_degenerate_case_selfcheck(self, tmp_path, capsys):
        p = tmp_path / "da.csv"
        code, out, _ = run(
            ["synth", "--case", "Da", "--E", "-2", "--csv", str(p), "--self-check"], capsys
        )
        assert code == 0
        assert json.loads(out)["checks"]["el_residual"]["pass"]

    def test_mark_overlays_in_svg(self, tmp_path, capsys):
        p = tmp_path / "m.svg"
        code, _, _ = run(
            ["synth", "--q", "1", "--Q", "3.0", "--branch", "closed",
             "--svg", str(p), "--mark", "1200"],
            capsys,
        )
        assert code == 0
        text = p.read_text()
        assert 'class="parabola"' in text
        assert 'class="conic"' in text
        assert 'class="frame"' in text

    def test_mark_conic_points_lie_on_conic(self):
        curve = sy.synthesize(classify(invariants_from_qQ(1.0, 3.0), Branch.closed_branch))
        i = 1200 % curve.n
        a, b, c2, d, e, f = coef = fa.osculating_conic(curve, i)
        pts = _conic_points(coef, curve, i)
        assert len(pts) > 100
        x, y = pts[:, 0], pts[:, 1]
        terms = np.array([a * x * x, b * x * y, c2 * y * y, d * x, e * y, np.full_like(x, f)])
        assert np.max(np.abs(terms.sum(axis=0)) / np.abs(terms).sum(axis=0)) < 1e-9

    def test_congruence_json_export(self, tmp_path, capsys):
        p = tmp_path / "path.json"
        code, _, _ = run(
            ["synth", "--q", "1", "--Q", "3.0", "--branch", "closed",
             "--csv", str(tmp_path / "c.csv"), "--congruence-json", str(p)],
            capsys,
        )
        assert code == 0
        payload = json.loads(p.read_text())
        mats = np.array(payload["mats"])
        assert mats.shape[1:] == (2, 2)
        dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        assert np.max(np.abs(dets - 1.0)) < 1e-8

    def test_synthesis_error_exit_code(self, tmp_path, capsys):
        code, _, err = run(["synth", "--closure", "1", "2", "--csv", str(tmp_path / "x.csv")], capsys)
        assert code == 3
        assert "synthesis error" in err


class TestVerify:
    def test_synthesized_curve_passes(self, tmp_path, capsys):
        p = tmp_path / "a1.csv"
        code, _, _ = run(
            ["synth", "--q", "1", "--Q", "3.0", "--branch", "closed", "--csv", str(p)], capsys
        )
        assert code == 0
        code, out, _ = run(["verify", str(p), "--suite", "el"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["checks"]["el_residual"]["pass"]

    def test_hypotrochoid_fails(self, tmp_path, capsys):
        c = cv.reparametrize_equiaffine(hypotrochoid_points(), closed=True)
        p = tmp_path / "hypo.csv"
        cv.curve_to_csv(c, str(p))
        code, out, _ = run(["verify", str(p), "--closed", "--suite", "el"], capsys)
        assert code == 1
        report = json.loads(out)
        assert not report["checks"]["el_residual"]["pass"]
        assert report["checks"]["el_residual"]["value"] > 0.1
        assert report["checks"]["el_residual"]["relative"] > 1.0  # 7.07

    @pytest.mark.parametrize("g2", ["-1", "-1e20", "-1e40"])
    def test_self_check_scale_free(self, g2, tmp_path, capsys):
        """One lattice at three scales (g3 is negligible at each): the absolute
        rms grows as g2, the verdict stays."""
        code, out, _ = run(["synth", f"--g2={g2}", "--g3=1e-60", "--branch", "open",
                            "--csv", str(tmp_path / "o.csv"), "--self-check"], capsys)
        assert code == 0
        assert json.loads(out)["checks"]["el_residual"]["relative"] < 1e-6  # 3.5e-7, 2.7e-7, 2.5e-7

    def test_parabola_passes(self, tmp_path, capsys):
        """kappa = 0: the relative residual stands on the L^-4 floor."""
        t = np.linspace(-1.0, 1.0, 3000)
        p = tmp_path / "parabola.csv"
        cv.curve_to_csv(cv.CurveSamples(t, t, 0.5 * t * t), str(p))
        code, out, _ = run(["verify", str(p), "--suite", "el"], capsys)
        assert code == 0
        assert json.loads(out)["checks"]["el_residual"]["relative"] < 1e-5

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["closed 3:4", "open B1", "hypotrochoid"]),
           log_lam=st.floats(min_value=-2.0, max_value=2.0))
    def test_verdict_scale_free(self, name, log_lam):
        """Points scaled by lam^(3/2) and s by lam: kappa scales as lam^-2,
        the verdict and the relative residual stay, the absolute one goes as
        lam^-4 (to the rounding noise a passing curve's residual is made of)."""
        curve = _scaling_curves()[name]
        lam = 10.0**log_lam
        scaled = scaled_curve(curve, lam)
        (base, ok), (got, ok_scaled) = _verify_curve(curve, "el", 1e-5), _verify_curve(scaled, "el", 1e-5)
        base, got = base["checks"]["el_residual"], got["checks"]["el_residual"]
        assert ok_scaled == ok == (name != "hypotrochoid")
        assert got["relative"] == pytest.approx(base["relative"], rel=0.25)
        assert got["value"] * lam**4 == pytest.approx(base["value"], rel=0.25)

    def test_ellipse_all_suites(self, tmp_path, capsys):
        e = cv.ellipse_samples(2.0, 0.5, 4096)
        p = tmp_path / "e.json"
        cv.curve_to_json(e, str(p))
        code, out, _ = run(["verify", str(p), "--suite", "all"], capsys)
        assert code == 0
        report = json.loads(out)
        assert all(chk["pass"] for chk in report["checks"].values())

    def test_short_bare_csv_uses_default_window(self, tmp_path, capsys):
        """Too short for every probe window: a finite residual, strict JSON."""
        cfg = tmp_path / "cfg"
        cfg.write_text("samples = 150\n")
        p = tmp_path / "short.csv"
        argv = ["--config", str(cfg), "synth", "--q", "1", "--Q", "3.0", "--branch", "closed"]
        assert run([*argv, "--csv", str(p)], capsys)[0] == 0
        _, out, _ = run(["verify", str(p), "--suite", "el"], capsys)

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        report = json.loads(out, parse_constant=reject)
        assert np.isfinite(report["checks"]["el_residual"]["value"])

    def test_closure_suite_sees_a_curve_that_stops_short(self, tmp_path, capsys):
        p = tmp_path / "c34.csv"
        assert run(["synth", "--closure", "3", "4", "--csv", str(p)], capsys)[0] == 0
        rows = p.read_text().splitlines(keepends=True)
        for drop, code in ((0, 0), (1, 1), (8, 1)):
            short = tmp_path / f"short{drop}.csv"
            short.write_text("".join(rows[: len(rows) - drop]))
            assert run(["verify", str(short), "--closed", "--suite", "closure"], capsys)[0] == code, drop

    def test_tol_env_override(self, tmp_path, capsys, monkeypatch):
        e = cv.ellipse_samples(2.0, 0.5, 2048)
        p = tmp_path / "e.csv"
        cv.curve_to_csv(e, str(p))
        monkeypatch.setenv("AFFINE_ELASTICA_TOL", "1e-30")
        code, out, _ = run(["verify", str(p), "--closed", "--suite", "el"], capsys)
        assert code == 1  # impossible tolerance: everything fails

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tol_env_must_be_finite_and_positive(self, tol, tmp_path, capsys, monkeypatch):
        # a passing curve: nan and -1 used to fail it (exit 1), inf to pass it
        # with "tol": Infinity, which is not JSON
        p = tmp_path / "e.csv"
        cv.curve_to_csv(cv.ellipse_samples(2.0, 0.5, 2048), str(p))
        monkeypatch.setenv("AFFINE_ELASTICA_TOL", tol)
        code, out, err = run(["verify", str(p), "--closed", "--suite", "el"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: AFFINE_ELASTICA_TOL must be finite and positive, got {tol}\n"


class TestScanClosure:
    def test_scan_passes_through_reference(self, tmp_path, capsys):
        p = tmp_path / "scan.csv"
        code, _, _ = run(
            ["scan-closure", "--qmin", "3.5", "--qmax", "4.5", "--steps", "41",
             "--out", str(p)],
            capsys,
        )
        assert code == 0
        rows = np.genfromtxt(str(p), delimiter=",", names=True)
        # the closure quantity crosses 4/3 between the bracketing Q values
        diffs = rows["lhs"] - 4.0 / 3.0
        assert np.any(diffs[:-1] * diffs[1:] < 0)
        k = int(np.nonzero(diffs[:-1] * diffs[1:] < 0)[0][0])
        assert rows["Q"][k] < 3.9409 < rows["Q"][k + 1]

    def test_large_q_matches_reference(self, capsys):
        # 40-digit reference of the closure quantity at Q = 1e8
        code, out, _ = run(["scan-closure", "--qmin", "1e8", "--qmax", "1e8", "--steps", "1"], capsys)
        assert code == 0
        lhs = float(out.strip().splitlines()[1].split(",")[1])
        assert abs(lhs - 1.0000834626832913358) <= 1e-12

    def test_grid_independence(self, capsys):
        code, out1, _ = run(["scan-closure", "--qmin", "2", "--qmax", "3", "--steps", "5"], capsys)
        lines1 = {ln.split(",")[0]: ln for ln in out1.strip().splitlines()[1:]}
        code, out2, _ = run(["scan-closure", "--qmin", "2", "--qmax", "3", "--steps", "9"], capsys)
        lines2 = {ln.split(",")[0]: ln for ln in out2.strip().splitlines()[1:]}
        shared = set(lines1) & set(lines2)
        assert len(shared) >= 3
        for q in shared:
            v1 = float(lines1[q].split(",")[1])
            v2 = float(lines2[q].split(",")[1])
            assert abs(v1 - v2) < 1e-8

    def test_window_endpoints(self, capsys):
        # the closure quantity drifts toward sqrt(2) near Q = 1 and toward 1
        # for large Q (the conjectured admissible window; recorded, not asserted
        # as a theorem)
        code, out, _ = run(
            ["scan-closure", "--qmin", "1.001", "--qmax", "1000", "--steps", "60"], capsys
        )
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        lhs = np.array([float(r[1]) for r in rows])
        assert lhs[0] > 1.40
        assert lhs[-1] < 1.1
        assert np.all(np.diff(lhs) < 0)  # monotone on the interval solve_closure brackets


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("tol = 1e-4\nbogus = 7\n")
        code, _, err = run(["--config", str(cfg), "classify", "--g2", "0", "--g3", "-1"], capsys)
        assert code == 2
        assert "unknown key" in err

    def test_tolerance_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("tol = 1e-30\n")
        e = cv.ellipse_samples(1.0, 1.0, 2048)
        p = tmp_path / "e.csv"
        cv.curve_to_csv(e, str(p))
        code, _, _ = run(["--config", str(cfg), "verify", str(p), "--closed", "--suite", "el"], capsys)
        assert code == 1


def _json_curve(meta: str = "{}", closed: str = "false", period: str = "null", s: str | None = None) -> str:
    """An 8-sample curve file; ``meta``, ``closed``, ``period`` and ``s`` (default 0..7) are JSON texts."""
    xy = list(range(8))
    return f'{{"s": {s or xy}, "x": {xy}, "y": {xy}, "closed": {closed}, "period": {period}, "meta": {meta}}}'


#: (closed, period, s) JSON texts that curve_from_json rejects, with the reason
_BAD_JSON_FIELDS = {
    "closed-string": (('"false"', "null", None), "closed must be true or false"),
    "closed-int": (("1", "null", None), "closed must be true or false"),
    "period-string": (("true", '"5"', None), "period must be null or a finite positive number"),
    "period-negative": (("true", "-1", None), "period must be null or a finite positive number"),
    "period-zero": (("true", "0", None), "period must be null or a finite positive number"),
    "period-infinite": (("true", "1e400", None), "period must be null or a finite positive number"),
    "period-bool": (("true", "true", None), "period must be null or a finite positive number"),
    "s-2d": (("false", "null", str([[k, k + 1] for k in range(8)])), "s, x and y must be 1-d arrays"),
}


#: meta.fd_window values that filter_window never writes
_BAD_WINDOWS = ("2.5", "[3]", "0", "1", "true", "2", "3", "null", "99", "403", "202")


@pytest.mark.parametrize(
    "files,argv,reason",
    [
        ({}, ["verify", "{tmp}/missing.csv"], "No such file"),
        ({}, ["--config", "{tmp}/missing.cfg", "classify", "--g2", "0", "--g3", "-1"], "No such file"),
        ({"short.csv": "s,x,y\n0,0\n1,1\n"}, ["verify", "{tmp}/short.csv"], "3 columns"),
        ({"empty.csv": "s,x,y\n"}, ["verify", "{tmp}/empty.csv"], "3 columns"),
        ({"ragged.csv": "s,x,y\n0,0,0\n1,1\n"}, ["verify", "{tmp}/ragged.csv"], "3 columns"),
        ({"text.csv": "s,x,y\n0,a,0\n"}, ["verify", "{tmp}/text.csv"], "3 columns"),
        ({"noheader.csv": "0,0,0\n"}, ["verify", "{tmp}/noheader.csv"], "header s,x,y"),
        ({"bad.json": '{"s": [0, 1]}'}, ["verify", "{tmp}/bad.json"], "JSON object"),
        ({}, ["classify", "--g2", "nan", "--g3", "1"], "finite"),
        ({}, ["synth", "--case", "ellipse", "--E", "0"], "--E must be finite and positive"),
        ({}, ["synth", "--case", "Da", "--E", "1"], "--E must be finite and negative"),
        ({}, ["synth", "--case", "E", "--E", "-1"], "--E must be finite and positive"),
        ({}, ["synth", "--case", "E", "--E", "1e300"], "--E 1e+300 is too large for case E"),
        ({}, ["synth", "--case", "ellipse", "--E", "1e103"], "--E 1e+103 is too large for case ellipse"),
        ({}, ["synth", "--case", "Dc", "--E=-1e200"], "--E -1e+200 is too large for case Dc"),
        ({}, ["classify", "--g2=1e103", "--g3=1"], "g2^3 - 27 g3^2 must be finite"),
        ({}, ["table", "--pairs", "0:1"], "m >= 1 and n >= 1"),
        ({}, ["synth", "--closure", "0", "1"], "m >= 1 and n >= 1"),
        ({}, ["synth", "--q", "1", "--Q", "3", "--grid", "2", "2"], "--grid needs finite LO < HI"),
        ({}, ["synth", "--q", "1", "--Q", "3", "--grid", "0", "0"], "--grid needs finite LO < HI"),
        ({}, ["synth", "--q", "1", "--Q", "3", "--grid", "1", "0"], "--grid needs finite LO < HI"),
        *(({"s.cfg": f"samples = {k}\n"}, ["--config", "{tmp}/s.cfg", "synth", *how],
           "at least 7 samples")
          for how in (["--q", "1", "--Q", "3"], ["--closure", "3", "4"]) for k in (0, 1)),
        *(({"w.json": _json_curve(f'{{"fd_window": {w}}}')}, ["verify", "{tmp}/w.json"],
           "fd_window must be an odd integer") for w in _BAD_WINDOWS),
        ({"m.json": _json_curve("[]")}, ["verify", "{tmp}/m.json"], "meta to be a JSON object"),
        *(({"f.json": _json_curve("{}", closed, period, s)},
           ["verify", "{tmp}/f.json", "--suite", "closure"], reason)
          for (closed, period, s), reason in _BAD_JSON_FIELDS.values()),
        *(({"c.cfg": f"{key} = {val}\n"}, ["--config", "{tmp}/c.cfg", "classify", "--g2", "0", "--g3", "-1"],
           f"config line 1: {key} must be finite and positive")
          for key in ("tol", "svg_size") for val in ("nan", "-1", "0", "inf")),
        ({}, ["scan-closure", "--qmax", "inf"], "--qmax must be finite and positive"),
        ({}, ["scan-closure", "--qmin", "nan"], "--qmin must be finite and positive"),
        ({}, ["scan-closure", "--qmin", "-2", "--qmax", "2"], "--qmin must be finite and positive"),
        ({}, ["scan-closure", "--steps", "-2"], "--steps must be at least 0"),
        ({}, ["scan-closure", "--qmin", "1.0000000001", "--qmax", "1.001", "--steps", "2"], "degenerate"),
        *(({}, ["table", "--pairs", pairs], "--pairs needs M:N[,M:N...]") for pairs in ("3", "3:x", "")),
    ],
    ids=["missing-csv", "missing-config", "short-row", "header-only", "ragged-row", "text-field",
         "no-header", "json-keys", "nan-invariant",
         "ellipse-E-zero", "Da-E-positive", "E-E-negative",
         "E-E-overflows", "ellipse-E-overflows", "Dc-E-overflows", "g2-cube-overflows",
         "table-zero-pair", "closure-zero-pair", "grid-empty", "grid-zero", "grid-reversed",
         "samples-0-open", "samples-1-open", "samples-0-closed", "samples-1-closed",
         *(f"fd-window-{w}" for w in _BAD_WINDOWS), "meta-not-object", *_BAD_JSON_FIELDS,
         *(f"config-{key}-{val}" for key in ("tol", "svg_size") for val in ("nan", "-1", "0", "inf")),
         "scan-qmax-inf", "scan-qmin-nan", "scan-qmin-negative", "scan-steps-negative", "scan-degenerate-q",
         "pairs-no-colon", "pairs-not-int", "pairs-empty"],
)
def test_bad_input_exits_2(files, argv, reason, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert reason in err


def test_wrong_wp_at_half_period_exits_2(monkeypatch, capsys):
    # an R_F 1e-3 too large scales the whole lattice by 1.001, which moves
    # wp(w1) 2e-3 of the root scale away from the largest root; the
    # consistency check must catch it.  The check runs once per lattice, so
    # empty the cache of lattices seen before, and again after the bad ones.
    rf = el.carlson_rf
    monkeypatch.setattr(el, "carlson_rf", lambda *a: 1.001 * rf(*a))
    el._frame_cached.cache_clear()
    try:
        with pytest.raises(DomainError, match="largest real root"):
            el.half_periods(invariants_from_qQ(1.0, 3.0))
        code, _, err = run(["synth", "--q", "1", "--Q", "3"], capsys)
    finally:
        el._frame_cached.cache_clear()
    assert code == 2
    assert err.startswith("error:") and "largest real root" in err


def test_cli_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(affine_elastica.__file__))
    code = (
        "import io, sys, contextlib\n"
        "from affine_elastica.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rcs = [main(['classify', '--q', '1', '--Q', '3.940854279']), main(['table']),\n"
        "           main(['scan-closure', '--steps', '5'])]\n"
        "print(rcs, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0] []"


def test_parser_reuse_matches_fresh_processes(tmp_path, capsys):
    """One process runs every subcommand on the shared parser, non-default
    flags before defaults and an argparse error among them; each stdout and
    exit code matches a fresh interpreter's."""
    cfg, csv = tmp_path / "cfg", tmp_path / "e.csv"
    cfg.write_text("samples = 64\n")
    runs = [
        ["classify", "--g2", "0", "--g3", "-1", "--branch", "open"],
        ["classify", "--q", "1", "--Q", "3.940854279"],
        ["table", "--pairs", "3:4,1:2"],
        ["table"],
        ["--config", str(cfg), "synth", "--case", "ellipse", "--E", "2", "--self-check"],
        ["--config", str(cfg), "synth", "--case", "ellipse", "--csv", str(csv)],
        ["verify", str(csv), "--closed", "--suite", "el"],
        ["verify", str(csv)],
        ["table", "--bogus"],
        ["scan-closure", "--qmin", "2", "--qmax", "3", "--steps", "4"],
        ["scan-closure"],
    ]
    here = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
        here.append((code, capsys.readouterr().out))
    src = os.path.dirname(os.path.dirname(affine_elastica.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = [subprocess.run([sys.executable, "-m", "affine_elastica.cli", *argv], env=env,
                            capture_output=True, text=True)
             for argv in runs]
    assert here == [(p.returncode, p.stdout) for p in fresh]
    assert [code for code, _ in here] == [0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0]
