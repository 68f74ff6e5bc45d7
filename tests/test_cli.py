"""Command-line interface: outputs, determinism, exit codes."""

import json
import os

import numpy as np
import pytest

from affine_elastica import curvature as cv
from affine_elastica import fullaffine as fa
from affine_elastica import synthesis as sy
from affine_elastica.classifier import Branch, classify
from affine_elastica.cli import _conic_points, main
from affine_elastica.elliptic import invariants_from_qQ
from conftest import hypotrochoid_points


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

    def test_tol_env_override(self, tmp_path, capsys, monkeypatch):
        e = cv.ellipse_samples(2.0, 0.5, 2048)
        p = tmp_path / "e.csv"
        cv.curve_to_csv(e, str(p))
        monkeypatch.setenv("AFFINE_ELASTICA_TOL", "1e-30")
        code, out, _ = run(["verify", str(p), "--closed", "--suite", "el"], capsys)
        assert code == 1  # impossible tolerance: everything fails


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
        ({}, ["classify", "--g2=1e103", "--g3=1"], "g2^3 - 27 g3^2 must be finite"),
        ({}, ["synth", "--g2=-1e90", "--g3=1e-60", "--branch", "open"], "largest real root"),
    ],
    ids=["missing-csv", "missing-config", "short-row", "header-only", "ragged-row", "text-field",
         "no-header", "json-keys", "nan-invariant",
         "ellipse-E-zero", "Da-E-positive", "E-E-negative", "g2-cube-overflows", "huge-negative-g2"],
)
def test_bad_input_exits_2(files, argv, reason, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert reason in err
