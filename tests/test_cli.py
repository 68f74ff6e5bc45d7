"""Command-line interface: outputs, determinism, exit codes."""

import json
import os
import shlex
import subprocess
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affine_elastica
from affine_elastica import _numerics as nm
from affine_elastica import cli
from affine_elastica import curvature as cv
from affine_elastica import elliptic as el
from affine_elastica import fullaffine as fa
from affine_elastica import synthesis as sy
from affine_elastica.classifier import Branch, classify
from affine_elastica.cli import _conic_points, _svg_polyline, _verify_curve, main
from affine_elastica.elliptic import invariants_from_qQ
from affine_elastica.errors import DomainError
from conftest import (
    convex_support_curve,
    ellipse_samples,
    hypotrochoid_points,
    log_spiral_samples,
    scaled_curve,
    support_curve_points,
    tanh_kappa_F,
)
from oracles import curve_from_full_affine_curvature, full_affine_invariants


@lru_cache(maxsize=None)
def _scaling_curves() -> dict:
    return {
        "closed 3:4": sy.synthesize_closed(sy.solve_closure(3, 4), samples_per_period=400),
        "open B1": sy.synthesize(classify(invariants_from_qQ(0.6, 1.2), Branch.open_branch), n=1500),
        "hypotrochoid": cv.reparametrize_equiaffine(hypotrochoid_points(n=2000), closed=True),
    }


@lru_cache(maxsize=None)
def _full_affine_curves() -> dict:
    """Curves for the full-affine verdicts: name -> (curve, whether it is critical)."""
    perturbed = support_curve_points([(3, 0.002, 0.0), (5, 0.0, 0.001)], n=4000)
    return {
        "perturbed circle": (cv.reparametrize_equiaffine(perturbed, closed=True), False),
        "closed 3:4": (_scaling_curves()["closed 3:4"], False),
        "ellipse": (ellipse_samples(2.0, 0.5, 4096), True),
        "spiral": (log_spiral_samples(0.15, 0.0, 12.0, 4000), True),
        "tanh": (curve_from_full_affine_curvature(tanh_kappa_F, s_range=(-0.7, 0.7), n=6001), True),
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

    def test_from_P_tau(self, capsys):
        code, out, _ = run(["classify", "--P", "1", "--tau", "2", "--branch", "open"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["tag"] == "C1"
        assert payload["params"] == {"P": 1.0, "tau": 2.0}

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

    @pytest.mark.parametrize("how", [["--q", "1", "--Q", "3"], ["--length-constrained"]])
    def test_grid_sets_the_sample_range(self, how, tmp_path, capsys):
        p = tmp_path / "g.csv"
        assert run(["synth", *how, "--grid", "0.5", "1.0", "--csv", str(p)], capsys)[0] == 0
        c = cv.curve_from_csv(str(p))
        assert (c.s[0], c.s[-1]) == (0.5, 1.0)

    def test_length_constrained_samples_from_config(self, tmp_path, capsys):
        cfg, p = tmp_path / "cfg", tmp_path / "lc.csv"
        cfg.write_text("samples = 500\n")
        assert run(["--config", str(cfg), "synth", "--length-constrained", "--csv", str(p)], capsys)[0] == 0
        assert cv.curve_from_csv(str(p)).n == 500

    def test_euclidean_display(self, tmp_path, capsys):
        cfg, p = tmp_path / "cfg", tmp_path / "d.json"
        cfg.write_text("samples = 400\n")
        argv = ["--config", str(cfg), "synth", "--closure", "3", "4", "--euclidean-display", "--json", str(p)]
        assert run(argv, capsys)[0] == 0
        got = cv.curve_from_json(str(p))
        closed = sy.synthesize_closed(sy.solve_closure(3, 4), samples_per_period=400)
        want = sy.euclidean_display_transform(closed)
        assert got.meta["display_normalized"] is True
        assert np.array_equal(got.points(), want.points())

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
        # 1999 samples per period give n = 11994 = 2 * 3 * 1999, whose transforms
        # are batched over the prime 1999 instead of calling np.fft.rfft
        for samples in (400, 1999):
            curve = sy.synthesize_closed(sy.solve_closure(3, 4), samples_per_period=samples)
            _, ok = _verify_curve(curve, "el", 1e-5)
            assert ok
            assert 1 <= len(rfft_calls) <= 3  # x, y and kappa
            assert set(rfft_calls) == {curve.n}
            rfft_calls.clear()

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

    def test_mark_overlays_leave_the_curve_polyline_alone(self, tmp_path, capsys):
        """The view is fitted to the curve alone; overlays past its margin are clipped."""
        curves = []
        for extra in ([], ["--mark", "2000"]):
            p = tmp_path / f"c1{len(extra)}.svg"
            code, _, _ = run(["synth", "--P", "1", "--tau", "2", "--branch", "open", "--svg", str(p), *extra], capsys)
            assert code == 0
            curves.append([line for line in p.read_text().splitlines() if 'class="curve"' in line])
        assert len(curves[0]) == 1 and curves[0] == curves[1]

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


def _count_calls(monkeypatch, module, name) -> list:
    """Record the first argument's length of every call of module.name."""
    calls, f = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(len(a[0])) or f(*a, **k))
    return calls


class TestWorkCounts:
    """Work the CLI does once, counted at the call that does it."""

    def test_marked_closed_synth_transforms_each_signal_once(self, tmp_path, capsys, monkeypatch):
        calls = _count_calls(monkeypatch, nm, "_rfft")
        code, _, _ = run(["synth", "--closure", "3", "4", "--mark", "77", "--svg", str(tmp_path / "c.svg"),
                          "--csv", str(tmp_path / "c.csv"), "--self-check"], capsys)
        assert code == 0
        assert calls == [12000] * 3  # x and y for orders 1-4 (the conic asks first), then kappa

    def test_bare_csv_verify_checks_the_grid_once(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "a1.csv"
        assert run(["synth", "--q", "1", "--Q", "3.0", "--branch", "closed", "--csv", str(p)], capsys)[0] == 0
        calls = _count_calls(monkeypatch, np, "allclose")
        assert run(["verify", str(p), "--suite", "el"], capsys)[0] == 0
        assert len(calls) == 1  # the file's own curve; its five probes share its checked arrays

    def test_suite_all_fits_the_free_model_once_per_probe(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "a1.csv"
        assert run(["synth", "--q", "1", "--Q", "3.0", "--branch", "closed", "--csv", str(p)], capsys)[0] == 0
        calls = _count_calls(monkeypatch, np.linalg, "lstsq")
        run(["verify", str(p), "--suite", "all"], capsys)
        # per probe of 5: the free fit once (sqrt_el_residual and full_affine share it),
        # the 3 constrained fits and the area-and-length EL fit
        assert len(calls) == 5 * (1 + 3 + 1)


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

    @pytest.mark.parametrize("lam", [1.0, 1e4])
    def test_sqrt_verdict_scale_free_on_a_failing_curve(self, lam):
        """The 3:4 curve is not critical for full-affine length at any scale:
        kappa_F, which is dimensionless, misses A x + B y + C by 0.40 at both."""
        report, ok = _verify_curve(scaled_curve(_scaling_curves()["closed 3:4"], lam), "sqrt", 1e-5)
        assert not ok
        assert report["checks"]["sqrt_el_residual"]["value"] > 0.1  # 0.40

    @pytest.mark.parametrize("lam", [1e-2, 1e-1, 1.0, 1e1, 1e2])
    def test_sqrt_verdict_scale_free_on_the_ellipse(self, lam):
        report, ok = _verify_curve(scaled_curve(ellipse_samples(2.0, 0.5, 4096), lam), "sqrt", 1e-5)
        assert ok
        assert report["checks"]["sqrt_el_residual"]["value"] < 1e-10  # 1.0e-14 to 1.2e-14

    @pytest.mark.parametrize("lam", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("name", ["perturbed circle", "closed 3:4", "ellipse", "spiral", "tanh"])
    def test_full_affine_verdicts_scale_free(self, name, lam):
        """Points scaled by lam^(3/2) and s by lam: the verdicts of sqrt and
        fullaffine and critical_for stay, and so does each fit rms of a curve
        that is not critical (0.32 and 0.40); a critical curve's rms is
        rounding noise below 1e-6."""
        curve, critical = _full_affine_curves()[name]
        scaled = scaled_curve(curve, lam)
        for suite, check in (("sqrt", "sqrt_el_residual"), ("fullaffine", "full_affine")):
            (base, _), (got, ok) = _verify_curve(curve, suite, 1e-5), _verify_curve(scaled, suite, 1e-5)
            base, got = base["checks"][check], got["checks"][check]
            assert ok == got["pass"] == base["pass"] == critical, suite
            if critical:
                assert got["value"] < 1e-6, suite
            else:
                assert got["value"] == pytest.approx(base["value"], rel=1e-3), suite
        assert got["critical_for"] == base["critical_for"] == (list(cli._FULL_AFFINE_FUNCTIONALS) if critical else [])

    @pytest.mark.parametrize("n", [3000, 5003])
    def test_finely_sampled_conic_arc_passes(self, n, tmp_path, capsys):
        """The ellipse (2 cos s, 0.5 sin s), s in [0, 4], through CSV.  The
        differential form, kappa_F''' four filtered orders deep, failed it at
        5003 samples (2.3e-5); kappa_F's fit reads 3.5e-11 and 1.3e-10."""
        s = np.linspace(0.0, 4.0, n)
        p = tmp_path / "arc.csv"
        cv.curve_to_csv(cv.CurveSamples(s, 2.0 * np.cos(s), 0.5 * np.sin(s)), str(p))
        for suite, check in (("sqrt", "sqrt_el_residual"), ("fullaffine", "full_affine")):
            code, out, _ = run(["verify", str(p), "--suite", suite], capsys)
            assert code == 0, suite
            assert json.loads(out)["checks"][check]["value"] < 1e-9

    def test_closed_full_affine_total_wraps(self):
        """Over one period the total full-affine curvature, the periodic sum
        h sum(kappa_F sqrt(kappa)), vanishes: 1.5e-16 on this curve; one-sided
        ends at the seam read 1.7e-8.  The identity holds on every closed
        convex curve, so verify does not check it."""
        curve = cv.reparametrize_equiaffine(convex_support_curve(np.random.default_rng(0)), closed=True)
        kappa_F = full_affine_invariants(curve).kappa_F
        total = curve.h * np.sum(kappa_F * np.sqrt(cv.frame_and_curvature(curve).kappa))
        assert abs(total) < 1e-12

    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    def test_all_suite_fails_a_nonconvex_arc(self, flag, tmp_path, capsys):
        """`all` claims criticality for the full-affine functional too, which
        a B1 arc, whose curvature changes sign, cannot have; closure_gap_rel
        stays excused on the open arc."""
        p = tmp_path / f"b1.{flag[2:]}"
        assert run(["synth", "--q", "0.6", "--Q", "1.2", "--branch", "open", flag, str(p)], capsys)[0] == 0
        code, out, _ = run(["verify", str(p), "--suite", "all"], capsys)
        checks = json.loads(out)["checks"]
        assert code == 1
        assert {name: chk["pass"] for name, chk in checks.items()} == {
            "el_residual": True, "unimodularity": True, "sqrt_el_residual": False,
            "closure_gap_rel": True, "full_affine": False}
        assert checks["closure_gap_rel"]["value"] == "open curve"

    def test_full_affine_suites_fail_an_arc_with_nonpositive_ends(self, tmp_path, capsys):
        """A C1 arc cut to samples 773..3226 has kappa > 0 from 793 to 3206,
        on its trusted interior but not at its ends.  kappa_F is taken on the
        interior only, and the arc is critical for no full-affine functional:
        every suite that takes kappa_F fails with a number (sqrt_el_residual
        0.81, full_affine 0.30), strict JSON and no warning."""
        p, cut = tmp_path / "c1.csv", tmp_path / "cut.csv"
        assert run(["synth", "--P", "1", "--tau", "2", "--branch", "open", "--csv", str(p)], capsys)[0] == 0
        rows = p.read_text().splitlines(keepends=True)
        cut.write_text(rows[0] + "".join(rows[1 + 773 : 1 + 3227]))

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        for suite, check in (("sqrt", "sqrt_el_residual"), ("fullaffine", "full_affine"), ("all", "sqrt_el_residual")):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                code, out, err = run(["verify", str(cut), "--suite", suite], capsys)
            assert (code, err, seen) == (1, "", []), suite
            got = json.loads(out, parse_constant=reject)["checks"][check]
            assert got["value"] > 0.1 and not got["pass"], suite

    @pytest.mark.parametrize("suite,calls", [("el", 17), ("sqrt", 15), ("fullaffine", 15), ("all", 17)])
    def test_suites_share_the_probe_curves(self, suite, calls, tmp_path, capsys, monkeypatch):
        """A bare open arc is probed at 5 filter windows.  el differentiates x,
        y and kappa of each probe and x, y of the curve (unimodularity); sqrt
        and fullaffine x, y and kappa of each probe, whose kappa' both fits of
        kappa_F read; all differentiates each probe once for every residual."""
        p = tmp_path / "a1.csv"
        argv = ["synth", "--q", "0.6", "--Q", "1.2", "--branch", "closed", "--csv", str(p)]
        assert run(argv, capsys)[0] == 0
        seen = []

        def counted(*args, _diff=cv.diff_samples, **kwargs):
            seen.append(args)
            return _diff(*args, **kwargs)

        monkeypatch.setattr(cv, "diff_samples", counted)
        _verify_curve(cv.curve_from_csv(str(p)), suite, 1e-5)
        assert len(seen) == calls

    def test_ellipse_all_suites(self, tmp_path, capsys):
        e = ellipse_samples(2.0, 0.5, 4096)
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

    def test_closure_stdout_is_the_csv_file(self, tmp_path, capsys):
        """12,000 rows, six blocks of the CSV writer; the file reads back bit for bit."""
        p = tmp_path / "c34.csv"
        code, out, _ = run(["synth", "--closure", "3", "4"], capsys)
        assert code == 0 and run(["synth", "--closure", "3", "4", "--csv", str(p)], capsys)[0] == 0
        assert p.read_bytes() == out.encode()
        want = sy.synthesize_closed(sy.solve_closure(3, 4), samples_per_period=2000)
        got = cv.curve_from_csv(str(p), closed=True)
        assert got.n == 12000 and np.array_equal(got.s, want.s) and np.array_equal(got.points(), want.points())

    def test_closure_suite_sees_a_curve_that_stops_short(self, tmp_path, capsys):
        p = tmp_path / "c34.csv"
        assert run(["synth", "--closure", "3", "4", "--csv", str(p)], capsys)[0] == 0
        rows = p.read_text().splitlines(keepends=True)
        for drop, code in ((0, 0), (1, 1), (8, 1)):
            short = tmp_path / f"short{drop}.csv"
            short.write_text("".join(rows[: len(rows) - drop]))
            assert run(["verify", str(short), "--closed", "--suite", "closure"], capsys)[0] == code, drop

    def test_tol_env_override(self, tmp_path, capsys, monkeypatch):
        e = ellipse_samples(2.0, 0.5, 2048)
        p = tmp_path / "e.csv"
        cv.curve_to_csv(e, str(p))
        monkeypatch.setenv("AFFINE_ELASTICA_TOL", "1e-30")
        code, out, _ = run(["verify", str(p), "--closed", "--suite", "el"], capsys)
        assert code == 1  # impossible tolerance: everything fails

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "abc"])
    def test_tol_env_must_be_finite_and_positive(self, tol, tmp_path, capsys, monkeypatch):
        # a passing curve: nan and -1 used to fail it (exit 1), inf to pass it
        # with "tol": Infinity, which is not JSON
        p = tmp_path / "e.csv"
        cv.curve_to_csv(ellipse_samples(2.0, 0.5, 2048), str(p))
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

    def test_zero_steps_prints_the_header_only(self, capsys):
        assert run(["scan-closure", "--steps", "0"], capsys) == (0, "Q,lhs,d\n", "")

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
        e = ellipse_samples(1.0, 1.0, 2048)
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
    "s-object": (("false", "null", '{"a": 1}'), "arrays of numbers; s is not"),
    "s-null-entry": (("false", "null", "[0, 1, 2, null, 4, 5, 6, 7]"), "arrays of numbers; s is not"),
}


#: meta.fd_window values that filter_window never writes
_BAD_WINDOWS = ("2.5", "[3]", "0", "1", "true", "2", "3", "null", "99", "403", "202")


@pytest.mark.parametrize(
    "files,argv,reason",
    [
        ({}, ["verify", "{tmp}/missing.csv"], "No such file"),
        ({}, ["--config", "{tmp}/missing.cfg", "classify", "--g2", "0", "--g3", "-1"], "No such file"),
        # comment and blank lines are skipped, but still counted
        ({"c.cfg": "# tolerances\n\ntol = 1e-4  # looser\nsamples 64\n"},
         ["--config", "{tmp}/c.cfg", "classify", "--g2", "0", "--g3", "-1"], "config line 4: expected key = value"),
        ({"short.csv": "s,x,y\n0,0\n1,1\n"}, ["verify", "{tmp}/short.csv"], "3 columns"),
        ({"empty.csv": "s,x,y\n"}, ["verify", "{tmp}/empty.csv"], "3 columns"),
        ({"ragged.csv": "s,x,y\n0,0,0\n1,1\n"}, ["verify", "{tmp}/ragged.csv"], "3 columns"),
        ({"text.csv": "s,x,y\n0,a,0\n"}, ["verify", "{tmp}/text.csv"], "3 columns"),
        ({"noheader.csv": "0,0,0\n"}, ["verify", "{tmp}/noheader.csv"], "header s,x,y"),
        ({"flat.csv": "s,x,y\n" + "".join(f"0,{k},{k * k}\n" for k in range(8))},
         ["verify", "{tmp}/flat.csv"], "s grid must be uniform with a positive step"),
        ({"down.csv": "s,x,y\n" + "".join(f"{-k},{k},{k * k}\n" for k in range(8))},
         ["verify", "{tmp}/down.csv", "--closed"], "s grid must be uniform with a positive step"),
        ({"nan.csv": "s,x,y\n" + "".join(f"{k},{k},nan\n" for k in range(8))},
         ["verify", "{tmp}/nan.csv"], "non-finite samples"),
        ({"short-s.json": _json_curve(s=str(list(range(7))))}, ["verify", "{tmp}/short-s.json"], "equal length"),
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
        ({}, ["synth", "--closure", "3", "4", "--grid", "0", "1"], "--grid does not apply to --closure"),
        ({}, ["synth", "--case", "A1"], "generic tags need invariants"),
        *(({"s.cfg": f"samples = {k}\n"}, ["--config", "{tmp}/s.cfg", "synth", *how],
           "at least 7 samples" if k else "config line 1: samples must be a positive integer, got 0")
          for how in (["--q", "1", "--Q", "3"], ["--closure", "3", "4"]) for k in (0, 1)),
        *(({"s.cfg": f"samples = {k}\n"}, ["--config", "{tmp}/s.cfg", "synth", "--closure", "3", "4"],
           f"config line 1: samples must be a positive integer, got {k}") for k in ("-3", "2.5", "1e3")),
        # 8 samples clear the curve minimum, 1 per kappa-period does not
        ({"s.cfg": "samples = 1\n"}, ["--config", "{tmp}/s.cfg", "synth", "--closure", "4", "5"],
         "at least 2 samples per period"),
        *(({"w.json": _json_curve(f'{{"fd_window": {w}}}')}, ["verify", "{tmp}/w.json"],
           "fd_window must be an odd integer") for w in _BAD_WINDOWS),
        ({"m.json": _json_curve("[]")}, ["verify", "{tmp}/m.json"], "meta to be a JSON object"),
        *(({"f.json": _json_curve("{}", closed, period, s)},
           ["verify", "{tmp}/f.json", "--suite", "closure"], reason)
          for (closed, period, s), reason in _BAD_JSON_FIELDS.values()),
        *(({"c.cfg": f"{key} = {val}\n"}, ["--config", "{tmp}/c.cfg", "classify", "--g2", "0", "--g3", "-1"],
           f"config line 1: {key} must be finite and positive")
          for key in ("tol", "svg_size") for val in ("nan", "-1", "0", "inf", "abc", "")),
        ({}, ["scan-closure", "--qmax", "inf"], "--qmax must be finite and positive"),
        ({}, ["scan-closure", "--qmin", "nan"], "--qmin must be finite and positive"),
        ({}, ["scan-closure", "--qmin", "-2", "--qmax", "2"], "--qmin must be finite and positive"),
        ({}, ["scan-closure", "--steps", "-2"], "--steps must be at least 0"),
        ({}, ["scan-closure", "--qmin", "1.0000000001", "--qmax", "1.001", "--steps", "2"], "degenerate"),
        *(({}, ["table", "--pairs", pairs], "--pairs needs M:N[,M:N...]") for pairs in ("3", "3:x", "")),
    ],
    ids=["missing-csv", "missing-config", "config-no-equals", "short-row", "header-only", "ragged-row",
         "text-field", "no-header", "s-constant", "s-decreasing", "y-nan", "s-shorter-than-x", "json-keys",
         "nan-invariant",
         "ellipse-E-zero", "Da-E-positive", "E-E-negative",
         "E-E-overflows", "ellipse-E-overflows", "Dc-E-overflows", "g2-cube-overflows",
         "table-zero-pair", "closure-zero-pair", "grid-empty", "grid-zero", "grid-reversed",
         "closure-grid", "generic-tag-without-invariants",
         "samples-0-open", "samples-1-open", "samples-0-closed", "samples-1-closed",
         "samples-negative", "samples-fraction", "samples-exponent", "samples-1-per-period",
         *(f"fd-window-{w}" for w in _BAD_WINDOWS), "meta-not-object", *_BAD_JSON_FIELDS,
         *(f"config-{key}-{val or 'empty'}" for key in ("tol", "svg_size")
           for val in ("nan", "-1", "0", "inf", "abc", "")),
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


def test_cli_loads_no_scipy(tmp_path):
    """Every subcommand, closed self-checks (one at a length whose transforms
    are batched over a large prime, with the marked overlays) and every verify
    suite on an open arc's CSV and JSON run without importing scipy or numpy.ma."""
    src = os.path.dirname(os.path.dirname(affine_elastica.__file__))
    csv, js = str(tmp_path / "b1.csv"), str(tmp_path / "b1.json")
    cfg, svg = tmp_path / "cfg", str(tmp_path / "m.svg")
    cfg.write_text("samples = 1999\n")  # n = 2 * 11 * 1999
    runs = [
        ["classify", "--q", "1", "--Q", "3.940854279"],
        ["table"],
        ["scan-closure", "--steps", "5"],
        ["synth", "--closure", "3", "4", "--self-check"],
        ["--config", str(cfg), "synth", "--closure", "11", "14", "--self-check", "--mark", "5", "--svg", svg],
        ["synth", "--q", "0.6", "--Q", "1.2", "--branch", "open", "--csv", csv, "--json", js],
        ["verify", csv, "--suite", "all"],
        ["verify", js, "--suite", "all"],
    ]
    code = (
        "import io, sys, contextlib\n"
        "from affine_elastica.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rcs = [main(argv) for argv in {runs!r}]\n"
        "print(rcs, sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    # the B1 arc's curvature changes sign, so `all` fails it
    assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0, 1, 1] []"


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


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    """Every command of the README's CLI block exits 0, run in order in an empty directory."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("affine-elastica ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(shlex.split(line)[1:], capsys)[0] == 0, line
