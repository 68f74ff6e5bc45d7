"""Case taxonomy assignment and normal-form rescaling."""

import numpy as np
import pytest

from affine_elastica.classifier import Branch, Case, classify
from affine_elastica.elliptic import (
    Invariants,
    cubic_roots,
    half_periods,
    invariants_from_Ptau,
    invariants_from_qQ,
)
from affine_elastica.errors import BranchUnavailable, DegenerateDiscriminant
from oracles import rescale_to_normal_form


@pytest.mark.parametrize(
    "q,Q,branch,tag",
    [
        (1.0, 3.940854279, Branch.closed_branch, Case.A1),
        (0.0, 1.0, Branch.closed_branch, Case.A2),
        (-1.0, 6.0, Branch.closed_branch, Case.A3),
        (0.3, 0.7, Branch.open_branch, Case.B1),
        (0.0, 1.0, Branch.open_branch, Case.B2),
        (-0.5, 1.5, Branch.open_branch, Case.B3),
    ],
)
def test_positive_discriminant_tags(q, Q, branch, tag):
    label = classify(invariants_from_qQ(q, Q), branch)
    assert label.tag is tag
    assert label.params["q"] == pytest.approx(q, abs=1e-9)
    assert label.params["Q"] == pytest.approx(Q, abs=1e-9)


@pytest.mark.parametrize(
    "P,tau,tag",
    [
        (1.0, 2.0, Case.C1),
        (1.0, 0.3, Case.C2),
        (0.0, 1.0, Case.C3),
        (-1.0, 8.0, Case.C4),
        (-1.0, 0.125, Case.C5),
        (2.5, 4.0, Case.C1),
        (-0.5, 0.05, Case.C5),
    ],
)
def test_negative_discriminant_tags(P, tau, tag):
    label = classify(invariants_from_Ptau(P, tau))
    assert label.tag is tag
    assert label.params["P"] == pytest.approx(P, abs=1e-9)
    assert label.params["tau"] == pytest.approx(tau, abs=1e-9)


def test_c_subcase_boundary_matches_g2_sign():
    # for P = 1 the tau = sqrt(3)/2 boundary is exactly g2 = 0
    eps = 1e-3
    assert classify(invariants_from_Ptau(1.0, np.sqrt(3) / 2 + eps)).tag is Case.C1
    assert classify(invariants_from_Ptau(1.0, np.sqrt(3) / 2 - eps)).tag is Case.C2


def test_degenerate_and_zero_g2_tags():
    assert classify(Invariants(0.0, -1.0)).tag is Case.F
    assert classify(Invariants(0.0, 0.0)).tag is Case.G
    E = -0.5
    assert classify(Invariants(3 * E * E, E**3), Branch.open_branch).tag is Case.Da
    assert classify(Invariants(3 * E * E, E**3), Branch.closed_branch).tag is Case.Dc
    E = 0.5
    assert classify(Invariants(3 * E * E, E**3), Branch.open_branch).tag is Case.E_case
    assert classify(Invariants(3 * E * E, E**3), Branch.closed_branch).tag is Case.Ellipse
    assert classify(Invariants(3 * E * E, E**3)).params["E"] == pytest.approx(E)


def test_length_constrained_invariants_classify_generically():
    label = classify(Invariants(1.0 / 12.0, -0.15))
    assert label.tag is Case.C2  # negative discriminant, P > 0, g2 > 0
    assert "P" in label.params and "tau" in label.params


def test_closed_branch_unavailable_for_negative_discriminant():
    with pytest.raises(BranchUnavailable):
        classify(invariants_from_Ptau(1.0, 2.0), Branch.closed_branch)


def test_exact_zero_q_from_construction():
    label = classify(invariants_from_qQ(0.0, 2.5), Branch.closed_branch)
    assert label.tag is Case.A2
    assert label.params["q"] == 0.0


class TestRescale:
    def test_a1(self):
        inv = invariants_from_qQ(4.0, 9.0)
        label = classify(inv, Branch.closed_branch)
        lam, norm = rescale_to_normal_form(label)
        assert lam == pytest.approx(0.5, abs=1e-12)
        assert norm.tag is Case.A1
        assert norm.params["q"] == pytest.approx(1.0, abs=1e-9)
        assert norm.params["Q"] == pytest.approx(9.0 / 4.0, abs=1e-9)

    def test_a3(self):
        inv = invariants_from_qQ(-2.0, 5.0)
        label = classify(inv, Branch.closed_branch)
        lam, norm = rescale_to_normal_form(label)
        assert norm.params["q"] == pytest.approx(-1.0, abs=1e-9)

    def test_b_maximum_curvature(self):
        inv = invariants_from_qQ(0.3, 0.7)
        label = classify(inv, Branch.open_branch)
        lam, norm = rescale_to_normal_form(label)
        assert norm.params["P"] == pytest.approx(-1.0, abs=1e-9)
        assert -1.0 < norm.params["q"] < 0.5

    def test_c_tau_rescaling_parameter(self):
        inv = invariants_from_Ptau(0.0, 5.0)
        label = classify(inv)
        lam, norm = rescale_to_normal_form(label)
        assert norm.tag is Case.C3
        assert norm.params["tau"] == pytest.approx(1.0, abs=1e-9)

    def test_c_generic(self):
        inv = invariants_from_Ptau(-2.0, 5.0)
        label = classify(inv)
        lam, norm = rescale_to_normal_form(label)
        assert norm.params["P"] == pytest.approx(-1.0, abs=1e-9)
        assert norm.params["tau"] == pytest.approx(2.5, abs=1e-9)

    def test_g_scale_free(self):
        label = classify(Invariants(0.0, 0.0))
        lam, norm = rescale_to_normal_form(label)
        assert lam == 1.0
        assert norm.tag is Case.G

    def test_f_normalizes_g3(self):
        inv = Invariants(0.0, -8.0)
        label = classify(inv)
        lam, norm = rescale_to_normal_form(label)
        assert norm.params["g3"] == pytest.approx(-1.0, abs=1e-9)

    def test_idempotent_on_labels(self):
        for inv, branch in [
            (invariants_from_qQ(2.0, 7.0), Branch.closed_branch),
            (invariants_from_Ptau(3.0, 1.0), Branch.open_branch),
            (Invariants(0.0, 5.0), Branch.open_branch),
        ]:
            label = classify(inv, branch)
            lam, norm = rescale_to_normal_form(label)
            lam2, norm2 = rescale_to_normal_form(norm)
            assert norm2.tag is norm.tag
            assert lam2 == pytest.approx(1.0, abs=1e-9)


class TestRoundTripProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    qs = st.floats(min_value=-3.0, max_value=3.0)
    gaps = st.floats(min_value=0.05, max_value=6.0)
    Ps = st.floats(min_value=-3.0, max_value=3.0)
    taus = st.floats(min_value=0.05, max_value=5.0)

    @settings(max_examples=40, deadline=None)
    @given(q=qs, gap=gaps, branch=st.sampled_from([Branch.closed_branch, Branch.open_branch]))
    def test_qQ_roundtrip(self, q, gap, branch):
        Q = q + gap
        # (q, Q) are recoverable only when they are the two rightmost
        # curvature intersections, i.e. the third root -(q+Q) lies left of q
        if 2.0 * q + Q <= 1e-6:
            return
        inv = invariants_from_qQ(q, Q)
        if inv.is_degenerate:
            return
        label = classify(inv, branch)
        assert label.params["q"] == pytest.approx(q, abs=1e-9 * max(1.0, abs(Q)))
        assert label.params["Q"] == pytest.approx(Q, abs=1e-9 * max(1.0, abs(Q)))

    @settings(max_examples=40, deadline=None)
    @given(P=Ps, tau=taus)
    def test_Ptau_roundtrip(self, P, tau):
        inv = invariants_from_Ptau(P, tau)
        if inv.is_degenerate or abs(inv.g2) < 1e-8:
            return
        label = classify(inv)
        scale = max(1.0, abs(P), tau)
        assert label.params["P"] == pytest.approx(P, abs=1e-9 * scale)
        assert label.params["tau"] == pytest.approx(tau, abs=1e-9 * scale)

    @settings(max_examples=80, deadline=None)
    @given(inv=st.one_of(st.builds(lambda q, gap: invariants_from_qQ(q, q + gap), qs, gaps),
                         st.builds(invariants_from_Ptau, Ps, taus)))
    def test_cubic_roots_order(self, inv):
        """One root order for the package: the order of LatticeData.roots."""
        if inv.is_degenerate:
            return
        e = cubic_roots(inv.g2, inv.g3)
        if inv.discriminant > 0.0:
            assert np.all(e.imag == 0.0) and e[0].real >= e[1].real >= e[2].real
        else:
            assert e[1].imag == 0.0 and e[0].imag > 0.0 and e[2] == e[0].conjugate()
            assert e[0].real == -0.5 * e[1].real
        assert half_periods(inv).roots == tuple(e)

    nonzero = st.floats(min_value=-3.0, max_value=3.0).filter(lambda x: abs(x) >= 1e-3)
    lattices = st.one_of(
        st.tuples(nonzero, nonzero),
        nonzero.map(lambda E: (3.0 * E * E, E**3)),  # vanishing discriminant
        nonzero.map(lambda g3: (0.0, g3)),  # F
        nonzero.map(lambda g2: (g2, 0.0)),  # q = 0 (A2 / B2) or P = 0 (C3)
        st.just((0.0, 0.0)),  # G
    )
    branches = st.sampled_from([Branch.closed_branch, Branch.open_branch])
    log_lam2s = st.floats(min_value=-4.0, max_value=4.0)

    @settings(max_examples=80, deadline=None)
    @given(g=lattices, branch=branches, log_lam2=log_lam2s)
    def test_tag_scale_free(self, g, branch, log_lam2):
        def tag(g2, g3):
            try:
                return classify(Invariants(g2, g3), branch).tag
            except BranchUnavailable:
                return None

        lam2 = 10.0**log_lam2
        assert tag(lam2**2 * g[0], lam2**3 * g[1]) is tag(*g)

    @settings(max_examples=80, deadline=None)
    @given(g=lattices, branch=branches, log_lam2=log_lam2s)
    def test_normal_form_scale_free(self, g, branch, log_lam2):
        """(lam^4 g2, lam^6 g3) has the same normal form, reached by 1/lam
        times the original's factor."""
        def normal_form(g2, g3):
            inv = Invariants(g2, g3)
            try:
                return rescale_to_normal_form(classify(inv, branch))
            except (BranchUnavailable, DegenerateDiscriminant) as ex:
                return type(ex)

        lam2 = 10.0**log_lam2
        base, got = normal_form(*g), normal_form(lam2**2 * g[0], lam2**3 * g[1])
        if isinstance(base, type):
            assert got is base
            return
        assert got[1].tag is base[1].tag
        if got[1].tag is not Case.G:  # (0, 0) is its own scaling, and its factor is 1
            assert got[0] == pytest.approx(base[0] / np.sqrt(lam2), rel=1e-9)
        assert got[1].params == pytest.approx(base[1].params, rel=1e-9, abs=1e-9)
        assert (got[1].g2, got[1].g3) == pytest.approx((base[1].g2, base[1].g3), rel=1e-9, abs=1e-9)


def test_label_json():
    import json

    label = classify(Invariants(0.0, -1.0))
    payload = json.loads(label.to_json())
    assert payload["tag"] == "F"
    assert payload["discriminant"] == -27.0
