"""Every public name of each module resolves, so no export is left stale, and
each documented input error is raised."""

import importlib

import numpy as np
import pytest

from affine_elastica import curvature as cv
from affine_elastica import elliptic as el
from affine_elastica import fullaffine as fa
from affine_elastica import synthesis as sy
from affine_elastica._numerics import cumulative_uniform
from affine_elastica.classifier import Branch, classify
from affine_elastica.errors import DomainError, EllipseFitFailed


@pytest.mark.parametrize("name", ["elliptic", "curvature", "classifier", "synthesis", "fullaffine"])
def test_all_names_resolve(name):
    module = importlib.import_module(f"affine_elastica.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    exec(f"from affine_elastica.{name} import *", {})


_T = np.linspace(-1.0, 1.0, 50)
_OPEN_ARC = (_T, _T + _T**2, _T**4)  # kappa = 48 t varies


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: cv.CurveSamples(np.ones((8, 2)), np.arange(8.0), np.arange(8.0)), ValueError, "1-d arrays"),
        (lambda: cv.reparametrize_equiaffine(np.ones((50, 3))), ValueError, r"\(n, 2\) array"),
        (lambda: cv.reparametrize_equiaffine(np.column_stack([_T, _T**2]), t=_T**3), ValueError,
         "parameter grid must be uniform"),
        (lambda: cv.sextactic_sign_changes(cv.CurveSamples(*_OPEN_ARC)), ValueError, "closed curves"),
        (lambda: sy.synthesize_arcs(classify(el.invariants_from_qQ(1.0, 3.0), Branch.closed_branch)),
         ValueError, "zero-minimum family"),
        (lambda: sy.euclidean_display_transform(cv.CurveSamples(*_OPEN_ARC)), EllipseFitFailed,
         "needs a closed curve"),
        (lambda: sy.a3_nonperiodicity(2.0), ValueError, "requires Q > 2"),
        (lambda: sy.closure_lhs_with_d(np.full((2, 2), 3.0)), ValueError, "1-d array"),
        (lambda: fa.curve_from_full_affine_curvature(np.tanh, s_range=(0.5, 1.0)), ValueError,
         "gauge point s = 0"),
        (lambda: cumulative_uniform(np.ones(3), 0.1), ValueError, "at least 4 samples"),
        (lambda: el.Invariants(np.array([1.0, 2.0, np.nan, np.inf]), np.zeros(4)), DomainError,
         "got g2=nan, g3=0.0"),
    ],
    ids=["curve-2d", "reparametrize-3-columns", "reparametrize-nonuniform-t", "sextactic-open", "arcs-not-A2",
         "display-open", "a3-Q-2", "closure-2d-Q", "full-affine-range-without-0", "cumulative-3-samples",
         "invariants-batch-nonfinite"],
)
def test_documented_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
