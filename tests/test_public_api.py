"""Every public name of each module resolves and has a caller outside the
tests, so no export is left stale, every private helper has a caller in the
package, and each documented input error is raised."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from affine_elastica import curvature as cv
from affine_elastica import elliptic as el
from affine_elastica import synthesis as sy
from affine_elastica._numerics import cumulative_uniform
from affine_elastica.classifier import Branch, classify
from affine_elastica.errors import DomainError, EllipseFitFailed
from oracles import a3_nonperiodicity, curve_from_full_affine_curvature, sextactic_sign_changes, synthesize_arcs


_LIBRARY = ["elliptic", "curvature", "classifier", "synthesis", "fullaffine"]


@pytest.mark.parametrize("name", _LIBRARY)
def test_all_names_resolve(name):
    module = importlib.import_module(f"affine_elastica.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    exec(f"from affine_elastica.{name} import *", {})


@pytest.mark.parametrize("name", _LIBRARY)
def test_all_is_the_public_functions_and_classes(name):
    """Each library module exports exactly its public top-level functions and classes."""
    module = importlib.import_module(f"affine_elastica.{name}")
    public = {node.name for node in ast.parse(Path(module.__file__).read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    assert sorted(module.__all__) == sorted(public)


_ROOT = Path(__file__).resolve().parents[1]
_SOURCES = sorted((_ROOT / "src" / "affine_elastica").glob("*.py"))


def _referenced_names(tree) -> set:
    """Names read or written as a name or an attribute; strings do not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _unreferenced_tops(elsewhere: frozenset = frozenset()) -> set:
    """Names of the package's top-level functions and classes that are
    referenced neither in the package outside their own definition nor in
    ``elsewhere``."""
    tops = [node for path in _SOURCES for node in ast.parse(path.read_text()).body]
    refs = [_referenced_names(node) for node in tops]
    return {
        node.name for k, node in enumerate(tops)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in elsewhere
        and not any(node.name in r for j, r in enumerate(refs) if j != k)
    }


def test_every_public_name_has_a_program_caller():
    """Each public top-level function and class of the package is referenced
    in the package outside its own definition, or in perfbench."""
    perfbench = frozenset().union(*(_referenced_names(ast.parse(path.read_text()))
                                    for path in (_ROOT / "perfbench").glob("*.py")))
    assert {name for name in _unreferenced_tops(perfbench) if not name.startswith("_")} == set()


def test_every_private_helper_has_a_program_caller():
    """Each private top-level function and class of the package is referenced
    in the package outside its own definition, so no dead helper is left."""
    assert {name for name in _unreferenced_tops() if name.startswith("_")} == set()


def test_scipy_is_imported_only_to_resample():
    """scipy appears in the package only as the import that resample_uniform makes on first use."""
    found = []
    for path in _SOURCES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                found += [(path.name, getattr(top, "name", None), m) for m in modules if m.split(".")[0] == "scipy"]
    assert found == [("_numerics.py", "resample_uniform", "scipy.interpolate")]


_T = np.linspace(-1.0, 1.0, 50)
_OPEN_ARC = (_T, _T + _T**2, _T**4)  # kappa = 48 t varies


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: cv.CurveSamples(np.ones((8, 2)), np.arange(8.0), np.arange(8.0)), ValueError, "1-d arrays"),
        (lambda: cv.reparametrize_equiaffine(np.ones((50, 3))), ValueError, r"\(n, 2\) array"),
        (lambda: cv.reparametrize_equiaffine(np.column_stack([_T, _T**2]), t=_T**3), ValueError,
         "parameter grid must be uniform"),
        (lambda: sextactic_sign_changes(cv.CurveSamples(*_OPEN_ARC)), ValueError, "closed curves"),
        (lambda: synthesize_arcs(classify(el.invariants_from_qQ(1.0, 3.0), Branch.closed_branch)),
         ValueError, "zero-minimum family"),
        (lambda: sy.euclidean_display_transform(cv.CurveSamples(*_OPEN_ARC)), EllipseFitFailed,
         "needs a closed curve"),
        (lambda: a3_nonperiodicity(2.0), ValueError, "requires Q > 2"),
        (lambda: sy.closure_lhs_with_d(np.full((2, 2), 3.0)), ValueError, "1-d array"),
        (lambda: curve_from_full_affine_curvature(np.tanh, s_range=(0.5, 1.0)), ValueError,
         "gauge point s = 0"),
        (lambda: cumulative_uniform(np.ones(3), 0.1), ValueError, "at least 4 samples"),
        (lambda: el.Invariants(np.nan, 0.0), DomainError, "got g2=nan, g3=0.0"),
        (lambda: el.Invariants(1e103, 0.0), DomainError, "must be finite, got g2=1e"),  # g2^3 overflows
        (lambda: el.Invariants(0.0, 1e154), DomainError, "must be finite, got g2=0.0"),  # g3^2 overflows
        (lambda: el.Invariants(np.float64(1e103), 0.0), DomainError, "must be finite, got g2=1e"),
        (lambda: el.Invariants(np.ones(2), np.zeros(2)), DomainError, "one lattice"),
    ],
    ids=["curve-2d", "reparametrize-3-columns", "reparametrize-nonuniform-t", "sextactic-open", "arcs-not-A2",
         "display-open", "a3-Q-2", "closure-2d-Q", "full-affine-range-without-0", "cumulative-3-samples",
         "invariants-nonfinite", "invariants-g2-cube-overflows", "invariants-g3-square-overflows",
         "invariants-numpy-g2-overflows", "invariants-batch"],
)
def test_documented_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
