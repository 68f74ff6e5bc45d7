"""Every public name of each module resolves, so no export is left stale."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["elliptic", "curvature", "classifier", "synthesis", "fullaffine"])
def test_all_names_resolve(name):
    module = importlib.import_module(f"affine_elastica.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    exec(f"from affine_elastica.{name} import *", {})
