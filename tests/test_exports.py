import importlib

import pytest


@pytest.mark.parametrize("module", ["params", "specfun", "switching",
                                    "efficiency", "mbsolver", "strcheck"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"ramanecho.{module}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
