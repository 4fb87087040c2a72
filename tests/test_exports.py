import importlib

import pytest

import nsflow


@pytest.mark.parametrize("module", ["core", "bderiv", "sampled", "flow", "errors"])
def test_module_exports_are_package_exports(module):
    mod = importlib.import_module(f"nsflow.{module}")
    assert [name for name in mod.__all__ if name not in nsflow.__all__] == []
    for name in mod.__all__:
        assert getattr(nsflow, name) is getattr(mod, name)


def test_package_exports_resolve():
    for name in nsflow.__all__:
        assert hasattr(nsflow, name), name
