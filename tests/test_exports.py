import importlib

import pytest

import spatialqkd

MODULES = ("adversary", "alphabet", "cli", "config", "infotheory", "model",
           "optics", "protocol")


@pytest.mark.parametrize("name", ("spatialqkd",) + MODULES)
def test_every_exported_name_resolves(name):
    module = spatialqkd if name == "spatialqkd" \
        else importlib.import_module(f"spatialqkd.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
