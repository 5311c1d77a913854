import contextlib
import importlib
import io
import pathlib
import re

import pytest

import spatialqkd

MODULES = ("adversary", "alphabet", "cli", "config", "infotheory", "model",
           "optics", "protocol")
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", ("spatialqkd",) + MODULES)
def test_every_exported_name_resolves(name):
    module = spatialqkd if name == "spatialqkd" \
        else importlib.import_module(f"spatialqkd.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, str(README), "exec"), {})
