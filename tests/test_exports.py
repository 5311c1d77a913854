import contextlib
import importlib
import io
import pathlib
import re

import numpy as np
import pytest

import spatialqkd
from _oracles import csv_text_reference
from spatialqkd._csv import BLOCK, FLAG_FIELDS, code_fields, row_blocks, write_csv

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


@pytest.mark.parametrize("n", (0, BLOCK + 1))
def test_write_csv_matches_per_field_join(tmp_path, n):
    """One ``%`` pass per block writes what per-field strings joined per row
    wrote: round indices, code fields with the empty field at -1 and the
    label ``#62``, floats at the ends of the double range, and flags both
    as ``%d`` of a bool and as ``%s`` of :data:`FLAG_FIELDS`."""
    rng = np.random.default_rng(62)
    names = ("a", "#62", "F")
    codes = rng.integers(-1, len(names), n)
    values = np.concatenate([[0.0, -0.0, 5e-324, 1e-300, 1e300],
                             rng.standard_normal(n) * 1e-3])[:n]
    flags = rng.random(n) < 0.5
    header = ("round", "char", "value", "flag", "flag_field")
    path = tmp_path / "table.csv"
    write_csv(path, header, "%d,%s,%.12e,%d,%s\n",
              ((b, code_fields(names)[codes[b]], values[b], flags[b],
                FLAG_FIELDS[flags[b].view(np.int8)]) for b in row_blocks(n)))
    flag_text = ["1" if f else "0" for f in flags.tolist()]
    expected = csv_text_reference(header, [(
        [str(i) for i in range(n)],
        [names[c] if c >= 0 else "" for c in codes.tolist()],
        ["%.12e" % v for v in values.tolist()], flag_text, flag_text)])
    got = path.read_text("ascii").splitlines()
    # The first differing row, rather than a diff of two long texts.
    assert next(((g, w) for g, w in zip(got, expected.splitlines())
                 if g != w), None) is None
    assert len(got) == n + 1
    if n:
        assert ",-0.000000000000e+00," in expected
        assert ",4.940656458412e-324," in expected
        assert ",#62," in expected and ",," in expected
