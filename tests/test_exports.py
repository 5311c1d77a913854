import contextlib
import importlib
import io
import pathlib
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import spatialqkd
from _oracles import csv_text_reference
from spatialqkd import _csv
from spatialqkd._csv import BLOCK, FLAG_FIELDS, code_fields, row_blocks, write_csv
from spatialqkd.optics import IntensityMap

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


@pytest.mark.parametrize("n", (0, 1, BLOCK, BLOCK + 1))
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
    if n > 1:
        assert ",-0.000000000000e+00," in expected
        assert ",4.940656458412e-324," in expected
        assert ",#62," in expected and ",," in expected


def _rendered(path, row_format: str, *columns) -> tuple[str, str]:
    """What ``write_csv`` writes for one block, and what Python's ``%``
    writes row by row for the same values."""
    write_csv(path, ("x",) * len(columns), row_format, [columns])
    expected = "".join(row_format % row
                       for row in zip(*(c.tolist() for c in columns)))
    return path.read_text("ascii").split("\n", 1)[1], expected


def _first_difference(got: str, expected: str):
    return next(((g, w) for g, w in zip(got.splitlines(), expected.splitlines())
                 if g != w), None)


# Any double: a random bit pattern (subnormals, nan payloads), or a float
# that hypothesis draws (edges, ties, small integers, +-0.0, +-inf).
_DOUBLES = st.one_of(
    st.integers(-2 ** 63, 2 ** 63 - 1).map(
        lambda bits: float(np.int64(bits).view(np.float64))),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=_DOUBLES),
    arrays(np.int64, n, elements=st.integers(-2 ** 63, 2 ** 63 - 1)),
    arrays(np.bool_, n))))
def test_fields_match_percent(tmp_path, columns):
    """Floats, integers and flags are written as Python's ``%`` writes them."""
    x, ints, flags = columns
    got, expected = _rendered(tmp_path / "t.csv", "%.12e,%.6f,%d,%d\n",
                              x, x, ints, flags)
    assert _first_difference(got, expected) is None
    assert got == expected


def _decade_edges() -> np.ndarray:
    """Powers of ten, their neighbouring doubles, and values just below
    them that ``%.12e`` (4e-14 relative) or ``%.6f`` (4e-7 absolute) rounds
    up to the power."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf),
                           powers * (1 - 4e-14), powers - 4e-7])


@pytest.mark.parametrize("row_format, values", [
    ("%.12e\n", [1234567890123.5, -1234567890124.5, 0.0, -0.0]),
    ("%.6f\n", [0.0078125, -0.0078125, 0.0, -0.0]),
    ("%.12e\n", [10.0 ** k for k in range(-323, 309)]),
    ("%.12e\n", _decade_edges()),
    ("%.6f\n", _decade_edges()),
    ("%.12e\n", [5e-324, np.finfo(np.float64).max, 2.0 ** 53, np.nan,
                 np.inf, -np.inf]),
    ("%.6f\n", [5e-324, np.finfo(np.float64).max, 2.0 ** 53, 2.0 ** 53 + 2,
                4503599627.3700995, np.nan, np.inf, -np.inf]),
    ("%d\n", np.array([0, -1, 9, 10, -10, 99, 100, 2 ** 63 - 1, -2 ** 63])),
])
def test_named_fields_match_percent(tmp_path, row_format, values):
    """Exact ties, every power of ten, the decade edges, both ends of the
    double range, ``2**53`` under ``%.6f`` and the int64 extremes."""
    got, expected = _rendered(tmp_path / "t.csv", row_format, np.asarray(values))
    assert _first_difference(got, expected) is None
    assert got == expected


@pytest.mark.parametrize("p", range(16))
def test_every_precision_matches_percent(tmp_path, p):
    """``%.<p>e`` and ``%.<p>f`` at every supported precision: the digit
    groups split ``D`` differently as ``(p + 1) mod 4`` changes."""
    rng = np.random.default_rng(p)
    values = np.concatenate([_decade_edges(), rng.standard_normal(2000)
                             * 10.0 ** rng.integers(-30, 30, 2000)])
    for row_format in (f"%.{p}e\n", f"%.{p}f\n"):
        got, expected = _rendered(tmp_path / "t.csv", row_format, values)
        assert _first_difference(got, expected) is None
        assert got == expected


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          max_examples=100, deadline=None)
@given(st.integers(0, 15), arrays(np.float64, st.integers(1, 40),
                                  elements=_DOUBLES))
def test_any_precision_matches_percent(tmp_path, p, x):
    got, expected = _rendered(tmp_path / "t.csv", f"%.{p}e,%.{p}f\n", x, x)
    assert got == expected


def test_pow10_significands_are_correctly_rounded():
    """``10**k = _SIG[k] * 2**_EXP[k]`` with ``_SIG`` in ``[1, 2)`` and
    rounded to nearest, for every ``k`` that ``%e`` looks up."""
    for i, k in enumerate(range(-_csv._K0, _csv._SIG.size - _csv._K0)):
        exact = Fraction(10) ** k / Fraction(2) ** int(_csv._EXP[i])
        assert 1 <= exact < 2
        assert _csv._SIG[i] == float(exact)


def test_mixed_widths_in_one_block(tmp_path):
    """``%d`` columns whose widths differ row to row (the int64 extremes
    next to 0 and 9) beside ``%s`` and ``%e`` fields of several widths."""
    ints = np.array([0, -2 ** 63, 9, 2 ** 63 - 1, -1, 10, 9999, -10000, 10 ** 18])
    small = np.array([0, 1, 0, 1, 1, 0, 1, 0, 1], bool)
    text = np.array(["", "a", "bcd", "", "#62", "e", "fg", "", "h"])
    values = np.array([0.0, -1e-300, 1e300, -0.0, 0.5, np.nan, 1e100, -9.5e99, 1.0])
    got, expected = _rendered(tmp_path / "t.csv", "%d;%s,%d %.3e%d,%s\n",
                              ints, text, small, values, ints[::-1], text[::-1])
    assert _first_difference(got, expected) is None
    assert got == expected


@pytest.mark.parametrize("row_format", ["%5.2f\n", "%x\n", "%r\n", "%%\n",
                                        "%.16e\n", "%i\n", "%.12g\n"])
def test_write_csv_refuses_other_conversions(tmp_path, row_format):
    with pytest.raises(ValueError, match="only %d, %s"):
        write_csv(tmp_path / "t.csv", ("x",), row_format, [(np.ones(2),)])


def test_write_csv_refuses_bad_blocks(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"differ in length: \[2, 3\]"):
        write_csv(path, ("a", "b"), "%d,%d\n", [(np.arange(3), np.arange(2))])
    with pytest.raises(ValueError, match="1 columns for the 2 fields"):
        write_csv(path, ("a", "b"), "%d,%d\n", [(np.arange(3),)])
    with pytest.raises(ValueError, match=r"column 1 \(%d\) cannot hold float64"):
        write_csv(path, ("a", "b"), "%d,%d\n", [(np.arange(3), np.ones(3))])


@pytest.mark.parametrize("n", (1, 3, 67, 100))
def test_map_rows_and_columns_follow_the_pixels(tmp_path, n):
    """Line k of a map is pixel ``(k // n, k % n)``, also when blocks start
    mid-row (``n`` does not divide ``BLOCK``) or span several rows."""
    values = np.random.default_rng(n).random((n, n))
    IntensityMap(values=values, extent=1e-3).to_csv(tmp_path / "map.csv")
    expected = "row,col,value\n" + "".join(
        "%d,%d,%.12e\n" % (i, j, values[i, j])
        for i in range(n) for j in range(n))
    assert (tmp_path / "map.csv").read_text() == expected


def test_map_export_memory_stays_blockwise(tmp_path):
    """A 512² map is written a block at a time: the transient peak stays
    far below the 37 MB of rendering the whole map at once."""
    rng = np.random.default_rng(5)
    values = rng.random((512, 512)) * 10.0 ** rng.integers(-300, 8, (512, 512))
    intensity = IntensityMap(values=np.where(values < 1e-200, 0.0, values),
                             extent=1e-3)
    tracemalloc.start()
    try:
        intensity.to_csv(tmp_path / "map.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("p", range(16))
def test_all_zero_block_is_one_constant(tmp_path, p):
    """A block of +0.0 is filled with ``%.<p>e % 0.0``, whose width (no
    spare exponent column) only the constant path gives."""
    conversion = f"%.{p}e"
    assert _csv._floats(np.zeros(5), conversion)[0] == len(conversion % 0.0)
    got, expected = _rendered(tmp_path / "t.csv", conversion + "\n", np.zeros(70))
    assert got == expected


@pytest.mark.parametrize("values", [
    [0.0] * 40 + [-0.0] + [0.0] * 9,  # one sign bit: the full path
    [-0.0] * 50,
    [0.0] * 20 + [np.nan] + [0.0] * 29,
], ids=["one-negative-zero", "all-negative-zero", "one-nan"])
def test_zero_blocks_with_a_sign_or_nan_take_the_full_path(tmp_path, values):
    values = np.array(values)
    got, expected = _rendered(tmp_path / "t.csv", "%.12e\n", values)
    assert got == expected
    assert _csv._floats(values, "%.12e")[0] > len("%.12e" % 0.0)
    if np.signbit(values).any():
        assert "-0.000000000000e+00\n" in got


def test_zero_run_across_a_block_boundary(tmp_path):
    """Zeros from inside block 0 through all of block 1 into block 2: one
    block takes the constant, the two it borders the full path."""
    values = np.random.default_rng(31).random(3 * BLOCK)
    values[BLOCK - 100:2 * BLOCK + 50] = 0.0
    path = tmp_path / "t.csv"
    write_csv(path, ("i", "x"), "%d,%.12e\n",
              ((b, values[b]) for b in row_blocks(values.size)))
    expected = "".join("%d,%.12e\n" % row for row in enumerate(values.tolist()))
    got = path.read_text("ascii").split("\n", 1)[1]
    assert _first_difference(got, expected) is None
    assert got == expected


def test_matched_map_with_zero_blocks_matches_percent(tmp_path):
    """The 512² FF map of character 7, most of whose blocks underflow to
    +0.0, against a ``%`` pass over its pixels."""
    from spatialqkd.config import ExperimentConfig
    from spatialqkd.optics import BasisConfig
    cfg = ExperimentConfig()
    imap = cfg.build_model().intensity_grid(
        BasisConfig.from_label("FF"), cfg.build_alphabet().index_of("7"))
    flat = imap.values.ravel()
    zero_blocks = sum(_csv.all_plus_zero(flat[s])
                      for s in _csv.row_slices(flat.size))
    assert 0 < zero_blocks < flat.size // BLOCK
    imap.to_csv(tmp_path / "map.csv")
    n = imap.n
    expected = "row,col,value\n" + "".join(
        "%d,%d,%.12e\n" % (k // n, k % n, v) for k, v in enumerate(flat.tolist()))
    got = (tmp_path / "map.csv").read_text("ascii")
    assert _first_difference(got, expected) is None
    assert got == expected


@pytest.mark.parametrize("longest", range(1, 11))
def test_padded_text_tables_match_percent(tmp_path, longest):
    """Fields gathered from a table of 1, 2, 4, 8 or 16 bytes, with the
    empty field at code -1, are ``%s`` of the unpadded text."""
    names = tuple("xyzw"[k % 4] * k for k in range(1, longest + 1))
    names += tuple(s for s in ("#62", "(residual)") if len(s) <= longest)
    table = code_fields(names)
    size = table.itemsize
    assert size & (size - 1) == 0 and longest <= size < max(2 * longest, 2)
    codes = np.random.default_rng(longest).integers(-1, len(names), 3000)
    text = [names[c] if c >= 0 else "" for c in codes.tolist()]
    write_csv(tmp_path / "t.csv", ("a", "b"), "%s|%s\n",
              [(table[codes], table[codes[::-1]])])
    expected = "".join("%s|%s\n" % pair for pair in zip(text, text[::-1]))
    assert (tmp_path / "t.csv").read_text("ascii").split("\n", 1)[1] == expected


def test_map_with_four_digit_indices(tmp_path):
    """At n = 1001 the index table is ``S4`` with no padding left; rows
    that cross from three to four digits match ``%`` line for line."""
    n = 1001
    values = np.random.default_rng(1001).random((n, n))
    values[:300] = 0.0  # whole blocks of +0.0 too
    imap = IntensityMap(values=values, extent=1e-3)
    imap.to_csv(tmp_path / "map.csv")
    got = (tmp_path / "map.csv").read_text("ascii").splitlines(keepends=True)
    assert len(got) == n * n + 1
    for i in (0, 7, 299, 300, 999, 1000):
        expected = ["%d,%d,%.12e\n" % (i, j, v)
                    for j, v in enumerate(values[i].tolist())]
        assert got[1 + i * n:1 + (i + 1) * n] == expected
