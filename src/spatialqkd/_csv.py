"""CSV tables written from arrays, a block of rows at a time.

:func:`write_csv` is the one place that turns columns into text.  Each table
has one row format: ``%d``, ``%s``, ``%.<p>e`` and ``%.<p>f`` conversions
(``p`` at most 15) between literal separators.  A block of at most
:data:`BLOCK` rows becomes one ``uint8`` matrix, each field a NUL-padded
run of columns, and is written with one ``write`` once the NULs are dropped;
no Python object is made per field.

* ``%d`` takes integer or boolean columns, written two digits at a time
  from a 100-entry table.
* ``%s`` takes ``S`` columns as they are and ``str`` columns encoded once
  per block.  Text columns index :func:`code_fields` (code -1 is the empty
  field) or :data:`FLAG_FIELDS`.
* ``%.<p>e`` rounds ``y = |x| * 10**k`` to the integer ``D`` of the printed
  digits, with ``k = p - E`` and the decimal exponent ``E`` from ``log10``.
  ``y`` is ``frexp(|x|)[0]`` times the correctly rounded significand of
  ``10**k``, scaled by a power of two: two roundings, so ``y`` is off by at
  most ``(2u + u²) y`` with ``u = eps / 2``.  A field whose ``y`` lies
  within ``2 eps y`` of a half-integer (every ``y >= 2**50`` does) or that
  is not finite might round either way.  A field at a decade edge, whose
  ``D`` is not strictly between ``10**p`` and ``10**(p+1)``, might have the
  wrong ``E``.  Only those fields are formatted by Python's ``%``.  Every
  other field is the exact, round-half-even text that ``%`` writes.  On the
  two ``cli_outputs`` maps 0.06 % and 0.33 % of the fields fall back, on
  uniform values in [0, 1) 0.5 %.
* ``%.<p>f`` fields, only in the few rows of ``security.csv``, all go to ``%``.

A 512² map takes about 0.08 s, against 0.22 s for one ``%`` pass per block
(traced ``cli_outputs``, 2-core Xeon), with under 1 MB of transient memory.
"""

from __future__ import annotations

import re

import numpy as np

#: Rows per block; bounds the transient memory of an export.
BLOCK = 4096

#: Field per flag, indexed by a mask viewed as int8.
FLAG_FIELDS = np.array([b"0", b"1"])

_CONVERSION = re.compile(r"(%(?:[ds]|\.\d+[ef]))")
#: "00" to "99", two ASCII digits per uint16.
_PAIRS = np.array([b"%02d" % i for i in range(100)]).view(np.uint16)
_EPS = np.finfo(np.float64).eps


def _pow10_table(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """``10**k = sig * 2**exp`` for ``k`` in ``[lo, hi]``, ``sig`` in
    ``[1, 2]`` correctly rounded (integer true division rounds correctly)."""
    sig, exp = [], []
    for k in range(lo, hi + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        e = num.bit_length() - den.bit_length()
        if (num << max(-e, 0)) < (den << max(e, 0)):
            e -= 1
        sig.append((num << max(-e, 0)) / (den << max(e, 0)))
        exp.append(e)
    return np.array(sig), np.array(exp)


# ``%e`` needs k = p - E for decimal exponents E in [-324, 308], plus one.
_K0 = 310
_SIG, _EXP = _pow10_table(-_K0, 341)


def row_blocks(n: int):
    """Row indices of ``range(n)``, at most :data:`BLOCK` at a time."""
    return (np.arange(start, min(start + BLOCK, n))
            for start in range(0, n, BLOCK))


def code_fields(names) -> np.ndarray:
    """Field per code: ``names[code]``, and the empty field at code -1."""
    return np.array([*names, ""], dtype="S")


def _digits(v: np.ndarray, width: int, keep: int = 0) -> np.ndarray:
    """``(m, width)`` decimal digits of the integers ``0 <= v < 2**64``, two
    at a time from a table (``//`` by a scalar beats ``divmod``).  With
    ``keep``, NUL replaces the leading zeros short of the last ``keep``."""
    v = v.astype(np.uint64)
    pairs = -(-width // 2)
    out = np.empty((v.size, pairs), np.uint16)
    rest = v
    for j in range(pairs - 1, -1, -1):
        q = rest // np.uint64(100)
        out[:, j] = _PAIRS[(rest - q * np.uint64(100)).view(np.int64)]
        rest = q
    out = out.view(np.uint8)[:, 2 * pairs - width:]
    for j in range(width - keep if keep else 0):
        out[:, j] *= v >= np.uint64(10 ** (width - 1 - j))
    return out


def _hcat(m: int, parts) -> np.ndarray:
    """Matrices and literal byte strings side by side, ``m`` rows."""
    parts = [np.frombuffer(p, np.uint8)[None, :] if isinstance(p, bytes)
             else p for p in parts]
    out = np.empty((m, sum(p.shape[1] for p in parts)), np.uint8)
    start = 0
    for p in parts:
        out[:, start:start + p.shape[1]] = p
        start += p.shape[1]
    return out


def _sign(negative: np.ndarray) -> np.ndarray:
    return np.where(negative, np.uint8(ord("-")), np.uint8(0))[:, None]


def _integers(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64)
    mag = np.abs(v).view(np.uint64)  # |-2**63| wraps to 2**63 as uint64
    return _hcat(v.size, [_sign(v < 0),
                          _digits(mag, len(str(int(mag.max()))), keep=1)])


def _text(col: np.ndarray) -> np.ndarray:
    s = np.ascontiguousarray(col if col.dtype.kind == "S" else col.astype("S"))
    return s.view(np.uint8).reshape(s.size, s.itemsize)


def _floats(x: np.ndarray, conversion: str) -> np.ndarray:
    p = int(conversion[2:-1])
    field, unsure = np.empty((x.size, 0), np.uint8), np.ones(x.size, bool)
    if conversion[-1] == "e":
        finite = np.isfinite(x)
        a = np.where(finite, np.abs(x), 0.0)
        live = a > 0
        exp10 = np.zeros(x.size, np.int64)
        exp10[live] = np.floor(np.log10(a[live]))
        # y = a * 10**k, its binary exponent capped so that nothing
        # overflows: any y it caps is above 2**59 and so unsure anyway.
        m, e = np.frexp(a)
        k = p - exp10 + _K0
        y = np.ldexp(m * _SIG[k], np.minimum(e + _EXP[k], 60))
        d, unsure = np.rint(y), ~(np.abs(y - np.floor(y) - 0.5) > 2 * _EPS * y)
        # E is right when D(E) < 10**(p+1) <= D(E - 1).  A sure D(E) above
        # 10**p has y >= 10**p + 1/2, which gives the second; every other
        # live field goes to ``%``.
        unsure |= live & ((d <= 10.0 ** p) | (d >= 10.0 ** (p + 1)))
        unsure |= ~finite
        d[unsure] = 0
        mantissa = _digits(d, p + 1)
        field = _hcat(x.size, [
            _sign(np.signbit(x)), mantissa[:, :1], b"." if p else b"",
            mantissa[:, 1:], b"e",
            np.where(exp10 < 0, np.uint8(ord("-")), np.uint8(ord("+")))[:, None],
            _digits(np.abs(exp10), 3, keep=2)])
    rows = np.flatnonzero(unsure)
    if rows.size:  # the only fields that Python formats one by one
        text = np.array([(conversion % v).encode("ascii")
                         for v in x[rows].tolist()])
        w = text.itemsize
        if w > field.shape[1]:
            field = np.pad(field, ((0, 0), (w - field.shape[1], 0)))
        field[rows] = 0
        field[rows, :w] = text.view(np.uint8).reshape(rows.size, w)
    return field


def _field(conversion: str, col, j: int) -> np.ndarray:
    """The ``(m, w)`` NUL-padded bytes of column ``j`` under ``conversion``."""
    col = np.asarray(col)
    kind = col.dtype.kind
    if conversion == "%s" and kind in "SUO":
        return _text(col)
    if conversion == "%d" and np.can_cast(col.dtype, np.int64):
        return _integers(col)
    if conversion[-1] in "ef" and np.can_cast(col.dtype, np.float64):
        return _floats(col.astype(np.float64), conversion)
    raise ValueError(f"column {j} ({conversion}) cannot hold {col.dtype} values")


def write_csv(path, header: tuple[str, ...], row_format: str,
              blocks) -> None:
    """Write the header, then each block: equal-length columns, one per
    conversion of ``row_format``, whose literal text ends the row."""
    pieces = _CONVERSION.split(row_format)
    literals, conversions = pieces[::2], pieces[1::2]
    if any("%" in s for s in literals) or any(
            int(c[2:-1]) > 15 for c in conversions if c[1] == "."):
        raise ValueError(f"row format {row_format!r}: only %d, %s, %.<p>e "
                         "and %.<p>f with p <= 15 are supported")
    literals = [s.encode("ascii") for s in literals]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for columns in blocks:
            if len(columns) != len(conversions):
                raise ValueError(f"{len(columns)} columns for the "
                                 f"{len(conversions)} fields of {row_format!r}")
            lengths = sorted({len(col) for col in columns})
            if len(lengths) > 1:
                raise ValueError(f"columns of one block differ in length: {lengths}")
            if not lengths or not lengths[0]:
                continue
            parts = [literals[0]]
            for j, (conversion, col) in enumerate(zip(conversions, columns)):
                parts += [_field(conversion, col, j), literals[j + 1]]
            fh.write(_hcat(lengths[0], parts).tobytes().translate(None, b"\0"))
