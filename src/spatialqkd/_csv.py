"""CSV tables written from arrays, a block of rows at a time.

:func:`write_csv` is the one place that turns columns into text.  Each table
has one row format: ``%d``, ``%s``, ``%.<p>e`` and ``%.<p>f`` conversions
(``p`` at most 15) between literal separators.  A block of at most
:data:`BLOCK` rows is one zeroed ``(m, W)`` ``uint8`` matrix, ``W`` the sum of
the literals' and fields' widths.  Each literal and field fills its own
columns, digits four at a time from :data:`_QUADS`, and the block is written
with one ``write`` once the NULs are dropped: no Python object per field.

* ``%d`` takes integer or boolean columns, ``%s`` ``S`` or ``str`` columns
  such as :func:`code_fields` (-1 is the empty field) or :data:`FLAG_FIELDS`.
* ``%.<p>e`` rounds ``y = |x| * 10**k`` to the integer ``D`` of the printed
  digits, with ``k = p - E`` and the decimal exponent ``E`` from ``log10``.
  ``y`` is ``frexp(|x|)[0]`` times the correctly rounded significand of
  ``10**k``, scaled by a power of two: two roundings, so ``y`` is off by at
  most ``(2u + u²) y`` with ``u = eps / 2``.  A field whose ``y`` lies
  within ``2 eps y`` of a half-integer (every ``y >= 2**50`` does) or that
  is not finite might round either way.  A field at a decade edge, whose
  ``D`` is not strictly between ``10**p`` and ``10**(p+1)``, might have the
  wrong ``E``.  Only those fields go to Python's ``%`` (0.06 % and 0.33 % of
  the two ``cli_outputs`` maps).  Every other field is the exact,
  round-half-even text of ``%``, and its ``D < 2**50`` makes the groups
  ``floor(D / 10**4)`` exact in float64: the quotient is off by under
  ``2**-3 / 10**4``, less than a non-integer quotient's distance to the next
  integer.  The exponent text is one lookup in :data:`_EXPONENTS`.
* ``%.<p>f`` fields, only in the few rows of ``security.csv``, all go to ``%``.

A 512² map takes 0.03-0.05 s to write (2-core Xeon), with a 0.47 MB peak.
"""

from __future__ import annotations

import re
from functools import partial

import numpy as np

#: Rows per block; bounds the transient memory of an export.
BLOCK = 4096

#: Field per flag, indexed by a mask viewed as int8.
FLAG_FIELDS = np.array([b"0", b"1"])

_CONVERSION = re.compile(r"(%(?:[ds]|\.\d+[ef]))")
#: "0000" to "9999", four ASCII digits per uint32.
_QUADS = np.array([b"%04d" % i for i in range(10000)]).view(np.uint32)
#: ``%e``'s exponent text of ``E`` at ``E + 324``, NUL-padded to 8 bytes.
_EXPONENTS = np.array([b"e%+03d" % e for e in range(-324, 309)], "S8").view(np.uint64)
_EPS = np.finfo(np.float64).eps


def _pow10_table(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """``10**k = sig * 2**exp`` for ``k`` in ``[lo, hi]``, ``sig`` in
    ``[1, 2]`` correctly rounded (integer true division rounds correctly)."""
    exp = [(10 ** k).bit_length() - 1 if k >= 0 else -(10 ** -k).bit_length()
           for k in range(lo, hi + 1)]
    sig = [10 ** k / 2 ** e if k >= 0 else 2 ** -e / 10 ** -k
           for k, e in zip(range(lo, hi + 1), exp)]
    return np.array(sig), np.array(exp, np.int32)


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


def _put_digits(out: np.ndarray, v: np.ndarray) -> None:
    """Write the integers ``0 <= v < 10**w`` into the ``(m, w)`` matrix
    ``out``, four digits at a time: ``v`` is uint64, or float64 < ``2**50``."""
    for end in range(out.shape[1], 0, -4):
        q = 0 if end <= 4 else (v // np.uint64(10000) if v.dtype == np.uint64
                                else np.floor(v / 1e4))
        quad = _QUADS[(v - q * 10000).astype(np.intp)]
        if end >= 4:
            out[:, end - 4:end].view(np.uint32)[:, 0] = quad
        else:
            for c, digit in enumerate(quad.view(np.uint8).reshape(-1, 4).T[4 - end:]):
                out[:, c] = digit
        v = q


def _integers(v: np.ndarray):
    v = v.astype(np.int64)
    negative, mag = v < 0, np.abs(v).view(np.uint64)  # |-2**63| wraps to 2**63
    width, sign = len(str(int(mag.max()))), int(negative.any())

    def render(out: np.ndarray) -> None:
        out[:, 0] = negative * np.uint8(ord("-"))  # a digit's column if no sign
        _put_digits(out[:, sign:], mag)
        keep = 10 ** np.arange(width - 1, 0, -1, dtype=np.uint64)[:, None] <= mag
        for j in range(width - 1):  # keep[j]: digit j is no leading zero
            out[:, sign + j] *= keep[j]
    return sign + width, render


def _text(col: np.ndarray):
    s = np.ascontiguousarray(col if col.dtype.kind == "S" else col.astype("S"))
    item = np.dtype((np.void, s.itemsize))  # one copy per field, not per byte
    return s.itemsize, lambda out: np.copyto(out.view(item)[:, 0], s.view(item))


def _floats(x: np.ndarray, conversion: str):
    p = int(conversion[2:-1])
    width, unsure = 0, np.ones(x.size, bool)
    if conversion[-1] == "e":
        finite = np.isfinite(x)
        a = np.where(finite, np.abs(x), 0.0)
        live = a > 0
        exp10 = np.floor(np.log10(np.where(live, a, 1.0))).astype(np.int64)
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
        negative = np.signbit(x)
        sign = int(negative.any())
        width = sign + 1 + (p > 0) + p + 5  # e+dd or e+ddd
    rows = np.flatnonzero(unsure)  # the only fields Python formats one by one
    text = np.array([conversion % v for v in x[rows].tolist()], "S")
    text = text.view(np.uint8).reshape(rows.size, text.itemsize)

    def render(out: np.ndarray) -> None:
        if width:
            out[:, 0] = negative * np.uint8(ord("-"))  # a digit's column if no sign
            # D's digits one column right, then the first left of the "."
            # (at p = 0 the exponent overwrites the ".").
            _put_digits(out[:, sign + 1:sign + p + 2], d)
            out[:, sign] = out[:, sign + 1]
            out[:, sign + 1] = ord(".")
            exponent = _EXPONENTS[exp10 + 324].view(np.uint32).reshape(-1, 2)
            out[:, width - 5:width - 1].view(np.uint32)[:, 0] = exponent[:, 0]
            out[:, width - 1] = exponent.view(np.uint8)[:, 4]
        out[rows] = 0
        out[rows, :text.shape[1]] = text
    return max(width, text.shape[1]), render


def _field(conversion: str, col, j: int):
    """Column ``j``'s width under ``conversion`` and its ``render(out)``."""
    col = np.asarray(col)
    if conversion == "%s" and col.dtype.kind in "SUO":
        return _text(col)
    if conversion == "%d" and np.can_cast(col.dtype, np.int64):
        return _integers(col)
    if conversion[-1] in "ef" and np.can_cast(col.dtype, np.float64):
        return _floats(col.astype(np.float64), conversion)
    raise ValueError(f"column {j} ({conversion}) cannot hold {col.dtype} values")


def _block(literals, conversions, columns) -> np.ndarray:
    """One block's matrix: its literals and fields side by side."""
    parts = [literals[0]]
    for j, (conversion, col) in enumerate(zip(conversions, columns)):
        parts += [_field(conversion, col, j), literals[j + 1]]
    out = np.zeros((len(columns[0]), sum(w for w, _ in parts)), np.uint8)
    start = 0
    for width, render in parts:
        render(out[:, start:start + width])
        start += width
    return out


def write_csv(path, header: tuple[str, ...], row_format: str, blocks) -> None:
    """Write the header, then each block: equal-length columns, one per
    conversion of ``row_format``, whose literal text ends the row."""
    pieces = _CONVERSION.split(row_format)
    literals, conversions = pieces[::2], pieces[1::2]
    if any("%" in s for s in literals) or any(
            int(c[2:-1]) > 15 for c in conversions if c[1] == "."):
        raise ValueError(f"row format {row_format!r}: only %d, %s, %.<p>e "
                         "and %.<p>f with p <= 15 are supported")
    literals = [np.frombuffer(s.encode("ascii"), np.uint8) for s in literals]
    literals = [(s.size, partial(np.copyto, src=s)) for s in literals]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for columns in blocks:
            if len(columns) != len(conversions):
                raise ValueError(f"{len(columns)} columns for the "
                                 f"{len(conversions)} fields of {row_format!r}")
            lengths = sorted({len(col) for col in columns})
            if len(lengths) > 1:
                raise ValueError(f"columns of one block differ in length: {lengths}")
            if lengths and lengths[0]:  # the matrix is freed before the NULs go
                fh.write(_block(literals, conversions, columns).tobytes()
                         .translate(None, b"\0"))
