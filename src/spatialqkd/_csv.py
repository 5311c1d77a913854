"""CSV tables written from arrays, a block of rows at a time.

:func:`write_csv` is the one place that joins fields into rows.  Floats are
written ``%.12e``, flags ``1``/``0``, and a code column indexes the fields
of :func:`code_fields`, where code -1 is the empty field.
"""

from __future__ import annotations

import numpy as np

#: Rows per block; bounds the transient memory of an export.
BLOCK = 4096


def row_blocks(n: int):
    """Row indices of ``range(n)``, at most :data:`BLOCK` at a time."""
    return (np.arange(start, min(start + BLOCK, n))
            for start in range(0, n, BLOCK))


def code_fields(names) -> np.ndarray:
    """Field per code: ``names[code]``, and the empty field at code -1."""
    return np.array([*names, ""], dtype=object)


def float_fields(values: np.ndarray) -> np.ndarray:
    return np.array(list(map("%.12e".__mod__, values.tolist())), dtype=object)


def flag_fields(mask: np.ndarray) -> np.ndarray:
    return np.where(mask, "1", "0")


def write_csv(path, header: tuple[str, ...], blocks) -> None:
    """Write the header, then each block: a tuple of equal-length arrays of
    field strings, one per column."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            rows = zip(*[col.tolist() for col in columns])
            fh.write("".join([",".join(row) + "\n" for row in rows]))
