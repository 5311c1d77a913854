"""CSV tables written from arrays, a block of rows at a time.

:func:`write_csv` is the one place that turns columns into text.  Each table
has one ``%``-style row format, and each block is formatted in one C-level
``%`` pass, with no string built per field.  Text columns index
:func:`code_fields` (code -1 is the empty field) or :data:`FLAG_FIELDS`.
A 512² map takes about 0.2 s, half its per-field cost (2-core Xeon).
"""

from __future__ import annotations

import numpy as np

#: Rows per block; bounds the transient memory of an export.
BLOCK = 4096

#: Field per flag, indexed by a mask viewed as int8; ``%s`` beats ``%d``.
FLAG_FIELDS = np.array(["0", "1"], dtype=object)


def row_blocks(n: int):
    """Row indices of ``range(n)``, at most :data:`BLOCK` at a time."""
    return (np.arange(start, min(start + BLOCK, n))
            for start in range(0, n, BLOCK))


def code_fields(names) -> np.ndarray:
    """Field per code: ``names[code]``, and the empty field at code -1."""
    return np.array([*names, ""], dtype=object)


def write_csv(path, header: tuple[str, ...], row_format: str,
              blocks) -> None:
    """Write the header, then each block: equal-length columns formatted by
    ``row_format``, one conversion per column and a closing newline.  The
    object array hands ``%`` Python scalars, not numpy ones."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            cells = np.empty((len(columns[0]), len(columns)), dtype=object)
            for j, col in enumerate(columns):
                cells[:, j] = col
            fh.write((row_format * len(cells)) % tuple(cells.ravel().tolist()))
