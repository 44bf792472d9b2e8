"""Numeric CSV tables read with a cell-level error.

:func:`load_csv` reads comma-separated numbers line by line and refuses a
cell that is not a number, or a row of another length than the first, with
a ``ParameterError`` that names the line (and column) in the file, which
the CLI prints as an ``error:`` line.  ``#`` starts a comment; blank lines
are skipped.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def load_csv(path_or_file, what: str, skiprows: int = 0) -> np.ndarray:
    """The comma-separated numbers of a path or text file, as a 2-d array,
    after ``skiprows`` header lines; ``what`` names the table in errors."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file) as fh:
            lines = fh.read().splitlines()
    rows = []
    for line, text in enumerate(lines[skiprows:], start=skiprows + 1):
        text = text.split("#")[0]
        if not text.strip():
            continue
        row = []
        for column, cell in enumerate(text.split(","), start=1):
            try:
                row.append(float(cell))
            except ValueError:
                raise ParameterError(f"{what}, line {line}, column {column}: "
                                     f"{cell.strip()!r} is not a number") from None
        if rows and len(row) != len(rows[0]):
            raise ParameterError(f"{what}, line {line}: {len(row)} columns, "
                                 f"the first row has {len(rows[0])}")
        rows.append(row)
    return np.array(rows, dtype=float, ndmin=2)
