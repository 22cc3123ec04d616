"""The line-by-line Matrix Market reader that ``berrkit.mmio`` replaced,
frozen as the reference its bulk parse is tested against.

It splits each entry line into tokens and converts them with Python's
``int`` and ``float``, one line at a time, checking each line in full before
the next. ``read_matrix_market_by_line`` returns the same ``MatrixMarketData``
and raises the same ``MatrixMarketFormatError`` as ``berrkit.mmio``.
"""

import numpy as np

from berrkit.errors import MatrixMarketFormatError
from berrkit.mmio import MatrixMarketData

_HEADER_PREFIX = "%%matrixmarket"


def _parse_value(token, field, lineno):
    try:
        if field == "integer":
            return float(int(token))
        return float(token.replace("D", "e").replace("d", "e"))
    except (ValueError, OverflowError):
        raise MatrixMarketFormatError(
            f"bad {field} value {token!r}", line=lineno
        ) from None


def _parse_index(token, bound, lineno, what):
    try:
        idx = int(token)
    except ValueError:
        raise MatrixMarketFormatError(
            f"bad {what} index {token!r}", line=lineno
        ) from None
    if not (1 <= idx <= bound):
        raise MatrixMarketFormatError(
            f"{what} index {idx} outside 1..{bound}", line=lineno
        )
    return idx - 1


def read_matrix_market_by_line(path):
    """Parse a Matrix Market file into MatrixMarketData, one line at a time.

    Raises MatrixMarketFormatError (with a line number) on malformed input and
    on the unsupported field/symmetry combinations.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        # split at line ends only (universal newlines already turned \r and
        # \r\n into \n): splitlines() would also split at form feeds and
        # the other control characters a comment may hold
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise MatrixMarketFormatError("empty file", line=1)
    header = lines[0].strip().lower().split()
    if len(header) != 5 or header[0] != _HEADER_PREFIX or header[1] != "matrix":
        raise MatrixMarketFormatError(
            "header must read '%%MatrixMarket matrix <layout> <field> <symmetry>'",
            line=1,
        )
    layout, field, symmetry = header[2], header[3], header[4]
    if layout not in ("coordinate", "array"):
        raise MatrixMarketFormatError(f"unsupported layout {layout!r}", line=1)
    if field not in ("real", "integer"):
        raise MatrixMarketFormatError(f"unsupported field {field!r}", line=1)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketFormatError(f"unsupported symmetry {symmetry!r}", line=1)
    symmetric = symmetry == "symmetric"

    lineno = 1
    size_line = None
    for lineno in range(2, len(lines) + 1):
        stripped = lines[lineno - 1].strip()
        if stripped and not stripped.startswith("%"):
            size_line = stripped
            break
    if size_line is None:
        raise MatrixMarketFormatError("missing size line", line=len(lines))

    toks = size_line.split()
    expected = 3 if layout == "coordinate" else 2
    if len(toks) != expected:
        raise MatrixMarketFormatError(
            f"size line needs {expected} integers", line=lineno
        )
    try:
        dims = [int(t) for t in toks]
    except ValueError:
        raise MatrixMarketFormatError("size line must be integers", line=lineno) from None
    if any(d < 0 for d in dims) or dims[0] == 0 or dims[1] == 0:
        raise MatrixMarketFormatError("matrix dimensions must be positive", line=lineno)
    nrows, ncols = dims[0], dims[1]
    if symmetric and nrows != ncols:
        raise MatrixMarketFormatError("symmetric matrix must be square", line=lineno)

    body = []
    for body_lineno in range(lineno + 1, len(lines) + 1):
        stripped = lines[body_lineno - 1].strip()
        if stripped and not stripped.startswith("%"):
            body.append((body_lineno, stripped))

    if layout == "coordinate":
        nnz = dims[2]
        if len(body) != nnz:
            where = body[nnz][0] if len(body) > nnz else len(lines)
            raise MatrixMarketFormatError(
                f"expected {nnz} entries, found {len(body)}", line=where
            )
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        for pos, (entry_lineno, text) in enumerate(body):
            toks = text.split()
            if len(toks) != 3:
                raise MatrixMarketFormatError(
                    "coordinate entry needs 'row col value'", line=entry_lineno
                )
            i = _parse_index(toks[0], nrows, entry_lineno, "row")
            j = _parse_index(toks[1], ncols, entry_lineno, "column")
            if symmetric and j > i:
                raise MatrixMarketFormatError(
                    "symmetric storage keeps only the lower triangle",
                    line=entry_lineno,
                )
            rows[pos], cols[pos] = i, j
            vals[pos] = _parse_value(toks[2], field, entry_lineno)
        return MatrixMarketData(
            (nrows, ncols), rows, cols, vals, symmetric, "coordinate"
        )

    # array layout: one value per line, column-major; symmetric stores the
    # lower triangle of each column
    count = nrows * (nrows + 1) // 2 if symmetric else nrows * ncols
    if len(body) != count:
        where = body[count][0] if len(body) > count else len(lines)
        raise MatrixMarketFormatError(
            f"expected {count} array values, found {len(body)}", line=where
        )
    vals = np.empty(count)
    for pos, (entry_lineno, text) in enumerate(body):
        toks = text.split()
        if len(toks) != 1:
            raise MatrixMarketFormatError(
                "array entry lines carry exactly one value", line=entry_lineno
            )
        vals[pos] = _parse_value(toks[0], field, entry_lineno)
    if symmetric:
        # triu_indices lists (j, i), i >= j, row by row: column j's lower part
        cols, rows = np.triu_indices(nrows)
    else:
        cols, rows = np.divmod(np.arange(count), nrows)
    rows, cols = rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)
    return MatrixMarketData((nrows, ncols), rows, cols, vals, symmetric, "array")
