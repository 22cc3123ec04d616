"""Matrix Market exchange format, reduced to what the benchmarks need.

Reads and writes the NIST text format for real or integer matrices in
coordinate or array layout, with general or symmetric storage. Complex,
pattern, skew-symmetric, and Hermitian files are rejected rather than half
supported. Parse failures carry the 1-based line number of the offending
line.

The writer emits values with 17 significant digits, enough to round-trip any
double exactly, so write-then-read is an identity on the stored entries.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MatrixMarketFormatError

__all__ = ["MatrixMarketData", "read_matrix_market", "write_coordinate", "write_array"]

_HEADER_PREFIX = "%%matrixmarket"


@dataclass
class MatrixMarketData:
    """Parsed file content, prior to any symmetric expansion.

    ``rows`` / ``cols`` / ``values`` are COO triplets (0-based) for coordinate
    files; for array files they enumerate the stored entries (all of them for
    general storage, the lower triangle for symmetric).
    """

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    symmetric: bool
    layout: str

    def expanded(self):
        """COO triplets with symmetric storage mirrored to both triangles."""
        if not self.symmetric:
            return self.rows, self.cols, self.values
        off = self.rows != self.cols
        return (
            np.concatenate([self.rows, self.cols[off]]),
            np.concatenate([self.cols, self.rows[off]]),
            np.concatenate([self.values, self.values[off]]),
        )

    def to_dense(self):
        a = np.zeros(self.shape)
        r, c, v = self.expanded()
        np.add.at(a, (r, c), v)
        return a


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


def read_matrix_market(path):
    """Parse a Matrix Market file into MatrixMarketData.

    Raises MatrixMarketFormatError (with a line number) on malformed input and
    on the unsupported field/symmetry combinations.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
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


def write_coordinate(path, rows, cols, values, shape, symmetric=False):
    """Write COO triplets (0-based) as a coordinate file.

    With symmetric=True the triplets must already be restricted to the lower
    triangle (row >= col); the file then declares symmetric storage.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if symmetric and np.any(cols > rows):
        raise ValueError("symmetric output requires lower-triangle triplets")
    symmetry = "symmetric" if symmetric else "general"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {symmetry}\n")
        fh.write(f"{shape[0]} {shape[1]} {values.shape[0]}\n")
        for i, j, v in zip(rows, cols, values):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def write_array(path, a):
    """Write a dense array (matrix or vector) in array layout, general storage."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError("array output requires a 1-D or 2-D input")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for j in range(a.shape[1]):
            for i in range(a.shape[0]):
                fh.write(f"{a[i, j]:.17g}\n")
