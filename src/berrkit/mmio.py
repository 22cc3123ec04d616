"""Matrix Market exchange format, reduced to what the benchmarks need.

Reads and writes the NIST text format for real or integer matrices in
coordinate or array layout, with general or symmetric storage. Complex,
pattern, skew-symmetric, and Hermitian files are rejected rather than half
supported. The entry lines are parsed in bulk, by numpy's text parser.
Parse failures carry the 1-based line number of the offending line.

The writer emits values with 17 significant digits, enough to round-trip any
double exactly, so write-then-read is an identity on the stored entries.
"""

import re
import warnings
from dataclasses import dataclass
from itertools import chain

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


# one entry line as numpy's text parser reads it, per layout
_COORDINATE_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
_ARRAY_ENTRY = np.dtype([("value", np.float64)])
# a line whose first character other than white space is %
_COMMENT_LINE = re.compile(r"^[^\S\n]*%.*$", re.MULTILINE)


def _integer_value(token):
    """An integer-field value as a float. Python's int reads integers beyond
    int64 too; its digit separators are refused, as in every other number."""
    if "_" in token:
        raise ValueError(f"digit separator in {token!r}")
    return float(int(token))


def _load(lines, dtype, converters=None):
    """The entry lines among ``lines`` parsed by one call of numpy's text
    parser, or None if any of them does not parse. Blank lines are skipped;
    a comment line must already be blank."""
    with warnings.catch_warnings():
        # no entry lines is an empty result here, not a warning
        warnings.simplefilter("ignore", UserWarning)
        # older numpy reads an integer through a float, with this warning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(lines, dtype=dtype, comments=None, converters=converters, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None


def _parser_lines(body, field):
    """``body`` as the parser takes it, line for line: comment lines blank
    and, in a real file, each Fortran exponent letter D or d read as e (an
    index holding one stays unparsable either way)."""
    text = "\n".join(body)
    edited = _COMMENT_LINE.sub("", text) if "%" in text else text
    if field == "real":
        edited = edited.replace("D", "e").replace("d", "e")
    return body if edited == text else edited.split("\n")


def _first_unparsable(lines, dtype, converters):
    """Index of the first line of ``lines`` that does not parse, when all of
    them together do not: the end of the shortest failing prefix, found by
    bisection with the same parser."""
    good, bad = 0, len(lines)
    while bad - good > 1:
        mid = (good + bad) // 2
        if _load(lines[:mid], dtype, converters) is None:
            bad = mid
        else:
            good = mid
    return good


def _first_index_fault(entries, nrows, ncols, symmetric):
    """Position of the first coordinate entry with an index out of range or,
    in symmetric storage, above the diagonal; None if there is none."""
    r, c = entries["row"], entries["col"]
    fault = (r < 1) | (r > nrows) | (c < 1) | (c > ncols)
    if symmetric:
        fault |= c > r
    pos = np.flatnonzero(fault)
    return int(pos[0]) if pos.size else None


def _entry_error(text, lineno, layout, field, nrows, ncols, symmetric):
    """The fault of one entry line that has one, as a MatrixMarketFormatError:
    the first of a wrong token count, a bad or out-of-range row index, the
    same for the column, an entry above the diagonal of symmetric storage,
    and a bad value."""
    toks = text.split()
    if layout == "array":
        if len(toks) != 1:
            return MatrixMarketFormatError(
                "array entry lines carry exactly one value", line=lineno
            )
        return MatrixMarketFormatError(f"bad {field} value {toks[0]!r}", line=lineno)
    if len(toks) != 3:
        return MatrixMarketFormatError(
            "coordinate entry needs 'row col value'", line=lineno
        )
    index = []
    for token, bound, what in ((toks[0], nrows, "row"), (toks[1], ncols, "column")):
        parsed = _load([token], np.int64)
        if parsed is None:
            return MatrixMarketFormatError(f"bad {what} index {token!r}", line=lineno)
        index.append(int(parsed[0]))
        if not (1 <= index[-1] <= bound):
            return MatrixMarketFormatError(
                f"{what} index {index[-1]} outside 1..{bound}", line=lineno
            )
    if symmetric and index[1] > index[0]:
        return MatrixMarketFormatError(
            "symmetric storage keeps only the lower triangle", line=lineno
        )
    return MatrixMarketFormatError(f"bad {field} value {toks[2]!r}", line=lineno)


def read_matrix_market(path):
    """Parse a Matrix Market file into MatrixMarketData.

    The entry lines are parsed in bulk, by one call of numpy's text parser,
    and their indices checked as arrays. Only when that finds a fault is the
    first bad line sought, by bisecting the entry lines with the same
    parser, so the error names the line a line-by-line read would stop at.

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

    # body[i] is line lineno + 1 + i
    body = _parser_lines(lines[lineno:], field)
    if layout == "coordinate":
        dtype, count, what = _COORDINATE_ENTRY, dims[2], "entries"
    else:
        # one value per line, column-major; symmetric stores the lower
        # triangle of each column
        dtype, what = _ARRAY_ENTRY, "array values"
        count = nrows * (nrows + 1) // 2 if symmetric else nrows * ncols
    converters = {len(dtype) - 1: _integer_value} if field == "integer" else None
    entries = _load(body, dtype, converters)
    if entries is not None and entries.shape[0] == count:
        if layout == "array":
            vals = entries["value"].copy()
            if symmetric:
                # triu_indices lists (j, i), i >= j, row by row: column j's
                # lower part
                cols, rows = np.triu_indices(nrows)
            else:
                cols, rows = np.divmod(np.arange(count), nrows)
            rows, cols = rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)
            return MatrixMarketData((nrows, ncols), rows, cols, vals, symmetric, "array")
        if _first_index_fault(entries, nrows, ncols, symmetric) is None:
            return MatrixMarketData(
                (nrows, ncols), entries["row"] - 1, entries["col"] - 1,
                entries["value"].copy(), symmetric, "coordinate",
            )

    # a fault: report the line a line-by-line read stops at, the count
    # first, then the first entry line at fault in any way
    entry_lines = [lineno + 1 + i for i, text in enumerate(body) if text.strip()]
    if len(entry_lines) != count:
        where = entry_lines[count] if len(entry_lines) > count else len(lines)
        raise MatrixMarketFormatError(
            f"expected {count} {what}, found {len(entry_lines)}", line=where
        )
    if entries is None:
        entries = _load(body[:_first_unparsable(body, dtype, converters)], dtype, converters)
    pos = None
    if layout == "coordinate":
        pos = _first_index_fault(entries, nrows, ncols, symmetric)
    at = entry_lines[entries.shape[0] if pos is None else pos]
    raise _entry_error(lines[at - 1], at, layout, field, nrows, ncols, symmetric)


def write_coordinate(path, rows, cols, values, shape, symmetric=False):
    """Write COO triplets (0-based) as a coordinate file.

    With symmetric=True the triplets must already be restricted to the lower
    triangle (row >= col); the file then declares symmetric storage.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not rows.shape == cols.shape == values.shape:
        raise ValueError("rows, cols and values must have one shape")
    if symmetric and np.any(cols > rows):
        raise ValueError("symmetric output requires lower-triangle triplets")
    symmetry = "symmetric" if symmetric else "general"
    entries = zip((rows + 1).tolist(), (cols + 1).tolist(), values.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {symmetry}\n")
        fh.write(f"{shape[0]} {shape[1]} {values.shape[0]}\n")
        fh.write("%d %d %.17g\n" * values.size % tuple(chain.from_iterable(entries)))


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
        fh.write("%.17g\n" * a.size % tuple(a.ravel(order="F").tolist()))
