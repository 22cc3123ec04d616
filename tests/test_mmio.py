"""Matrix Market reader/writer: round trips, format coverage, error reporting,
and agreement with the line-by-line reference reader."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from berrkit import mmio
from berrkit.errors import MatrixMarketFormatError

from mmio_reference import read_matrix_market_by_line


def write_text(path, text):
    path.write_text(text, encoding="ascii")
    return path


class TestRoundTrips:
    def test_coordinate_general_bit_exact(self, tmp_path):
        rng = np.random.default_rng(50)
        rows = np.array([0, 2, 1, 4, 4])
        cols = np.array([1, 0, 3, 4, 2])
        vals = rng.standard_normal(5) * 10.0 ** rng.integers(-200, 200, 5)
        path = tmp_path / "g.mtx"
        mmio.write_coordinate(path, rows, cols, vals, (5, 5))
        data = mmio.read_matrix_market(path)
        assert data.shape == (5, 5)
        assert data.layout == "coordinate"
        assert not data.symmetric
        assert np.array_equal(data.rows, rows)
        assert np.array_equal(data.cols, cols)
        assert np.array_equal(data.values, vals)

    def test_coordinate_symmetric_bit_exact(self, tmp_path):
        rows = np.array([0, 1, 2, 2])
        cols = np.array([0, 0, 1, 2])
        vals = np.array([np.pi, -1.0 / 3.0, 1e-308, 4.0])
        path = tmp_path / "s.mtx"
        mmio.write_coordinate(path, rows, cols, vals, (3, 3), symmetric=True)
        data = mmio.read_matrix_market(path)
        assert data.symmetric
        assert np.array_equal(data.values, vals)
        dense = data.to_dense()
        assert np.array_equal(dense, dense.T)
        assert dense[1, 0] == vals[1] == dense[0, 1]

    def test_array_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        a = rng.standard_normal((4, 3))
        path = tmp_path / "a.mtx"
        mmio.write_array(path, a)
        data = mmio.read_matrix_market(path)
        assert data.layout == "array"
        assert np.array_equal(data.to_dense(), a)

    def test_vector_written_as_column(self, tmp_path):
        v = np.array([1.5, -2.5, 3.5])
        path = tmp_path / "v.mtx"
        mmio.write_array(path, v)
        data = mmio.read_matrix_market(path)
        assert data.shape == (3, 1)
        assert np.array_equal(data.to_dense()[:, 0], v)

    def test_symmetric_writer_rejects_upper_triplets(self, tmp_path):
        with pytest.raises(ValueError):
            mmio.write_coordinate(
                tmp_path / "bad.mtx", [0], [1], [1.0], (2, 2), symmetric=True
            )


class TestFormatAcceptance:
    def test_integer_field(self, tmp_path):
        path = write_text(
            tmp_path / "i.mtx",
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 2\n"
            "1 1 3\n"
            "2 2 -7\n",
        )
        data = mmio.read_matrix_market(path)
        assert data.values.dtype == np.float64
        assert_allclose(data.values, [3.0, -7.0])

    def test_fortran_exponents_normalized(self, tmp_path):
        path = write_text(
            tmp_path / "d.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 1.5D+02\n"
            "2 2 -2.5d-01\n",
        )
        data = mmio.read_matrix_market(path)
        assert_allclose(data.values, [150.0, -0.25])

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write_text(
            tmp_path / "c.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "\n"
            "2 2 1\n"
            "% another\n"
            "\n"
            "2 1 4.0\n",
        )
        data = mmio.read_matrix_market(path)
        assert data.to_dense()[1, 0] == 4.0

    def test_case_insensitive_header(self, tmp_path):
        path = write_text(
            tmp_path / "u.mtx",
            "%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL\n1 1 1\n1 1 2.0\n",
        )
        assert mmio.read_matrix_market(path).values[0] == 2.0

    def test_integer_beyond_int64_reads_as_the_nearest_float(self, tmp_path):
        big = 2**70 + 1
        path = write_text(
            tmp_path / "big.mtx",
            "%%MatrixMarket matrix coordinate integer general\n"
            f"2 2 2\n1 1 {big}\n2 2 {-big}\n",
        )
        assert mmio.read_matrix_market(path).values.tolist() == [float(big), float(-big)]

    @pytest.mark.parametrize("field, entry", [
        ("real", "1 1 1_0.5"), ("real", "1_0 1 1.0"), ("integer", "1 1 1_0"),
    ])
    def test_digit_separators_are_refused(self, tmp_path, field, entry):
        # Python's int and float take "1_0" as 10; the bulk parser reads only
        # plain digits, so the one narrowing of the line-by-line reference
        path = write_text(
            tmp_path / "sep.mtx",
            f"%%MatrixMarket matrix coordinate {field} general\n20 20 1\n{entry}\n",
        )
        assert read_matrix_market_by_line(path).values.size == 1
        with pytest.raises(MatrixMarketFormatError) as info:
            mmio.read_matrix_market(path)
        assert info.value.line == 3

    def test_symmetric_array_stores_lower_triangle(self, tmp_path):
        path = write_text(
            tmp_path / "sa.mtx",
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n"
            "1.0\n"
            "2.0\n"
            "3.0\n",
        )
        data = mmio.read_matrix_market(path)
        assert np.array_equal(data.to_dense(), [[1.0, 2.0], [2.0, 3.0]])

    @pytest.mark.parametrize(
        "shape, symmetry",
        [((1, 1), "general"), ((4, 1), "general"), ((1, 4), "general"), ((3, 5), "general"),
         ((1, 1), "symmetric"), ((4, 4), "symmetric")],
    )
    def test_array_entries_run_down_each_column(self, tmp_path, shape, symmetry):
        nrows, ncols = shape
        if symmetry == "symmetric":
            coords = [(i, j) for j in range(ncols) for i in range(j, nrows)]
        else:
            coords = [(i, j) for j in range(ncols) for i in range(nrows)]
        body = "".join(f"{pos + 0.5}\n" for pos in range(len(coords)))
        path = write_text(
            tmp_path / "a.mtx",
            f"%%MatrixMarket matrix array real {symmetry}\n{nrows} {ncols}\n{body}",
        )
        data = mmio.read_matrix_market(path)
        assert data.rows.dtype == data.cols.dtype == np.int64
        assert data.rows.tolist() == [i for i, _ in coords]
        assert data.cols.tolist() == [j for _, j in coords]
        assert data.values.tolist() == [pos + 0.5 for pos in range(len(coords))]


class TestErrorReporting:
    def check(self, tmp_path, text, lineno, fragment):
        path = write_text(tmp_path / "bad.mtx", text)
        with pytest.raises(MatrixMarketFormatError) as info:
            mmio.read_matrix_market(path)
        assert info.value.line == lineno
        assert fragment in str(info.value)

    def test_empty_file(self, tmp_path):
        self.check(tmp_path, "", 1, "empty")

    def test_bad_header(self, tmp_path):
        self.check(tmp_path, "%%NotMatrixMarket\n1 1 1\n", 1, "header")

    def test_unsupported_field(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n",
            1,
            "complex",
        )

    def test_unsupported_symmetry(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n",
            1,
            "skew",
        )

    def test_missing_size_line(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n% only comments\n",
            2,
            "size",
        )

    def test_malformed_size_line(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2\n",
            2,
            "3 integers",
        )

    def test_nonsquare_symmetric(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
            2,
            "square",
        )

    def test_wrong_entry_count(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 2.0\n",
            4,
            "expected 3",
        )

    def test_out_of_range_index(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
            3,
            "outside",
        )

    def test_upper_triangle_in_symmetric_file(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n",
            3,
            "lower triangle",
        )

    def test_unparsable_value(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n",
            3,
            "bad real value",
        )

    def test_integer_too_large_for_a_float(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 " + "9" * 400 + "\n",
            3,
            "bad integer value",
        )

    def test_array_count_checked_before_any_coordinates(self, tmp_path):
        path = write_text(
            tmp_path / "short.mtx",
            "%%MatrixMarket matrix array real general\n1000 1000\n1.0\n",
        )
        tracemalloc.start()
        try:
            with pytest.raises(MatrixMarketFormatError, match="expected 1000000") as info:
                mmio.read_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.line == 3
        assert peak < 1_000_000  # one coordinate per declared entry would take ~100 MB

    @pytest.mark.parametrize("byte", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_control_byte_in_a_comment_keeps_line_numbers(self, tmp_path, byte):
        # str.splitlines() breaks at these bytes too, which shifted every
        # later line number and read the rest of the comment as a size line
        self.check(
            tmp_path,
            f"%%MatrixMarket matrix coordinate real general\n% note{byte}more\n"
            "2 2 1\n1 1 abc\n",
            4,
            "bad real value",
        )

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_every_line_end_counts_one_line(self, tmp_path, end):
        path = tmp_path / "ends.mtx"
        path.write_bytes(end.join([
            "%%MatrixMarket matrix coordinate real general", "% note", "2 2 1",
            "1 1 abc", "",
        ]).encode("ascii"))
        with pytest.raises(MatrixMarketFormatError) as info:
            mmio.read_matrix_market(path)
        assert info.value.line == 4

    @pytest.mark.parametrize("faults, line, fragment", [
        ({700: "7 7 abc"}, 704, "bad real value"),
        ({700: "7 7 abc", 400: "5000 7 1.0"}, 404, "row index 5000 outside"),
        ({700: "7 7 abc", 400: "7 7 1.0 % note"}, 404, "needs 'row col value'"),
        ({999: "7 9 1.0"}, 1003, "lower triangle"),
    ])
    def test_first_fault_among_many_lines_is_named(self, tmp_path, faults, line, fragment):
        # a bad entry is found by bisecting the body; an index fault before
        # it, which only the parsed arrays show, is named first (entry p is
        # on line p + 4)
        entries = [f"{i % 50 + 1} {i % 50 + 1} {i}.5" for i in range(1000)]
        for pos, text in faults.items():
            entries[pos] = text
        self.check(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n% note\n50 50 1000\n"
            + "".join(f"{text}\n" for text in entries),
            line,
            fragment,
        )

    def test_line_number_prefix_in_message(self, tmp_path):
        path = write_text(
            tmp_path / "bad.mtx",
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n",
        )
        with pytest.raises(MatrixMarketFormatError, match="line 3:"):
            mmio.read_matrix_market(path)


_ODD_TOKENS = st.one_of(
    st.sampled_from(["1.5D+3", "x", "9" * 400, "1e400", "-0", "1_0", "nan", "%", "0", "-1"]),
    st.text(max_size=4),
)


@st.composite
def _matrix_market_bytes(draw):
    """Bytes that mostly hold a well-formed header, size line and entries, so
    that the body parser is reached; declared dimensions stay at 50 or below."""

    def usually(value, odd):
        return value if draw(st.integers(0, 9)) else draw(odd)

    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=200))
    layout = usually(draw(st.sampled_from(["coordinate", "array", "ARRAY"])), _ODD_TOKENS)
    field = usually(draw(st.sampled_from(["real", "integer"])), st.just("complex"))
    symmetry = usually(draw(st.sampled_from(["general", "symmetric"])), st.just("hermitian"))
    nrows = usually(draw(st.integers(1, 4)), st.integers(-1, 50))
    ncols = nrows if symmetry == "symmetric" else usually(draw(st.integers(1, 4)),
                                                          st.integers(-1, 50))
    if layout == "coordinate":
        count = usually(draw(st.integers(0, 6)), st.integers(-1, 50))
        size, count = [nrows, ncols, count], min(max(count, 0), 6)
    else:
        size, count = [nrows, ncols], nrows * ncols
        if symmetry == "symmetric":
            count = nrows * (nrows + 1) // 2
        count = count if 0 <= count <= 30 else draw(st.integers(0, 5))
    lines = [f"%%MatrixMarket matrix {layout} {field} {symmetry}"]
    lines.append(usually(" ".join(map(str, size)), _ODD_TOKENS))
    for _ in range(count):
        lines.append(usually(draw(st.sampled_from(["", "% comment"])), st.just("1 2 3 4")))
        if field == "integer":  # some integers are too large for a float
            number = usually(str(draw(st.integers(-99, 99))), st.integers(-10**400, 10**400))
        else:
            number = repr(draw(st.floats()))
        entry = [usually(str(number), _ODD_TOKENS)]
        if layout == "coordinate":
            i = draw(st.integers(1, max(nrows, 1)))
            j = draw(st.integers(1, i if symmetry == "symmetric" else max(ncols, 1)))
            entry = [usually(str(i), _ODD_TOKENS), usually(str(j), _ODD_TOKENS)] + entry
        lines.append(" ".join(entry))
    raw = "\n".join(lines).encode("utf-8", "surrogatepass")
    if draw(st.integers(0, 9)) == 0:
        raw = raw[: draw(st.integers(0, len(raw)))] + draw(st.binary(max_size=8))
    return raw


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(raw=_matrix_market_bytes())
def test_any_bytes_parse_or_raise_with_a_line_number(tmp_path, raw):
    path = tmp_path / "fuzz.mtx"
    path.write_bytes(raw)
    try:
        data = mmio.read_matrix_market(path)
    except MatrixMarketFormatError as exc:
        assert isinstance(exc.line, int) and exc.line >= 1
        assert str(exc).startswith(f"line {exc.line}: ")
    else:
        nrows, ncols = data.shape
        assert data.rows.shape == data.cols.shape == data.values.shape
        assert np.all((0 <= data.rows) & (data.rows < nrows))
        assert np.all((0 <= data.cols) & (data.cols < ncols))


def _uses_digit_separators(raw):
    """The one input the bulk reader refuses and the line-by-line reference
    accepts: a number with digit separators ("1_0", which Python's int and
    float read as 10). Each accepted separator stands between two digits."""
    return re.search(rb"\d_\d", raw) is not None


def _outcome(read, path):
    """A read as comparable bytes: the line of the error raised, or every
    field of the result."""
    try:
        data = read(path)
    except MatrixMarketFormatError as exc:
        return exc.line
    return (data.shape, data.symmetric, data.layout, data.rows.dtype, data.cols.dtype,
            data.values.dtype, data.rows.tobytes(), data.cols.tobytes(), data.values.tobytes())


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(raw=_matrix_market_bytes())
def test_bulk_parse_agrees_with_the_line_by_line_reference(tmp_path, raw):
    # both read the same arrays, or both raise at the same line
    assume(not _uses_digit_separators(raw))
    path = tmp_path / "fuzz.mtx"
    path.write_bytes(raw)
    assert _outcome(mmio.read_matrix_market, path) == _outcome(read_matrix_market_by_line, path)


class TestScipyCrossCheck:
    def test_read_agrees_with_scipy(self, tmp_path):
        sio = pytest.importorskip("scipy.io")
        rng = np.random.default_rng(52)
        rows = np.array([0, 1, 3, 3])
        cols = np.array([2, 1, 0, 3])
        vals = rng.standard_normal(4)
        path = tmp_path / "x.mtx"
        mmio.write_coordinate(path, rows, cols, vals, (4, 4))
        theirs = sio.mmread(str(path)).toarray()
        ours = mmio.read_matrix_market(path).to_dense()
        assert np.array_equal(ours, theirs)

    def test_scipy_written_file_parses(self, tmp_path):
        sio = pytest.importorskip("scipy.io")
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(53)
        dense = np.zeros((5, 4))
        dense[rng.integers(0, 5, 6), rng.integers(0, 4, 6)] = rng.standard_normal(6)
        path = tmp_path / "y.mtx"
        sio.mmwrite(str(path), sparse.coo_matrix(dense))
        data = mmio.read_matrix_market(path)
        assert_allclose(data.to_dense(), dense, rtol=0, atol=0)

    def test_scipy_symmetric_output_parses(self, tmp_path):
        sio = pytest.importorskip("scipy.io")
        sparse = pytest.importorskip("scipy.sparse")
        a = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
        path = tmp_path / "z.mtx"
        sio.mmwrite(str(path), sparse.coo_matrix(a), symmetry="symmetric")
        data = mmio.read_matrix_market(path)
        assert data.symmetric
        assert np.array_equal(data.to_dense(), a)
