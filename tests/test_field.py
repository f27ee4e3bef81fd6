"""Tests for field assembly and deterministic export."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference as ref
from sgnspec import fdop
from sgnspec.errors import ConfigError, ConvergenceError
from sgnspec.field import (MAX_GRID_POINTS, GridSpec, compute_field,
                           export_field, field_to_csv, field_to_json,
                           load_field_csv)


@pytest.fixture(scope="module")
def small_field():
    grid = GridSpec(-3.0, 40.0, 6, -1.6, 1.6, 5)
    return compute_field(grid)


@pytest.fixture(scope="module")
def big_field():
    # the size of each field cli_batch exports
    return compute_field(GridSpec(-5.0, 80.0, 200, -2.0, 2.0, 100))


class TestGridSpec:
    def test_points_shape(self):
        g = GridSpec(0.0, 1.0, 3, -1.0, 1.0, 4)
        pts = g.points()
        assert len(pts) == 12
        assert pts[:3] == [-1j, 0.5 - 1j, 1 - 1j]
        assert [p.real for p in pts[3:6]] == [0.0, 0.5, 1.0]
        assert pts[3].imag == pts[5].imag == pytest.approx(-1.0 / 3.0)
        assert pts[-1] == 1 + 1j

    def test_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(1.0, 0.0, 3, 0.0, 1.0, 3)
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, 0, 0.0, 1.0, 3)
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, 3, 0.0, 1.0, 3)._replace(re_count=0)

    @pytest.mark.parametrize("bounds", [
        (0.0, 1.0, -math.inf, math.inf), (-math.inf, 1.0, 0.0, 1.0),
        (0.0, math.inf, 0.0, 1.0), (0.0, 1.0, math.nan, 1.0),
        (math.nan, math.nan, 0.0, 0.0)])
    def test_non_finite_bounds(self, bounds):
        re_min, re_max, im_min, im_max = bounds
        with pytest.raises(ConfigError, match="finite"):
            GridSpec(re_min, re_max, 3, im_min, im_max, 2)

    @pytest.mark.parametrize("bounds", [
        (-1e308, 1e308, 0.0, 0.0), (0.0, 1.0, -1.7e308, 1.7e308)])
    def test_overflowing_span(self, bounds):
        # linspace would step by inf and give nan and inf points
        re_min, re_max, im_min, im_max = bounds
        with pytest.raises(ConfigError, match="span"):
            GridSpec(re_min, re_max, 3, im_min, im_max, 1)

    def test_non_integer_counts(self):
        # a bare TypeError from np.linspace once; NumPy integers still pass
        with pytest.raises(ConfigError, match="integers"):
            GridSpec(0.0, 1.0, 2.5, 0.0, 1.0, 1)
        g = GridSpec(0.0, 1.0, np.int64(3), 0.0, 1.0, np.int32(2))
        assert len(g.points()) == 6

    def test_point_ceiling(self):
        n = MAX_GRID_POINTS // 2
        assert GridSpec(0.0, 1.0, n, 0.0, 1.0, 2).re_count == n
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, n + 1, 0.0, 1.0, 2)


class TestComputeField:
    def test_statuses_cover_plane(self, small_field):
        statuses = set(small_field.status)
        assert "ok" in statuses
        assert "numrange" in statuses

    def test_interior_is_sandwiched(self, small_field):
        mask = np.array(small_field.status) == "ok"
        lo = np.array(small_field.lower)[mask]
        hi = np.array(small_field.upper)[mask]
        assert np.all(lo <= hi)
        assert np.all(lo > 0)

    def test_numrange_is_tight(self, small_field):
        mask = np.array(small_field.status) == "numrange"
        assert np.all(np.array(small_field.lower)[mask]
                      == np.array(small_field.upper)[mask])

    def test_overflowing_bound_is_skipped(self):
        # the Schur bound overflows near Re z = 1e308; the lower bound
        # does not, but a point with one bound missing carries neither
        fld = compute_field(GridSpec(1e307, 1e308, 2, 0.5, 0.5, 1))
        assert fld.status == ["ok", "skipped"]
        assert math.isfinite(fld.upper[0])
        assert math.isnan(fld.lower[1]) and math.isnan(fld.upper[1])

    def test_spectrum_points_marked(self):
        grid = GridSpec(0.0, 2.0, 3, 1.0, 1.0, 1)  # lies on the upper ray
        fld = compute_field(grid)
        assert fld.status == ["spectrum"] * 3
        assert np.all(np.isinf(np.array(fld.lower)))


# signed zeros and subnormal spans, where NumPy's broadcast sum turns a
# -0.0 part into 0.0
_tiny = st.one_of(st.sampled_from((-0.0, 0.0)), st.floats(-1e-300, 1e-300))
_re_ends = st.one_of(st.floats(-60.0, 120.0), st.floats(1e306, 1.7e308),
                     _tiny)
_im_ends = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((-1.0, 0.0, 1.0)),
                     _tiny)


@st.composite
def grids(draw, re_ends=_re_ends, most=8):
    """Small grids with Re z < 0 and > 0, points on the rays (an im end at
    +-1), points where the bounds overflow (Re z near 1e308), signed
    zeros, subnormal spans and axes of one point."""
    re_min, re_max = sorted((draw(re_ends), draw(re_ends)))
    im_min, im_max = sorted((draw(_im_ends), draw(_im_ends)))
    return GridSpec(re_min, re_max, draw(st.integers(1, most)),
                    im_min, im_max, draw(st.integers(1, most)))


def _same_columns(got, want):
    assert list(got) == list(want)
    for name, col in want.items():
        assert got[name].dtype == col.dtype and got[name].shape == col.shape
        np.testing.assert_array_equal(got[name], col)  # NaN equals NaN


def _check_against_reference(fld, tmp_dir):
    want = {"csv": ref.field_to_csv(fld), "json": ref.field_to_json(fld)}
    assert field_to_csv(fld) == want["csv"]
    assert field_to_json(fld) == want["json"]
    for fmt, text in want.items():  # the streamed writer, byte for byte
        path = tmp_dir / f"field.{fmt}"
        export_field(fld, str(path))
        assert path.read_bytes() == text.encode()
    path = tmp_dir / "field.csv"
    cols = load_field_csv(str(path))
    _same_columns(cols, ref.load_field_csv(str(path)))
    np.testing.assert_array_equal(cols["lower"], np.array(fld.lower))
    np.testing.assert_array_equal(cols["upper"], np.array(fld.upper))


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("field")


class TestAgainstReference:
    """The grid points against NumPy's linspace and broadcasting, and the
    templates and the column-wise reader against csv.writer, the
    indenting json.dumps and csv.DictReader."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(grids(most=12))
    @example(GridSpec(-5.0, -0.0, 7, -0.0, 0.0, 2)).via("-0.0 ends")
    @example(GridSpec(0.0, -0.0, 3, -0.0, -0.0, 1)).via("-0.0 span, one row")
    def test_points_equal_numpy_bitwise(self, grid):
        want = ref.grid_points(grid).ravel()
        assert np.array(grid.points()).tobytes() == want.tobytes()

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(grids())
    @example(GridSpec(1e307, 1e308, 2, 0.5, 0.5, 1)).via("a skipped point")
    @example(GridSpec(0.0, 2.0, 3, -1.0, 1.0, 3)).via("ray points")
    @example(GridSpec(-5.0, -1.0, 4, -0.5, 0.5, 2)).via("Re z < 0")
    @example(GridSpec(2.5, 2.5, 1, 0.3, 0.3, 1)).via("one point")
    @example(GridSpec(-5.0, -0.0, 7, -0.0, 0.0, 2)).via("-0.0 ends")
    @example(GridSpec(-0.0, -0.0, 1, 0.0, -0.0, 3)).via("-0.0, one column")
    @example(GridSpec(0.0, -0.0, 3, -0.0, -0.0, 1)).via("-0.0 span, one row")
    @example(GridSpec(-1e-310, 1e-310, 5, -5e-324, 5e-324, 4)).via(
        "subnormal spans")
    def test_bounds_only(self, tmp_dir, grid):
        fld = compute_field(grid)
        _check_against_reference(fld, tmp_dir)
        assert np.isnan(np.array(fld.lower)).any() == ("skipped" in fld.status)

    @settings(max_examples=12, deadline=None, derandomize=True,
              database=None)
    @given(grids(re_ends=st.floats(-20.0, 60.0), most=3))
    @example(GridSpec(-1.0, 2.0, 2, 0.5, 1.0, 2)).via("a ray point: nan")
    def test_with_oracle(self, tmp_dir, grid):
        fld = compute_field(grid, with_oracle=True)
        _check_against_reference(fld, tmp_dir)
        failed = {complex(float(f["re"]), float(f["im"]))
                  for f in fld.meta.get("oracle_failed", [])}
        np.testing.assert_array_equal(
            np.isnan(np.array(fld.oracle)),
            [s == "spectrum" or z in failed
             for s, z in zip(fld.status, grid.points())])


class TestExport:
    def test_csv_deterministic(self, small_field):
        assert field_to_csv(small_field) == field_to_csv(small_field)

    def test_json_deterministic(self, small_field):
        assert field_to_json(small_field) == field_to_json(small_field)

    def test_csv_round_trip(self, small_field, tmp_path):
        path = str(tmp_path / "field.csv")
        export_field(small_field, path)
        cols = load_field_csv(path)
        pts = small_field.grid.points()
        np.testing.assert_allclose(cols["re"], [p.real for p in pts])
        mask = cols["status"] == "ok"
        finite = cols["lower"][mask]
        assert np.all(np.isfinite(finite))

    def test_json_parses(self, small_field, tmp_path):
        path = str(tmp_path / "field.json")
        export_field(small_field, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["grid"]["re_count"] == small_field.grid.re_count
        assert len(doc["points"]) == len(small_field.lower)
        # stored repr strings parse back to the stored floats
        rec = doc["points"][0]
        assert math.isfinite(float(rec["re"]))

    def test_oracle_columns(self, tmp_path):
        grid = GridSpec(5.0, 8.0, 2, 0.3, 0.3, 1)
        fld = compute_field(grid, with_oracle=True)
        oracle = np.array(fld.oracle)
        assert np.all(np.isfinite(oracle))
        # oracle must respect the two-sided bounds with slack
        assert np.all(oracle >= 0.5 * np.array(fld.lower))
        assert np.all(oracle <= 1.5 * np.array(fld.upper))
        assert "oracle_failed" not in fld.meta

    def test_failed_oracle_point_keeps_the_field(self, monkeypatch):
        # one failure once discarded the whole field
        def oracle(z):
            if z.real == 8.0:
                raise ConvergenceError(f"no convergence at z={z}")
            return real_oracle(z)

        real_oracle = fdop.resolvent_norm_fd
        monkeypatch.setattr(fdop, "resolvent_norm_fd", oracle)
        fld = compute_field(GridSpec(5.0, 8.0, 2, 0.3, 0.3, 1),
                            with_oracle=True)
        assert math.isfinite(fld.oracle[0])
        assert math.isnan(fld.oracle[1]) and math.isnan(fld.oracle_err[1])
        assert fld.meta["oracle_failed"] == [
            {"re": "8.0", "im": "0.3", "error": "ConvergenceError",
             "reason": "no convergence at z=(8+0.3j)"}]
        assert json.loads(field_to_json(fld))["meta"] == fld.meta

    def test_json_render_error_leaves_no_file(self, small_field, tmp_path):
        # the head is rendered before the file is opened
        fld = small_field._replace(meta={**small_field.meta, "x": object()})
        path = tmp_path / "field.json"
        with pytest.raises(TypeError):
            export_field(fld, str(path))
        assert not path.exists()


class TestLoadErrors:
    def _write(self, tmp_path, text):
        path = tmp_path / "field.csv"
        path.write_text(text)
        return str(path)

    def _cells(self, small_field, edits, header=None):
        """The field's CSV text with edits {(data row, column): cell}."""
        lines = field_to_csv(small_field).splitlines()
        for (i, name), cell in edits.items():
            cells = lines[i].split(",")
            cells[lines[0].split(",").index(name)] = cell
            lines[i] = ",".join(cells)
        if header is not None:
            lines[0] = header
        return "\n".join(lines) + "\n"

    def test_missing_column(self, tmp_path, small_field):
        text = field_to_csv(small_field).replace("region,", "zone,", 1)
        path = self._write(tmp_path, text)
        with pytest.raises(ConfigError, match="'region'") as err:
            load_field_csv(path)
        assert path in str(err.value)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ConfigError, match="'re'"):
            load_field_csv(self._write(tmp_path, ""))

    def test_unparsable_cell(self, tmp_path, small_field):
        text = self._cells(small_field, {(3, "lower"): "1.0.0"})
        path = self._write(tmp_path, text)
        with pytest.raises(ConfigError,
                           match="'lower', data row 3: '1.0.0'") as err:
            load_field_csv(path)
        assert path in str(err.value)

    def test_short_row(self, tmp_path, small_field):
        lines = field_to_csv(small_field).splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        with pytest.raises(ConfigError, match="data row 2 has 7 cells"):
            load_field_csv(self._write(tmp_path, "\n".join(lines)))

    def test_short_row_before_a_bad_cell(self, tmp_path, small_field):
        text = self._cells(small_field, {(1, "re"): "x"})
        lines = text.splitlines()
        lines[9] = lines[9].rsplit(",", 1)[0]
        with pytest.raises(ConfigError, match="data row 9 has 7 cells"):
            load_field_csv(self._write(tmp_path, "\n".join(lines)))

    @pytest.mark.parametrize("edits, header, message", [
        # per column in export order, the first bad cell of each
        ({(6, "lower"): "x", (2, "upper"): "y", (1, "lower"): ""}, None,
         "'lower', data row 6: 'x'"),
        ({(4, "upper"): "y"}, "re,im,region,status,lower,upper,zone,",
         "'upper', data row 4: 'y'"),
        # a missing column before the bad cells of later columns
        ({(4, "upper"): "y"}, "re,im,region,status,zone,upper,,",
         "no column 'lower'"),
    ])
    def test_error_order(self, tmp_path, small_field, edits, header,
                         message):
        text = self._cells(small_field, edits, header)
        with pytest.raises(ConfigError, match=message):
            load_field_csv(self._write(tmp_path, text))

    def test_repeated_header_keeps_the_last_column(self, tmp_path,
                                                   small_field):
        lines = field_to_csv(small_field).splitlines()
        lines = [lines[0] + ",lower"] + [line + ",5.5" for line in lines[1:]]
        cols = load_field_csv(self._write(tmp_path, "\n".join(lines)))
        assert cols["lower"].tolist() == [5.5] * len(small_field.lower)
        assert cols["upper"].tolist() == small_field.upper

    def test_header_only(self, tmp_path, small_field):
        header = field_to_csv(small_field).splitlines()[0]
        cols = load_field_csv(self._write(tmp_path, header + "\n"))
        assert list(cols) == header.split(",")
        for name, col in cols.items():
            text = name in ("region", "status")
            assert col.dtype == (object if text else np.float64)
            assert col.shape == (0,)


def test_json_export_memory(big_field):
    # ~3x the text: the columns, one string per point and the text; one
    # dict per point and the indenting encoder's chunk list took ~9x
    tracemalloc.start()
    text = field_to_json(big_field)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(big_field.lower) == 20_000
    assert peak < 4 * len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_writes_point_by_point(big_field, tmp_path, fmt):
    # ~0.1 MB: the re axis as text and one point's; rendering the whole
    # text before writing it took 4.8 MB (CSV) and 9.5 MB (JSON)
    path = str(tmp_path / f"field.{fmt}")
    export_field(big_field, path)  # imports json outside the trace
    tracemalloc.start()
    export_field(big_field, path)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 1_000_000


def test_load_reads_row_by_row(big_field, tmp_path):
    # 8 B a cell and a row, ~85 B in all: the arrays and the text lists
    # they are made from; a list per row and a float per cell took 600 B
    path = str(tmp_path / "field.csv")
    export_field(big_field, path)
    load_field_csv(path)  # imports csv outside the trace
    tracemalloc.start()
    cols = load_field_csv(path)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(cols["re"]) == 20_000
    assert peak <= 150 * 20_000


def test_compute_field_makes_points_one_at_a_time():
    # ~0.06 MB above what the field keeps: building the list of all 10^5
    # points before evaluating them took 4 MB more
    grid = GridSpec(-5.0, 80.0, 1000, -2.0, 2.0, 100)
    compute_field(GridSpec(-5.0, 80.0, 3, -2.0, 2.0, 2))  # warm-up
    tracemalloc.start()
    fld = compute_field(grid)
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(fld.lower) == 100_000
    assert peak - retained <= 1_000_000
