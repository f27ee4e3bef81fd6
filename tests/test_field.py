"""Tests for field assembly and deterministic export."""

import json
import math

import numpy as np
import pytest

from sgnspec.errors import ConfigError
from sgnspec.field import (MAX_GRID_POINTS, GridSpec, compute_field,
                           export_field, field_to_csv, field_to_json,
                           load_field_csv)


@pytest.fixture(scope="module")
def small_field():
    grid = GridSpec(-3.0, 40.0, 6, -1.6, 1.6, 5)
    return compute_field(grid)


class TestGridSpec:
    def test_points_shape(self):
        g = GridSpec(0.0, 1.0, 3, -1.0, 1.0, 4)
        assert g.points().shape == (4, 3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(1.0, 0.0, 3, 0.0, 1.0, 3)
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, 0, 0.0, 1.0, 3)

    def test_point_ceiling(self):
        n = MAX_GRID_POINTS // 2
        assert GridSpec(0.0, 1.0, n, 0.0, 1.0, 2).re_count == n
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, n + 1, 0.0, 1.0, 2)


class TestComputeField:
    def test_statuses_cover_plane(self, small_field):
        statuses = set(small_field.status.ravel())
        assert "ok" in statuses
        assert "numrange" in statuses

    def test_interior_is_sandwiched(self, small_field):
        mask = small_field.status == "ok"
        lo = small_field.lower[mask]
        hi = small_field.upper[mask]
        assert np.all(lo <= hi)
        assert np.all(lo > 0)

    def test_numrange_is_tight(self, small_field):
        mask = small_field.status == "numrange"
        assert np.all(small_field.lower[mask] == small_field.upper[mask])

    def test_overflowing_bound_is_skipped(self):
        # the Schur bound overflows near Re z = 1e308; the lower bound
        # does not, but a point with one bound missing carries neither
        fld = compute_field(GridSpec(1e307, 1e308, 2, 0.5, 0.5, 1))
        assert list(fld.status.ravel()) == ["ok", "skipped"]
        assert np.all(np.isfinite(fld.upper[fld.status == "ok"]))
        assert np.isnan(fld.lower[0, 1]) and np.isnan(fld.upper[0, 1])

    def test_spectrum_points_marked(self):
        grid = GridSpec(0.0, 2.0, 3, 1.0, 1.0, 1)  # lies on the upper ray
        fld = compute_field(grid)
        assert np.all(fld.status == "spectrum")
        assert np.all(np.isinf(fld.lower))


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
        np.testing.assert_allclose(
            cols["re"], np.array([p.real for p in pts.ravel()]))
        mask = cols["status"] == "ok"
        finite = cols["lower"][mask]
        assert np.all(np.isfinite(finite))

    def test_json_parses(self, small_field, tmp_path):
        path = str(tmp_path / "field.json")
        export_field(small_field, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["grid"]["re_count"] == small_field.grid.re_count
        assert len(doc["points"]) == small_field.lower.size
        # stored repr strings parse back to the stored floats
        rec = doc["points"][0]
        assert math.isfinite(float(rec["re"]))

    def test_unknown_format(self, small_field, tmp_path):
        with pytest.raises(ConfigError):
            export_field(small_field, str(tmp_path / "x.bin"), fmt="bin")

    def test_oracle_columns(self, tmp_path):
        grid = GridSpec(5.0, 8.0, 2, 0.3, 0.3, 1)
        fld = compute_field(grid, with_oracle=True, oracle_n=3001)
        assert np.all(np.isfinite(fld.oracle))
        # oracle must respect the two-sided bounds with slack
        assert np.all(fld.oracle >= 0.5 * fld.lower)
        assert np.all(fld.oracle <= 1.5 * fld.upper)
