"""Pseudospectrum field assembly and deterministic export.

Evaluates the two-sided bounds (and optionally the finite-difference
oracle) over a rectangular grid in the spectral plane, records a status
per point, and serializes the result as CSV or JSON with reproducible
formatting: floats are written with repr so that re-running the same
version on the same inputs yields byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .closed import DEFAULT_TOL_SPEC, norm_bounds
from .closed import (STATUS_NUMRANGE, STATUS_OK,  # re-exported
                     STATUS_SKIPPED, STATUS_SPECTRUM)
from .errors import ConfigError
from .fdop import resolvent_norm_fd

# most points a GridSpec may hold.  Scaled from 10^5 points (2-core x86,
# Python 3.11), a grid at the ceiling takes ~8 s and ~50 MB in
# compute_field, ~9 s and ~0.6 GB to export as CSV and ~20 s and ~2 GB
# as JSON; with_oracle adds one FD norm estimate per point.
MAX_GRID_POINTS = 1_000_000

_CSV_COLUMNS = ("re", "im", "region", "status",
                "lower", "upper", "oracle", "oracle_err")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid in the complex spectral plane, of at most
    MAX_GRID_POINTS points; ConfigError otherwise."""

    re_min: float
    re_max: float
    re_count: int
    im_min: float
    im_max: float
    im_count: int

    def __post_init__(self):
        if self.re_count < 1 or self.im_count < 1:
            raise ConfigError("grid counts must be positive")
        if self.re_max < self.re_min or self.im_max < self.im_min:
            raise ConfigError("grid bounds must be ordered")
        if self.re_count * self.im_count > MAX_GRID_POINTS:
            raise ConfigError(f"grid of {self.re_count}x{self.im_count} "
                              f"points exceeds {MAX_GRID_POINTS} points")

    def points(self) -> np.ndarray:
        """(im_count, re_count) array of grid points, row-major in im."""
        re = np.linspace(self.re_min, self.re_max, self.re_count)
        im = np.linspace(self.im_min, self.im_max, self.im_count)
        return re[None, :] + 1j * im[:, None]


@dataclass
class PseudospectrumField:
    """Bounds and statuses evaluated over a GridSpec."""

    grid: GridSpec
    lower: np.ndarray
    upper: np.ndarray
    status: np.ndarray
    region: np.ndarray
    oracle: np.ndarray | None = None
    oracle_err: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def compute_field(grid: GridSpec, with_oracle: bool = False,
                  oracle_n: int = 2001) -> PseudospectrumField:
    """Evaluate the bound pair at every grid point, as closed.norm_bounds
    selects it.

    Inside the half-strip both the pseudomode lower bound and the Schur
    upper bound apply (status "ok").  Elsewhere the numerical-range
    bound is an upper bound, equal to the norm where |Im z| >= 1, and is
    stored as both lower and upper (status "numrange"); for Re z < 0,
    |Im z| < 1 it exceeds the norm, so it is no lower bound there.
    Points on the spectrum carry inf (status "spectrum"), points where
    the bound overflows NaN (status "skipped").  with_oracle
    additionally runs the finite-difference norm estimate at every point
    with finite bounds.
    """
    pts = grid.points()
    shape = pts.shape
    lower = np.empty(shape)
    upper = np.empty(shape)
    status = np.empty(shape, dtype=object)
    region = np.empty(shape, dtype=object)
    oracle = np.full(shape, math.nan) if with_oracle else None
    oracle_err = np.full(shape, math.nan) if with_oracle else None

    for idx in np.ndindex(shape):
        z = complex(pts[idx])
        nb = norm_bounds(z)
        region[idx] = nb.region.name
        status[idx], lower[idx], upper[idx] = nb.status, nb.lower, nb.upper
        if with_oracle and nb.error is None:
            res = resolvent_norm_fd(z, n=oracle_n)
            oracle[idx] = res.value
            oracle_err[idx] = res.error

    meta = {"with_oracle": with_oracle, "tol_spec": DEFAULT_TOL_SPEC}
    if with_oracle:
        meta["oracle_n"] = oracle_n
    return PseudospectrumField(grid=grid, lower=lower, upper=upper,
                               status=status, region=region,
                               oracle=oracle, oracle_err=oracle_err,
                               meta=meta)


def _fmt(x: float) -> str:
    return repr(float(x))


def _rows(fld: PseudospectrumField):
    """Formatted cells of each grid point in row-major order, in
    _CSV_COLUMNS order; the two oracle cells are left out when the field
    has no oracle."""
    pts = fld.grid.points()
    floats = [pts.real, pts.imag, fld.lower, fld.upper]
    if fld.oracle is not None:
        floats += [fld.oracle, fld.oracle_err]
    re, im, lower, upper, *oracle = (
        [_fmt(v) for v in np.ravel(col).tolist()] for col in floats)
    region = [str(v) for v in np.ravel(fld.region)]
    status = [str(v) for v in np.ravel(fld.status)]
    return zip(re, im, region, status, lower, upper, *oracle)


def field_to_csv(fld: PseudospectrumField) -> str:
    """Render the field as CSV text with repr-formatted floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    empty = () if fld.oracle is not None else ("", "")
    writer.writerows(row + empty for row in _rows(fld))
    return buf.getvalue()


def field_to_json(fld: PseudospectrumField) -> str:
    """Render the field as a JSON document with repr-formatted floats.

    Floats are stored as strings to keep the byte stream independent of
    the JSON encoder's float formatting.
    """
    g = fld.grid
    doc = {
        "grid": {"re_min": _fmt(g.re_min), "re_max": _fmt(g.re_max),
                 "re_count": g.re_count, "im_min": _fmt(g.im_min),
                 "im_max": _fmt(g.im_max), "im_count": g.im_count},
        "meta": fld.meta,
        "points": [dict(zip(_CSV_COLUMNS, row)) for row in _rows(fld)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def export_field(fld: PseudospectrumField, path: str,
                 fmt: str | None = None) -> None:
    """Write the field to path as CSV or JSON (inferred from the suffix)."""
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    if fmt == "csv":
        text = field_to_csv(fld)
    elif fmt == "json":
        text = field_to_json(fld)
    else:
        raise ConfigError(f"unknown export format {fmt!r}")
    with open(path, "w", newline="") as fh:
        fh.write(text)


def load_field_csv(path: str) -> dict[str, np.ndarray]:
    """Parse an exported CSV back into column arrays (round-trip check)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out: dict[str, np.ndarray] = {}
    for col in _CSV_COLUMNS:
        vals = [r[col] for r in rows]
        if col in ("region", "status"):
            out[col] = np.array(vals, dtype=object)
        else:
            out[col] = np.array(
                [math.nan if v == "" else float(v) for v in vals])
    return out
