"""Pseudospectrum field assembly and deterministic export.

Evaluates the two-sided bounds (and optionally the finite-difference
oracle) over a rectangular grid in the spectral plane, records a status
per point, and serializes the result as CSV or JSON with reproducible
formatting: floats are written with repr so that re-running the same
version on the same inputs yields byte-identical files.  Grid, field
and export use the standard library only; the finite-difference oracle
and load_field_csv, which returns NumPy arrays, import what they need
when they run.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, repeat
from typing import TYPE_CHECKING, NamedTuple

from .closed import DEFAULT_TOL_SPEC, _linspace, norm_bounds
from .closed import STATUS_OK  # re-exported
from .errors import ConfigError, SgnSpecError

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    import numpy as np

# most points a GridSpec may hold.  Scaled from 10^5 points (2-core x86,
# Python 3.11), a grid at the ceiling takes ~3 s and ~76 MB in
# compute_field (peak RSS above the interpreter's), ~2 s to export as
# CSV or JSON, which adds only the re axis and one point as text to
# that peak, and ~3 s and ~65 MB to read back with load_field_csv;
# with_oracle adds one FD norm estimate per point, up to ~4 s each
# (fdop.MAX_ORACLE_NODES).
MAX_GRID_POINTS = 1_000_000

_CSV_COLUMNS = ("re", "im", "region", "status",
                "lower", "upper", "oracle", "oracle_err")
_TEXT_COLUMNS = ("region", "status")  # the others hold floats


class _Grid(NamedTuple):
    re_min: float
    re_max: float
    re_count: int
    im_min: float
    im_max: float
    im_count: int


class GridSpec(_Grid):
    """Rectangular grid in the complex spectral plane, of at most
    MAX_GRID_POINTS points; ConfigError otherwise."""

    __slots__ = ()

    def __new__(cls, re_min: float, re_max: float, re_count: int,
                im_min: float, im_max: float, im_count: int) -> GridSpec:
        try:
            re_n, im_n = map(operator.index, (re_count, im_count))
        except TypeError:
            raise ConfigError("grid counts must be integers") from None
        if re_n < 1 or im_n < 1:
            raise ConfigError("grid counts must be positive")
        if not all(map(math.isfinite, (re_min, re_max, im_min, im_max))):
            raise ConfigError("grid bounds must be finite")
        if re_max < re_min or im_max < im_min:
            raise ConfigError("grid bounds must be ordered")
        if not (math.isfinite(re_max - re_min)
                and math.isfinite(im_max - im_min)):
            raise ConfigError("grid span overflows the float range")
        if re_n * im_n > MAX_GRID_POINTS:
            raise ConfigError(f"grid of {re_count}x{im_count} "
                              f"points exceeds {MAX_GRID_POINTS} points")
        return super().__new__(cls, re_min, re_max, re_count,
                               im_min, im_max, im_count)

    @classmethod
    def _make(cls, iterable) -> GridSpec:
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)

    def _rows(self) -> tuple[list[list[float]], list[tuple[int, float]]]:
        """The two lists of real parts a row may hold and, per row from
        im_min up, the index of its list and its imaginary part.

        The parts are those of NumPy's re[None, :] + 1j * im[:, None],
        which built the points before: the imaginary part is im + 0.0,
        and a row whose im has a clear sign bit holds re + 0.0; both
        turn a -0.0 into 0.0.
        """
        re = _linspace(self.re_min, self.re_max, self.re_count)
        im = _linspace(self.im_min, self.im_max, self.im_count)
        return ([re, [r + 0.0 for r in re]],
                [(int(math.copysign(1.0, i) > 0.0), i + 0.0) for i in im])

    def points(self) -> list[complex]:
        """The im_count * re_count grid points, row-major in im."""
        return list(self._points())

    def _points(self) -> Iterator[complex]:
        """The points of points(), made one at a time as they are taken."""
        re_parts, rows = self._rows()
        return (complex(r, i) for k, i in rows for r in re_parts[k])


class PseudospectrumField(NamedTuple):
    """Bounds and statuses evaluated over a GridSpec, each a flat list in
    the row-major order of GridSpec.points(); the two oracle columns are
    None without an oracle."""

    grid: GridSpec
    lower: list[float]
    upper: list[float]
    status: list[str]
    region: list[str]
    oracle: list[float] | None
    oracle_err: list[float] | None
    meta: dict


def compute_field(grid: GridSpec,
                  with_oracle: bool = False) -> PseudospectrumField:
    """Evaluate the bound pair at every grid point, as closed.norm_bounds
    selects it.

    Inside the half-strip both the pseudomode lower bound and the Schur
    upper bound apply (status "ok").  Elsewhere the numerical-range
    bound is an upper bound, equal to the norm where |Im z| >= 1, and is
    stored as both lower and upper (status "numrange"); for Re z < 0,
    |Im z| < 1 it exceeds the norm, so it is no lower bound there.
    Points on the spectrum carry inf (status "spectrum"), points where
    the bound overflows NaN (status "skipped").  with_oracle
    additionally runs fdop.resolvent_norm_fd, on the grid it derives
    from z, at every point with finite bounds.  A point where it raises
    keeps NaN in both oracle columns and does not stop the field:
    meta["oracle_failed"], present only if some point failed, lists
    each such point in order as re and im (repr text), the error's
    class name and its message.
    """
    lower, upper, status, region = [], [], [], []
    oracle = oracle_err = None
    failed = []
    if with_oracle:
        from .fdop import resolvent_norm_fd

        n = grid.re_count * grid.im_count
        oracle, oracle_err = [math.nan] * n, [math.nan] * n
    for i, z in enumerate(grid._points()):
        nb = norm_bounds(z)
        region.append(nb.region.name)
        status.append(nb.status)
        lower.append(nb.lower)
        upper.append(nb.upper)
        if with_oracle and nb.error is None:
            try:
                res = resolvent_norm_fd(z)
            except SgnSpecError as exc:
                failed.append({"re": _fmt(z.real), "im": _fmt(z.imag),
                               "error": type(exc).__name__,
                               "reason": str(exc)})
                continue
            oracle[i], oracle_err[i] = float(res.value), float(res.error)

    meta = {"with_oracle": with_oracle, "tol_spec": DEFAULT_TOL_SPEC}
    if failed:
        meta["oracle_failed"] = failed
    return PseudospectrumField(grid, lower, upper, status, region,
                               oracle, oracle_err, meta)


def _fmt(x: float) -> str:
    return repr(float(x))


def _columns(fld: PseudospectrumField) -> dict[str, Iterable]:
    """The field's columns in _CSV_COLUMNS order, each a row-major
    iterable: re and im as text, formatted once per axis value and
    repeated as the rows come, the others as the field holds them; the
    two oracle columns only when the field has an oracle."""
    re_parts, rows = fld.grid._rows()
    re_text = [[_fmt(r) for r in part] for part in re_parts]
    n = fld.grid.re_count
    cols = {"re": chain.from_iterable(re_text[k] for k, _ in rows),
            "im": chain.from_iterable(repeat(_fmt(i), n) for _, i in rows),
            "region": fld.region, "status": fld.status,
            "lower": fld.lower, "upper": fld.upper}
    if fld.oracle is not None:
        cols.update(oracle=fld.oracle, oracle_err=fld.oracle_err)
    return cols


def _cell(name: str) -> str:
    """%-format of one cell: repr for the bound and oracle floats, str for
    the re and im text and the region and status names, which no cell
    needs to quote or escape in CSV or JSON."""
    return "%s" if name in ("re", "im") + _TEXT_COLUMNS else "%r"


def _csv_parts(fld: PseudospectrumField) -> Iterator[str]:
    """The CSV text of the field, the header line first and then one
    line per point as it is formatted."""
    cols = _columns(fld)
    row = ",".join(_cell(name) if name in cols else ""
                   for name in _CSV_COLUMNS) + "\n"
    return chain([",".join(_CSV_COLUMNS) + "\n"],
                 map(row.__mod__, zip(*cols.values())))


def _json_parts(fld: PseudospectrumField) -> Iterator[str]:
    """The JSON text of the field: the grid and meta objects, rendered
    when this is called, with the first point; then one point per part,
    as it is formatted; then the closing brackets."""
    import json

    g = fld.grid
    head = json.dumps(
        {"grid": {"re_min": _fmt(g.re_min), "re_max": _fmt(g.re_max),
                  "re_count": g.re_count, "im_min": _fmt(g.im_min),
                  "im_max": _fmt(g.im_max), "im_count": g.im_count},
         "meta": fld.meta},
        indent=2, sort_keys=True)
    cols = _columns(fld)
    keys = sorted(cols)
    point = ("    {\n"
             + ",\n".join(f'      "{k}": "{_cell(k)}"' for k in keys)
             + "\n    }")
    points = zip(*(cols[k] for k in keys))
    # head ends in "\n}", and "points" sorts after "grid" and "meta"
    first = head[:-2] + ',\n  "points": [\n' + point % next(points)
    return chain([first], map((",\n" + point).__mod__, points),
                 ["\n  ]\n}\n"])


def field_to_csv(fld: PseudospectrumField) -> str:
    """Render the field as CSV text with repr-formatted floats; without an
    oracle the two oracle cells are empty."""
    return "".join(_csv_parts(fld))


def field_to_json(fld: PseudospectrumField) -> str:
    """Render the field as a JSON document with repr-formatted floats.

    Floats are stored as strings to keep the byte stream independent of
    the JSON encoder's float formatting.  The layout is that of
    json.dumps(indent=2, sort_keys=True): the grid and meta objects are
    rendered by it, and every point from one template with its keys in
    sorted order.
    """
    return "".join(_json_parts(fld))


def export_field(fld: PseudospectrumField, path: str) -> None:
    """Write the field to path: JSON if path ends in .json, else CSV.

    The bytes are those of field_to_json or field_to_csv, written one
    point at a time as each is formatted: besides the field, the export
    holds one point's text and the re axis as text, not the whole text.
    The JSON head is rendered before the file is opened, so an error
    there leaves no file.
    """
    parts = (_json_parts(fld) if path.endswith(".json")
             else _csv_parts(fld))
    with open(path, "w", newline="") as fh:
        fh.writelines(parts)


def load_field_csv(path: str) -> dict[str, np.ndarray]:
    """Parse an exported CSV back into column arrays (round-trip check).

    Empty numeric cells read as NaN.  The file is read row by row: a
    numeric cell goes into its column's typed buffer, which NumPy takes
    over without a copy, and a text cell is kept as one reference to a
    string shared by every equal cell: about 8 bytes a cell (~85 B a row
    at the peak, while the text columns become arrays), and no parsed
    row is kept.  Of a
    repeated header name the last column counts.  Raises ConfigError,
    naming the file, at the first row that has another number of cells
    than the header; else, column by column in export order, where a
    column is missing or where its first numeric cell that does not
    parse is.
    """
    import csv
    from array import array

    import numpy as np

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        where = {name: j for j, name in enumerate(header)}
        cols = {name: [] if name in _TEXT_COLUMNS else array("d")
                for name in _CSV_COLUMNS if name in where}
        floats = [(name, where[name], vals) for name, vals in cols.items()
                  if name not in _TEXT_COLUMNS]
        texts = [(where[name], cols[name]) for name in _TEXT_COLUMNS
                 if name in cols]
        shared: dict[str, str] = {}
        bad: dict[str, tuple[int, str]] = {}  # first bad cell per column
        for i, row in enumerate(filter(None, reader), 1):
            if len(row) != len(header):
                raise ConfigError(f"{path}: data row {i} has {len(row)} "
                                  f"cells, the header {len(header)}")
            for name, j, vals in floats:
                cell = row[j]
                try:
                    vals.append(float(cell) if cell else math.nan)
                except ValueError:
                    vals.append(math.nan)
                    bad.setdefault(name, (i, cell))
            for j, vals in texts:
                vals.append(shared.setdefault(row[j], row[j]))
    out: dict[str, np.ndarray] = {}
    for name in _CSV_COLUMNS:
        if name not in cols:
            raise ConfigError(f"{path}: no column {name!r}")
        if name in bad:
            i, cell = bad[name]
            raise ConfigError(f"{path}: column {name!r}, data row {i}: "
                              f"{cell!r} is not a number")
        out[name] = (np.array(cols[name], dtype=object)
                     if name in _TEXT_COLUMNS else np.frombuffer(cols[name]))
    return out
