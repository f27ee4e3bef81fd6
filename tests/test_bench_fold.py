"""Tests for tools/bench_fold.py, the benchmark summary folder."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_fold.py"
_spec = importlib.util.spec_from_file_location("bench_fold", _PATH)
bench_fold = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_fold)


def _write(path, workload, wall, seed=1):
    path.write_text(json.dumps({
        "workload": workload, "trace": 0, "seed": seed, "env": {"nproc": 2},
        "metrics": {"wall_s": {"value": wall, "unit": "s", "base": None}}}))
    return str(path)


def test_fold_medians_quartiles_and_pairs(tmp_path):
    parent = [_write(tmp_path / f"p{i}.json", "bs", w)
              for i, w in enumerate([4.0, 1.0, 3.0, 2.0, 5.0])]
    change = [_write(tmp_path / f"c{i}.json", "bs", w)
              for i, w in enumerate([1.0, 0.5, 3.5, 1.0, 1.5])]
    out = tmp_path / "BENCH.json"
    assert bench_fold.main(["--parent", *parent, "--change", *change,
                            "--out", str(out)]) == 0
    row = json.loads(out.read_text())["bs-trace0"]["metrics"]["wall_s"]
    assert row["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert row["change"]["median"] == 1.0
    assert row["median_change_frac"] == pytest.approx(-2.0 / 3.0)
    assert row["change_lower"] == "4/5"


def test_unmatched_workload_is_an_error(tmp_path):
    out = tmp_path / "BENCH.json"
    assert bench_fold.main([
        "--parent", _write(tmp_path / "p.json", "bs", 1.0),
        "--change", _write(tmp_path / "c.json", "cli", 1.0),
        "--out", str(out)]) == 2
    assert not out.exists()
