"""Tests for tools/bench_fold.py, the benchmark summary folder."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_fold.py"
_spec = importlib.util.spec_from_file_location("bench_fold", _PATH)
bench_fold = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_fold)


def _write(path, workload, wall, seed=1, metric="wall_s"):
    path.write_text(json.dumps({
        "workload": workload, "trace": 0, "seed": seed, "env": {"nproc": 2},
        "metrics": {metric: {"value": wall, "unit": "s", "base": None}}}))
    return str(path)


_BENCHMARK = {
    "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2}],
    "per_layer": [{"name": "rate", "better": "higher"}],
}


def _verdict(tmp_path, parent, change, metric="wall_s"):
    """The verdict of bench_fold on these paired runs, as printed and as
    written."""
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(_BENCHMARK))
    files = [[_write(tmp_path / f"{side}{i}.json", "bs", v, metric=metric)
              for i, v in enumerate(values)]
             for side, values in (("p", parent), ("c", change))]
    out = tmp_path / "BENCH.json"
    assert bench_fold.main(["--parent", *files[0], "--change", *files[1],
                            "--out", str(out), "--benchmark",
                            str(bench)]) == 0
    return json.loads(out.read_text())["bs-trace0"]["metrics"][metric][
        "verdict"]


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


_PARENT = [10.0, 10.4, 9.8, 10.2, 10.0, 9.6, 10.1, 9.9, 10.3, 10.0]


def test_gain_needs_nine_of_ten_pairs_and_the_parent_iqr(tmp_path,
                                                         capsys):
    # parent quartiles 9.925 and 10.175: a drop of 0.5 clears them
    change = [v - 0.5 for v in _PARENT]
    assert _verdict(tmp_path, _PARENT, change) == "gain"
    assert capsys.readouterr().out.rstrip().endswith(
        "10/10 lower: gain")
    # nine of ten pairs still a gain, eight not
    change[0] = 11.0
    assert _verdict(tmp_path, _PARENT, change) == "gain"
    change[1] = 11.0
    assert _verdict(tmp_path, _PARENT, change) == "neutral"


def test_a_drop_within_the_parent_iqr_is_no_gain(tmp_path):
    change = [v - 0.1 for v in _PARENT]
    assert _verdict(tmp_path, _PARENT, change) == "neutral"


def test_regression_past_the_bound(tmp_path):
    # bound 0.2: a median 21 % worse is a regression, 15 % is not
    assert _verdict(tmp_path, _PARENT, [v * 1.21 for v in _PARENT]) == \
        "regression"
    assert _verdict(tmp_path, _PARENT, [v * 1.15 for v in _PARENT]) == \
        "neutral"


def test_direction_comes_from_the_benchmark(tmp_path):
    # "rate" is better higher, and per-layer metrics have no bound
    assert _verdict(tmp_path, _PARENT, [v + 0.5 for v in _PARENT],
                    "rate") == "gain"
    assert _verdict(tmp_path, _PARENT, [v * 0.5 for v in _PARENT],
                    "rate") == "neutral"


def test_a_parent_spread_wider_than_the_bound_is_unresolved(tmp_path):
    # parent quartiles 10.0 and 12.275: 23 % of the median, past the
    # bound 0.2, so an equal change cannot be told from one 15 % worse
    parent = [10.0] * 5 + [10.1] + [13.0] * 4
    assert _verdict(tmp_path, parent, parent) == "unresolved"
    # unless every change run reads better than every parent run
    assert _verdict(tmp_path, parent, [9.9] * 10) == "neutral"
    # per-layer metrics have no bound to resolve
    assert _verdict(tmp_path, parent, parent, "rate") == "neutral"
