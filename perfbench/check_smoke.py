"""Smoke test of the benchmark harness: tiny strata, a few seconds each.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps it out of the default test collection, so the main
suite does not slow down.  It checks that every end-to-end and per-layer
metric is emitted with its unit and that ``failed_frac`` carries its
base; it does not check the program's numbers, which the smoke strata
are too coarse for.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

ISSUE_E2E = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
    "known_defect_frac": "ratio",
}
PER_WORKLOAD = {
    "bs_asymptotics": {"hs_sweep_s": "s", "escape_s": "s", "roots_s": "s"},
    "strip_oracle": {"oracle_s": "s", "fd_eig_s": "s", "opnorm_s": "s"},
    "cli_batch": {"cli_p50_s": "s", "field_export_s": "s"},
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, *base = line.split()
            printed[name] = (float(value), unit, base)
    return json.loads(lines[-1]), printed


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload):
    result, printed = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in {**ISSUE_E2E, **PER_WORKLOAD[workload]}.items():
        assert printed[name][1] == unit, name
    assert printed["failed_frac"][2] == [f"base={result['attempted']}"]
    assert printed["known_defect_frac"][2] == printed["failed_frac"][2]
    assert printed["failed_frac"][0] == pytest.approx(
        result["failed"] / result["attempted"]
        + printed["known_defect_frac"][0])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics(workload):
    result, printed = _run(workload, 1)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert {k: v[1] for k, v in printed.items()} == want
    # the top-level spans account for the traced wall time
    assert result["metrics"]["trace.coverage_frac"]["value"] > 0.9


def test_import_split_parses_importtime():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |     numpy.core",
        "import time:       200 |        500 |   numpy",
        "import time:        50 |        50 |     scipy",
        "import time:        10 |        600 |   sgnspec.bs",
        "import time:        10 |       1110 | sgnspec",
    ]
    split = run.import_split(lines)
    assert split == pytest.approx(
        {"sgnspec": 1110e-6, "numpy": 500e-6, "scipy": 50e-6})
