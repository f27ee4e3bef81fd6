"""Fold perfbench result files into one parent-versus-change summary.

Run from the root of a checkout:

    python3 tools/bench_fold.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ... --out BENCH_<PR>.json

Each input is a ``.perfbench/result-<workload>-trace<k>.json`` written by
``perfbench/run.py``.  The next run of the same workload overwrites that
file, so copy it aside after every run.  Runs are grouped by workload and
trace mode.  For every metric the output holds, per side, the median and
the quartiles over runs and the number of runs, plus the relative change
of the medians.  Given in run order with equally many runs per side, the
i-th parent and the i-th change run form a pair, and ``change_lower``
counts the pairs in which the change's value is the lower one.

Each row also gets a ``verdict``, printed one row a line: ``gain`` when
the change is better in at least 9 of 10 pairs and its median beats the
parent's by more than the parent's interquartile range; ``regression``
when its median is worse than the parent's by more than the metric's
relative ``bound`` in BENCHMARK.json (end-to-end metrics only);
otherwise ``neutral``.  Which way is better comes from BENCHMARK.json,
and is lower for metrics it does not list.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

# a gain needs the change better in at least this share of the pairs
GAIN_PAIRS = 0.9


def _load(paths: list[str]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for path in paths:
        rec = json.loads(Path(path).read_text())
        key = f"{rec['workload']}-trace{rec['trace']}"
        groups.setdefault(key, []).append(rec)
    return groups


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _rules(benchmark: dict) -> dict[str, tuple[str, float | None]]:
    """metric -> (which way is better, relative bound or None)."""
    rules = {m["name"]: (m["better"], None)
             for m in benchmark.get("per_layer", [])}
    rules.update((m["name"], (m["better"], m["bound"]))
                 for m in benchmark.get("end_to_end", []))
    return rules


def _verdict(p: list[float], c: list[float], row: dict, better: str,
             bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = row["parent"]["median"], row["change"]["median"]
    if bound is not None and sign * (cm - pm) > bound * abs(pm):
        return "regression"
    iqr = row["parent"]["q3"] - row["parent"]["q1"]
    wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
    if (len(p) == len(c) and wins >= GAIN_PAIRS * len(p)
            and sign * (pm - cm) > iqr):
        return "gain"
    return "neutral"


def fold(parent: dict[str, list[dict]], change: dict[str, list[dict]],
         rules: dict[str, tuple[str, float | None]]) -> dict:
    out = {}
    for key in sorted(set(parent) & set(change)):
        prs, chs = parent[key], change[key]
        metrics = {}
        for name, meta in sorted(prs[0]["metrics"].items()):
            p = [r["metrics"][name]["value"] for r in prs]
            c = [r["metrics"][name]["value"] for r in chs
                 if name in r["metrics"]]
            if not c:
                continue
            row = {"unit": meta["unit"], "parent": _spread(p),
                   "change": _spread(c)}
            pm = row["parent"]["median"]
            if pm:
                row["median_change_frac"] = row["change"]["median"] / pm - 1
            if len(p) == len(c):
                row["change_lower"] = (
                    f"{sum(b < a for a, b in zip(p, c))}/{len(p)}")
            row["verdict"] = _verdict(p, c, row,
                                      *rules.get(name, ("lower", None)))
            metrics[name] = row
        out[key] = {"seeds": sorted({r["seed"] for r in prs + chs}),
                    "env": prs[0]["env"], "metrics": metrics}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True,
                    help="result files of the parent commit, in run order")
    ap.add_argument("--change", nargs="+", required=True,
                    help="result files of the change, in run order")
    ap.add_argument("--out", required=True, help="summary JSON to write")
    root = Path(__file__).resolve().parents[1]
    ap.add_argument("--benchmark", default=str(root / "BENCHMARK.json"),
                    help="benchmark declaration with each metric's "
                         "direction and bound (default: the checkout's)")
    args = ap.parse_args(argv)
    parent, change = _load(args.parent), _load(args.change)
    unmatched = sorted(set(parent) ^ set(change))
    if unmatched:
        print(f"no runs on the other side for: {', '.join(unmatched)}",
              file=sys.stderr)
        return 2
    rules = _rules(json.loads(Path(args.benchmark).read_text()))
    summary = fold(parent, change, rules)
    Path(args.out).write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for key, group in summary.items():
        for name, row in group["metrics"].items():
            pm, cm = row["parent"]["median"], row["change"]["median"]
            print(f"{key} {name} {pm:.6g} -> {cm:.6g} "
                  f"{row.get('change_lower', '-')} lower: {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
