"""Benchmark of sgnspec: three seeded workloads against the public API and
the ``sgnspec`` CLI, each result checked against an independent reference.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bs_asymptotics --seed 1 \\
        --seconds 35 --trace 0

Workloads: ``bs_asymptotics``, ``strip_oracle``, ``cli_batch`` (see
workloads.py for what each loads and bypasses).  ``--smoke`` runs the same
code on tiny strata in a few seconds.

With ``--trace 0`` the workload runs untraced in a fresh process, in as
many passes as fit in ``--seconds`` (at least one), and times are medians
over passes; set-up is timed in that process and in four more fresh
ones, and the median is reported.  With ``--trace 1`` one pass runs
untraced and one under the span recorder, each in a fresh process, and
the per-layer metrics come from the traced one.  For cli_batch those two
passes replay the CLI argv in-process through ``sgnspec.cli.main``, so
the recorder sees inside the commands.

Every metric is printed as ``metric NAME VALUE UNIT [base]`` and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``).  ``failed`` and ``correct`` count the unexpected failures;
the failed checks of ops with a known defect (workloads.py) are printed
as ``known defect`` lines and counted in ``failed_frac`` and
``known_defect_frac``.  A full record, with the environment and every failure, is
written to ``.perfbench/result-<workload>-trace<k>.json`` and the spans of
a traced run to ``.perfbench/spans-<workload>.jsonl``.  BLAS, OpenMP and
MKL are pinned to one thread in every process.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("bs_asymptotics", "strip_oracle", "cli_batch")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_REPORTED = ("setup_s", "wall_s", "peak_rss_mb")  # on every workload
SETUP_PROBES = 4  # fresh processes timing set-up, besides the job's own
WORKER_TIMEOUT = 170.0

# end-to-end stage metric -> the stage of ops it sums per pass
STAGE_METRICS = {
    "bs_asymptotics": {"hs_sweep_s": "hs_sweep", "escape_s": "escape",
                       "roots_s": "roots"},
    "strip_oracle": {"oracle_s": "oracle", "fd_eig_s": "fd_eig",
                     "opnorm_s": "opnorm"},
    "cli_batch": {},
}

LAYER_UNITS = {
    "kernel.grid_calls": "count", "kernel.grid_entries": "count",
    "kernel.grid_s": "s", "kernel.grid_entries_per_s": "1/s",
    "kernel.grid_bytes": "B",
    "quadrature.grid_calls": "count", "quadrature.grid_nodes": "count",
    "quadrature.grid_s": "s",
    "bounds.apply_calls": "count", "bounds.apply_nodes": "count",
    "bounds.apply_s": "s", "bounds.apply_ns_per_node": "ns",
    "bounds.power_iters": "count", "bounds.closed_calls": "count",
    "bounds.closed_s": "s",
    "fdop.norm_calls": "count", "fdop.norm_unknowns": "count",
    "fdop.norm_s": "s", "fdop.norm_s_per_unknown": "s",
    "fdop.build_s": "s", "fdop.eig_near_calls": "count",
    "fdop.eig_near_unknowns": "count", "fdop.eig_near_s": "s",
    "bs.diag_calls": "count", "bs.diag_s": "s", "bs.diag_self_s": "s",
    "bs.diag_n_max": "count", "bs.assemble_calls": "count",
    "bs.assemble_entries": "count", "bs.assemble_s": "s",
    "bs.l_matrix_s": "s",
    "bs.specrad_calls": "count", "bs.specrad_s": "s",
    "bs.specrad_dense_calls": "count", "bs.arnoldi_matvecs": "count",
    "bs.root_calls": "count", "bs.root_s": "s", "bs.det_evals": "count",
    "bs.det_evals_per_root": "count", "bs.roots_ok_frac": "ratio",
    "field.compute_calls": "count", "field.points": "count",
    "field.compute_s": "s", "field.points_per_s": "1/s", "field.csv_s": "s",
    "field.json_s": "s", "field.export_bytes": "B", "field.load_s": "s",
    "models.calls": "count", "models.s": "s",
    "cli.import_s": "s", "cli.import_scipy_s": "s", "cli.import_numpy_s": "s",
    "cli.main_s": "s", "cli.proc_floor_s": "s",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(env, workload, seed, mode, seconds=0.0, smoke=False,
               traced=False, workdir=None, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--traced")
    if workdir is not None:
        cmd += ["--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} for {workload} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed(env, cmd, repeats) -> tuple[float, list[str]]:
    """Median wall time of a command, and the stderr of its last run."""
    times, err = [], ""
    for _ in range(repeats):
        t = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        times.append(time.perf_counter() - t)
        err = proc.stderr
        if proc.returncode != 0:
            raise SystemExit(f"{cmd} exited {proc.returncode}: {err}")
    return statistics.median(times), err.splitlines()


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_split(lines) -> dict[str, float]:
    """Cumulative import seconds of sgnspec.cli, and of NumPy and SciPy
    at their outermost imports, from ``python -X importtime`` output."""
    recs = []
    for line in lines:
        m = _IMPORT_LINE.match(line)
        if m:
            recs.append((int(m.group(2)) * 1e-6, len(m.group(3)) // 2,
                         m.group(4)))
    out = {"sgnspec": 0.0, "numpy": 0.0, "scipy": 0.0}
    # importtime prints children before their parent; walk it backwards so
    # that each record's ancestors are on the stack
    stack: list[str] = []
    for cum, depth, name in reversed(recs):
        del stack[depth:]
        top = name.split(".")[0]
        if top in out and not any(a.split(".")[0] == top for a in stack):
            out[top] += cum
        stack.append(name)
    return out


def cli_layers(env) -> dict[str, float]:
    samples = []
    for _ in range(3):
        _, err = _timed(env, [sys.executable, "-X", "importtime", "-c",
                              "import sgnspec.cli"], 1)
        samples.append(import_split(err))
    floor, _ = _timed(env, [sys.executable, "-c", "pass"], 5)
    med = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    return {"cli.import_s": med["sgnspec"], "cli.import_numpy_s": med["numpy"],
            "cli.import_scipy_s": med["scipy"], "cli.proc_floor_s": floor}


def _ops(worker) -> list:
    return [op for p in worker["passes"] for op in p]


def _pass_times(worker, stage=None) -> list[float]:
    return [sum(dt for st, _, dt, *_ in p if stage in (None, st))
            for p in worker["passes"]]


def end_to_end(workload, job, setups) -> dict[str, tuple]:
    """name -> (value, unit, base or None) for every end-to-end metric.
    ``failed_frac`` counts every failed op, known defects too, and
    ``known_defect_frac`` the failures of ops with a known defect."""
    ops = _ops(job)
    failed = sum(err is not None for _, _, _, err, _ in ops)
    known = sum(k for *_, k in ops)
    m = {
        "setup_s": (statistics.median(setups), "s", f"n={len(setups)}"),
        "wall_s": (statistics.median(_pass_times(job)), "s",
                   f"passes={len(job['passes'])}"),
        "peak_rss_mb": (job["peak_rss_mb"], "MB", None),
        "failed_frac": (failed / len(ops), "ratio", f"base={len(ops)}"),
        "known_defect_frac": (known / len(ops), "ratio",
                              f"base={len(ops)}"),
    }
    for name, stage in STAGE_METRICS[workload].items():
        m[name] = (statistics.median(_pass_times(job, stage)), "s", None)
    if workload == "cli_batch":
        for name, stage in (("cli_p50_s", "closed"),
                            ("field_export_s", "field")):
            times = [dt for st, _, dt, *_ in ops if st == stage]
            m[name] = (statistics.median(times), "s", f"n={len(times)}")
    return m


def traced_layers(env, workload, seed, smoke, workdir) -> tuple[dict, list]:
    plain = run_worker(env, workload, seed, "replay", smoke=smoke,
                       workdir=workdir)
    traced = run_worker(env, workload, seed, "replay", smoke=smoke,
                        traced=True, workdir=workdir,
                        spans=OUT / f"spans-{workload}.jsonl")
    layers = dict(traced["layers"])
    layers.update(cli_layers(env))
    wall_plain = _pass_times(plain)[0]
    wall_traced = _pass_times(traced)[0]
    layers["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    layers["trace.coverage_frac"] = traced["top_level_s"] / wall_traced
    info = {"spans": traced["spans"], "wrapped": traced["wrapped"],
            "wall_untraced_s": wall_plain, "wall_traced_s": wall_traced,
            "env": traced["env"]}
    return {k: (layers[k], LAYER_UNITS[k], None) for k in LAYER_UNITS}, \
        _ops(plain) + _ops(traced), info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny strata, one pass; checks the harness only")
    args = ap.parse_args()

    if not (ROOT / "src" / "sgnspec" / "__init__.py").is_file():
        print(f"no sgnspec source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = child_env()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace == 0:
            setups = [run_worker(env, args.workload, args.seed, "setup")
                      ["setup_s"] for _ in range(SETUP_PROBES)]
            job = run_worker(env, args.workload, args.seed, "job",
                             seconds=args.seconds, smoke=args.smoke,
                             workdir=workdir)
            setups.append(job["setup_s"])
            metrics = end_to_end(args.workload, job, setups)
            ops, info = _ops(job), {"env": job["env"], "setup_s": setups}
            reported = E2E_REPORTED
        else:
            metrics, ops, info = traced_layers(env, args.workload, args.seed,
                                               args.smoke, workdir)
            reported = tuple(LAYER_UNITS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a failed check of an op with a known defect is reported, and counted
    # in failed_frac, but apart from the unexpected failures that make the
    # run incorrect
    failures: dict[str, int] = {}
    known: dict[str, int] = {}
    for stage, label, _, err, is_known in ops:
        if err is not None:
            into = known if is_known else failures
            key = f"{stage} | {label} | {err}"
            into[key] = into.get(key, 0) + 1
    env_info = info.pop("env")
    print("env " + json.dumps(env_info, sort_keys=True))
    for key, times in failures.items():
        print(f"failed x{times}: {key}")
    for key, times in known.items():
        print(f"known defect x{times}: {key}")
    for name, (value, unit, base) in metrics.items():
        print(f"metric {name} {value!r} {unit}" + (f" {base}" if base else ""))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "smoke": args.smoke, "env": env_info,
              "info": info, "failures": failures, "known_defects": known,
              "ops": [op[:3] for op in ops],
              "metrics": {k: {"value": v, "unit": u, "base": b}
                          for k, (v, u, b) in metrics.items()}}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    failed = sum(failures.values())
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
