"""One fresh process of the benchmark: set-up, then passes of one workload.

Usage (run.py starts it; the checkout's src/ must be on PYTHONPATH):

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        [--seconds S] [--workdir DIR] [--smoke] [--traced] [--spans FILE]

MODE is ``setup`` (time set-up only), ``job`` (the workload as its user
runs it: at least one pass, and more while they fit in S seconds) or
``replay`` (one pass; for cli_batch the CLI argv go in-process through
``sgnspec.cli.main``).
With ``--traced`` the pass runs under the span recorder.  The last line
of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()  # set-up starts before NumPy or sgnspec load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402  (stdlib only)
from run import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:  # pinned before NumPy loads
    os.environ[_var] = "1"


def _env_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration",
                         f"{blas.get('name')} {blas.get('version')}"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
    }


def _run_pass(ops, rec) -> list:
    """Time each op, then check it untimed; failures stay inside the op.

    Each record is [stage, label, seconds, failure or None, known], where
    ``known`` marks a failed check of an op with a known defect."""
    out = []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if rec is not None:
            rec.op, rec.active = i, True
        t = clock()
        try:
            res = op.run()
            err = None
        except Exception as exc:  # an op failure is counted, not raised
            res, err = None, f"raised {type(exc).__name__}: {exc}"
        dt = clock() - t
        if rec is not None:
            rec.active = False
        known = False
        if err is None:
            try:
                err = op.check(res)
                known = err is not None and op.known_defect is not None
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        out.append([op.stage, op.label, dt, err, known])
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "job", "replay"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", type=Path, default=None)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    import sgnspec
    import workloads

    pkg = Path(sgnspec.__file__).resolve().parent
    if pkg != ROOT / "src" / "sgnspec":
        sys.exit(f"sgnspec was imported from {pkg}, not from {ROOT / 'src'}")
    workloads.warmup(args.workload)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    ops = workloads.build(args.workload, args.seed, args.smoke, args.workdir,
                          in_process=args.mode == "replay")
    rec = None
    if args.traced:
        rec = tracer.Recorder()
        result["wrapped"] = rec.install()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(ops, rec))
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within the budget
        if (args.mode == "replay"
                or elapsed * (len(passes) + 1) / len(passes) > args.seconds):
            break
    result["passes"] = passes
    who = resource.RUSAGE_CHILDREN if (
        args.workload == "cli_batch" and args.mode == "job") \
        else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["env"] = _env_info()
    if rec is not None:
        rec.uninstall()
        ix = tracer.SpanIndex(rec.spans)
        result["layers"] = tracer.layer_metrics(rec.spans)
        result["top_level_s"] = ix.top_level_s()
        result["spans"] = len(rec.spans)
        if args.spans is not None:
            rec.dump(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
