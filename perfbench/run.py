"""Benchmark for vesselxyz: generate, eval and train-loss workloads.

One workload, one run (the last stdout line is the JSON result; untraced
runs report the end-to-end metrics, traced runs the per-layer ones)::

    python3 perfbench/run.py --workload eval --seed 3 --seconds 30 --trace 0

Every workload, untraced and then traced, with a table of all metrics and
the tracing overhead::

    python3 perfbench/run.py --seed 3

Run from the repository root; the program is imported from ``src/``.  Each
workload runs in its own process with one BLAS thread.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: the program's BLAS calls are small (n x 3 by 3 x 3), so
# a run keeps to a single busy core of the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
SETUPS = 3  # set-ups per untraced run; setup_s is their median

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
P90_MIN_OPS = 100  # p90 needs at least ten samples beyond it


def _import_program():
    """Import vesselxyz from this checkout's src/, or exit without a result."""
    if not (SRC / "vesselxyz" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vesselxyz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import vesselxyz

    if Path(vesselxyz.__file__).resolve().parent != SRC / "vesselxyz":
        sys.exit(f"perfbench: imported vesselxyz from {vesselxyz.__file__}, not {SRC}")


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def machine() -> dict:
    import platform

    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break

    def blas_version(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "blas_threads": _blas_threads(),
    }


def _import_seconds() -> float:
    """Time for a fresh interpreter to import the CLI, which every user process pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import vesselxyz.cli"], env=env, check=True)
    return time.perf_counter() - t0


def _run_op(workload, name: str, op, tracer, traced: bool):
    """Time one op, then check it untimed: (seconds, [failure messages])."""
    tracer.enabled = traced
    t0 = time.perf_counter()
    try:
        result, error = workload.run(op), None
    except Exception as e:  # a failed op is counted, and the run goes on
        result, error = None, f"{name} {op}: {type(e).__name__}: {e}"
    took = time.perf_counter() - t0
    tracer.enabled = False
    if error is None:
        error = workload.check(op, result)
    return took, [] if error is None else [error]


def _pass_stats(times: dict):
    """ops_per_s and op_p50_ms of one pass, each op at its mean time in the run.

    A run may end inside a pass, so some ops ran once more than others;
    weighing every op of the pass equally keeps the mix of cheap and costly
    ops the same in every run.
    """
    means = [statistics.fmean(ts) for ts in times.values()]
    return len(means) / sum(means), 1e3 * statistics.median(means)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 resolution: int, scenes: int) -> dict:
    import resource

    import numpy as np

    from spans import Tracer, install_all, per_layer_metrics
    from workloads import WORKLOADS

    tracer = Tracer()
    if traced:
        install_all(tracer)
    workload = WORKLOADS[name](seed, resolution, scenes, tracer, traced)
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        for k in range(1 if traced else SETUPS):
            if k:
                shutil.rmtree(work / f"setup{k - 1}", ignore_errors=True)
            import_s = _import_seconds()
            t0 = time.perf_counter()
            workload.setup(work / f"setup{k}")
            setup_times.append(import_s + time.perf_counter() - t0)

        failures = []
        warmups = workload.warmup_ops()
        for op in warmups:  # untimed: lazy imports and first allocations happen here
            failures += _run_op(workload, name, op, tracer, traced=False)[1]

        # Untraced runs stop before an op that would overrun --seconds, once a
        # whole pass ran, and weigh every op equally (see _pass_stats).  Traced
        # runs measure whole passes, so their per-op counts repeat exactly.
        rng = np.random.default_rng([seed, 0])
        times = defaultdict(list)  # op -> its times in this run
        elapsed, passes, done = 0.0, 0, False
        while not done:
            for op in workload.pass_ops(rng):
                if passes and not traced and elapsed + times[op][0] > seconds:
                    done = True
                    break
                took, errors = _run_op(workload, name, op, tracer, traced)
                times[op].append(took)
                elapsed += took
                failures += errors
            passes += 1
            done = done or elapsed >= seconds
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK_ROOT.rmdir()

    durations = [t for ts in times.values() for t in ts]
    ops = len(durations)
    ops_per_s, op_p50_ms = _pass_stats(times)
    summary = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "ops": ops,
        "warmup_ops": len(warmups),
        "measured_s": elapsed,
        "ops_per_s": ops_per_s,
        "op_p50_ms": op_p50_ms,
        "op_p90_ms": (1e3 * statistics.quantiles(durations, n=10)[8]
                      if ops >= P90_MIN_OPS else None),
        "fail_frac": len(failures) / (ops + len(warmups)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures[:10],
    }
    if traced:
        metrics = per_layer_metrics(tracer, ops)
    else:
        metrics = {key: {"value": summary[key], "unit": unit} for key, unit in END_TO_END}
    return {
        "summary": summary,
        "result": {"correct": not failures, "attempted": ops + len(warmups),
                   "failed": len(failures),
                   "metrics": metrics},
    }


def _child_run(argv: list) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {' '.join(argv)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(next(x for x in lines if x.startswith("summary: "))[len("summary: "):])
    return {"summary": summary, "result": json.loads(lines[-1])}


def run_all(args) -> int:
    """Each workload untraced then traced, each run in its own process."""
    from workloads import WORKLOADS

    print(f"machine: {json.dumps(machine())}")
    ok = True
    for name in WORKLOADS:
        common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--resolution", str(args.resolution), "--scenes", str(args.scenes)]
        plain = _child_run([*common, "--trace", "0"])
        traced = _child_run([*common, "--trace", "1"])
        s = plain["summary"]
        print(f"\n== {name}: {s['ops']} ops in {s['measured_s']:.2f} s (seed {args.seed})")
        rows = [(k, v["value"], v["unit"]) for k, v in plain["result"]["metrics"].items()]
        if s["op_p90_ms"] is not None:
            rows.append(("op_p90_ms", s["op_p90_ms"], "ms"))
        rows.append(("fail_frac", s["fail_frac"], "frac"))
        t = traced["summary"]
        overhead = (s["ops_per_s"] - t["ops_per_s"]) / s["ops_per_s"]
        rows.append(("trace_overhead", 100.0 * overhead, "%"))
        rows.append(("traced.fail_frac", t["fail_frac"], "frac"))
        rows += [(k, v["value"], v["unit"]) for k, v in traced["result"]["metrics"].items()]
        for key, value, unit in rows:
            print(f"  {key:34s} {value:14.6g} {unit}")
        for failure in s["failures"] + t["failures"]:
            print(f"  FAILED {failure}")
        ok &= plain["result"]["correct"] and traced["result"]["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="op time to measure; untraced runs stop before an op that "
                             "would overrun it, traced runs at the end of a pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--resolution", type=int, default=256, help="render size (square)")
    parser.add_argument("--scenes", type=int, default=12, help="use only the first N scenes")
    args = parser.parse_args(argv)

    _import_program()
    if args.workload is None:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.resolution, args.scenes)
    print(f"machine: {json.dumps(machine())}")
    print(f"summary: {json.dumps(out['summary'])}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
