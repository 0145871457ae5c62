"""erpcoder benchmark: one workload per run, outputs checked, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload {pretrain,suite,pipeline} --seed N \
        --seconds S --trace {0,1}

The workloads are described in ``workloads.py``. A run generates its inputs
from the seed in a child process, then sets up (imports erpcoder from
``src/``, loads the inputs through its loaders, warms up) several times and
reports the median, then repeats the workload while the next repetition
still fits in ``--seconds`` (at least the workload's minimum). Outputs are
checked after every repetition; failed calls and checks are counted.

``--trace 0`` reports the end-to-end metrics (medians over repetitions):

- ``wall_s``: one repetition's timed region.
- ``trial_epochs_per_s``: training trials x epochs per second spent in the
  training calls (``pretrain`` calls; the ``run_model_suite`` call; the
  CLI ``pretrain`` and ``fit`` subcommands).
- ``analysis_s``: scoring after training: reconstruction MSE of both
  autoencoders (pretrain); the ground truth's best reachable r2_mod per
  nested driving-feature subset, ``synth.oracle_bounds`` (suite);
  ``evaluate`` + ``timecourse`` + ``export-words`` (pipeline).
- ``setup_s``: one set-up; input generation is excluded.
- ``peak_rss_mb``: peak resident memory of the benchmark process.

``failed_frac`` (failed / attempted operations) is printed with the metrics;
the result line carries it as ``attempted`` and ``failed``.

``--trace 1`` alternates untraced and traced repetitions. Traced ones run
with every public function of erpcoder's modules wrapped by ``spans.Tracer``
and report the per-layer metrics of ``layer_metrics.PER_LAYER``, with
``trace.overhead_frac`` = traced / untraced median wall time - 1. A traced
``pretrain`` run also prints the kernel table at batch 128.

The run exits with code 2, printing no result, when erpcoder cannot be
imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import layer_metrics
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit); their bounds live in BENCHMARK.json
END_TO_END = (("wall_s", "s"), ("trial_epochs_per_s", "1/s"), ("analysis_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pretrain", "suite", "pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads() -> None:
    """Run BLAS single-threaded; must happen before numpy loads.

    One thread is the plain baseline that parallel fits (one BLAS thread per
    worker) are compared with. On the 2-core reference machine two threads
    were 10-15% faster on pretrain and no steadier from run to run.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "setup_reps": SETUP_REPS,
    }


def measure(workload, ld, seed: int, seconds: float, tally, work: Path, tracer=None):
    """Repeat the workload; with a tracer, every second repetition is traced.

    Returns (untraced reps, traced reps).
    """
    plain, traced = [], []
    min_reps = max(workload.min_reps, 2 if tracer else 1)
    start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(plain) > len(traced)
        rep = workloads.Rep()
        t0 = time.perf_counter()
        try:
            if use_tracer:
                tracer.run_id += 1
                with tracer.installed(ld.mods):
                    outputs = workload.run(ld, seed, tally, rep, work)
            else:
                outputs = workload.run(ld, seed, tally, rep, work)
            rep.wall_s = time.perf_counter() - t0
            workload.check(ld, tally, outputs)
        except workloads.Failed:
            rep.wall_s = time.perf_counter() - t0
        (traced if use_tracer else plain).append(rep)
        done = len(plain) + len(traced)
        typical = statistics.median(r.wall_s for r in plain + traced)
        if done >= min_reps and time.perf_counter() - start + typical > seconds:
            return plain, traced


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run(args, work: Path) -> dict:
    env = environment(args)
    inputs = work / "inputs"
    workloads.generate_inputs(args.seed, inputs)
    setup_times = []
    ld = None
    for _ in range(SETUP_REPS):
        ld = None  # release the previous set-up's arrays first
        t0 = time.perf_counter()
        ld = workloads.set_up(inputs)
        setup_times.append(time.perf_counter() - t0)

    tally = workloads.Tally()
    workload = workloads.WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    plain, traced = measure(workload, ld, args.seed, args.seconds, tally, work, tracer)
    env["reps"] = len(plain)
    env["traced_reps"] = len(traced)
    print("env: " + json.dumps(env, sort_keys=True))
    print("setup_s per set-up: " + " ".join(f"{t:.4f}" for t in setup_times))
    for label, reps in (("untraced", plain), ("traced", traced)):
        if reps:
            walls = " ".join(f"{r.wall_s:.4f}" for r in reps)
            print(f"wall_s per {label} repetition: {walls}")

    if args.trace:
        overhead = _median(r.wall_s for r in traced) / _median(r.wall_s for r in plain) - 1
        values = layer_metrics.per_layer(tracer.spans, len(traced), overhead)
        units = layer_metrics.UNITS
        if args.workload == "suite":
            fits = layer_metrics.suite_fits(tracer.spans, len(traced))
            tally.check(fits == workload.expected_fits(),
                        f"traced suite made {fits} fits, expected {workload.expected_fits()}")
        if args.workload == "pretrain":
            print_kernel_table(layer_metrics.kernel_table(tracer.spans, len(traced),
                                                          workloads.BATCH))
    else:
        rates = [r.trial_epochs / r.train_s for r in plain if r.train_s > 0]
        values = {
            "wall_s": _median(r.wall_s for r in plain),
            "trial_epochs_per_s": _median(rates),
            "analysis_s": _median(r.analysis_s for r in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)

    failed_frac = tally.failed / max(tally.attempted, 1)
    for name, value in values.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':48s} {failed_frac:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"failed: {problem}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}


def print_kernel_table(rows: list[dict]) -> None:
    print("kernel table: pretrain, batch 128; GFLOP and MB per call are computed "
          "from array shapes")
    print(f"{'arch':6s} {'op':26s} {'shapes':22s} {'calls':>6s} {'ms/call':>9s} "
          f"{'GFLOP':>8s} {'MB':>8s} {'GFLOP/s':>8s}")
    for r in rows:
        print(f"{r['arch']:6s} {r['op']:26s} {r['shapes']:22s} {r['calls']:6g} "
              f"{r['ms_per_call']:9.3f} {r['gflop_computed']:8.4f} {r['mb_computed']:8.3f} "
              f"{r['gflop_per_s']:8.2f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import erpcoder
    except ImportError as e:
        print(f"error: cannot import erpcoder from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if not Path(erpcoder.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: erpcoder was imported from {erpcoder.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
