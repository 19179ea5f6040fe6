"""thinflow benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (src/, configs/, perfbench/ and
BENCHMARK.json).  The workloads and metrics are defined in BENCHMARK.json;
perfbench/spec.py says what each workload runs.  The inputs are the shipped
deterministic configs, so the seed selects nothing yet; it is recorded with
the result.

A run measures set-up five times: the measuring process itself and four
processes that only set up, two started before it and two after it ends, so
that one burst of load on the host does not move every sample.  Set-up is
the time from starting the process to thinflow imported and the workload's
config loaded and validated; setup_s is the median.  The measuring process
runs operations one after another (a closed loop with one client) for S
seconds, at least one operation, and checks every operation's answers
against the recorded reference.

--trace 0 reports the end-to-end metrics of an untraced process: wall_s (the
median seconds per operation; "attempted" is the sample count), setup_s and
peak_rss_mb (the peak resident memory of the measuring process).
--trace 1 runs the operations in a traced process instead and reports the
per-layer metrics, each the median over the operations of the run.

BLAS threads are capped at the number of usable cores.  The last line of
standard output is the JSON result; the full record, with the machine, each
factorization and each Picard loop, goes to .perfbench/results/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".perfbench", "results")
SETUP_PROBES = 2  # before and again after the measuring process
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    pass


def child_env():
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update({name: nproc for name in THREAD_VARS})
    return env


def start_worker(workload, extra, deadline):
    """Start a worker; returns (process, set-up seconds, watchdog)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0),
                               proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, watchdog)
        raise RunError(f"worker for {workload} did not set up "
                       f"(exit status {proc.returncode})")
    return proc, setup, watchdog


def finish(proc, watchdog):
    """Wait for a worker and return its remaining standard output."""
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    return out


def machine():
    import numpy
    import scipy
    info = {"nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "thread_caps": {name: child_env()[name] for name in THREAD_VARS}}
    for name, module in (("numpy", numpy), ("scipy", scipy)):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info[f"{name}_blas"] = f"{blas['name']} {blas['version']}"
    return info


def probe_setup(workload, deadline):
    """Seconds to set up a worker that does nothing else."""
    proc, setup, watchdog = start_worker(workload, ["--setup-only"], deadline)
    finish(proc, watchdog)
    if proc.returncode != 0:
        raise RunError(f"set-up probe exited with {proc.returncode}")
    return setup


def run(workload, seed, seconds, trace, benchmark):
    deadline = time.monotonic() + DEADLINE_S
    setups = [probe_setup(workload, deadline) for _ in range(SETUP_PROBES)]

    extra = ["--seconds", str(seconds)] + (["--trace"] if trace else [])
    proc, setup, watchdog = start_worker(workload, extra, deadline)
    setups.append(setup)
    out = finish(proc, watchdog)
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    setups += [probe_setup(workload, deadline) for _ in range(SETUP_PROBES)]

    ops = result["ops"]
    failed = sum(1 for op in ops if op["problems"])
    times = [op["seconds"] for op in ops if op["seconds"] is not None]
    if not times:
        raise RunError("no operation completed")
    if trace:
        layers = [op["layers"] for op in ops if "layers" in op]
        if not layers:
            raise RunError("no traced operation completed")
        metrics = {m["name"]: {"value": statistics.median(
                       [float(l[m["name"]]) for l in layers]),
                       "unit": m["unit"]} for m in benchmark["per_layer"]}
    else:
        measured = {"wall_s": statistics.median(times),
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {m["name"]: {"value": measured[m["name"]],
                               "unit": m["unit"]}
                   for m in benchmark["end_to_end"]}
    summary = {"correct": failed == 0, "attempted": len(ops),
               "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine(), "setup_samples": setups,
              "op_seconds": times, "worker": result, "summary": summary}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}"
                                 f".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"perfbench: {workload} seed={seed} trace={int(trace)}: "
          f"{len(times)} operations, seconds {times}, "
          f"set-up samples {[round(s, 4) for s in setups]}")
    print(f"perfbench: machine {json.dumps(record['machine'])}")
    print(f"perfbench: record written to {os.path.relpath(path, ROOT)}")
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [spec.BENCHMARK_JSON,
              os.path.join(ROOT, "src", "thinflow", "cli.py"),
              os.path.join(ROOT, spec.WORKLOADS[args.workload][0])]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: not a thinflow checkout, missing {missing}",
              file=sys.stderr)
        return 2
    benchmark = spec.load_benchmark()
    seconds = benchmark["run_seconds"] if args.seconds is None \
        else args.seconds
    try:
        summary = run(args.workload, args.seed, seconds, bool(args.trace),
                      benchmark)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
