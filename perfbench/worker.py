"""One benchmark process: set up thinflow, then run operations of a workload.

    python3 perfbench/worker.py --workload NAME [--seconds S] [--trace]
    python3 perfbench/worker.py --workload NAME --setup-only

The worker imports thinflow from the checkout's src/ directory, loads and
validates the workload's config, and prints "ready".  Unless --setup-only,
it then runs operations through thinflow.cli.main, one after another, until
S seconds have passed (at least one operation), checks each operation's
answers against perfbench/reference/<workload>.json, and prints one JSON
line with the per-operation times, failures, peak memory and, with
--trace, the per-layer metrics and solve records of each operation.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import gate
import spec
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")


def import_thinflow():
    """Import thinflow from this checkout, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import thinflow.cli
    import thinflow.harness
    if not os.path.abspath(thinflow.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"thinflow imported from {thinflow.cli.__file__}, "
                          f"not from {src}")
    return thinflow.cli, thinflow.harness


def load_reference(workload):
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)


def run_operation(cli, workload, gated_columns, tracer=None):
    """One CLI operation; returns (seconds, fingerprint)."""
    config = os.path.join(ROOT, spec.WORKLOADS[workload][0])
    os.makedirs(SCRATCH, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    try:
        argv = spec.cli_argv(workload, config, outdir)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            status = cli.main(argv)
            seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.close_stage()
        return seconds, gate.fingerprint(status, captured.getvalue(), outdir,
                                         gated_columns)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli, harness = import_thinflow()
    harness.load_config(os.path.join(ROOT, spec.WORKLOADS[args.workload][0]))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reference = load_reference(args.workload)
    columns = gate.gated_columns(reference)
    tracer = Tracer() if args.trace else None
    ops = []
    begin = time.perf_counter()
    while not ops or time.perf_counter() - begin < args.seconds:
        op = {"seconds": None, "problems": []}
        try:
            if tracer is None:
                seconds, answers = run_operation(cli, args.workload, columns)
            else:
                tracer.reset()
                with tracer.installed():
                    seconds, answers = run_operation(
                        cli, args.workload, columns, tracer)
                op["layers"] = tracer.metrics()
                op["factorizations"] = tracer.factorizations
                op["picard"] = tracer.picard
            op["seconds"] = seconds
            op["problems"] = gate.compare(reference, answers)
        except Exception:
            op["problems"] = ["raised: " + traceback.format_exc()]
        for problem in op["problems"]:
            print(f"perfbench: operation {len(ops)} failed: {problem}",
                  file=sys.stderr)
        ops.append(op)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ops": ops, "peak_rss_mb": peak_kb / 1024.0}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
