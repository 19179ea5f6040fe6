"""Record the reference answers that the benchmark's answer gate checks.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one untraced operation of each named workload (default: all) and writes
perfbench/reference/<workload>.json.  Record only from a commit whose answers
are known to be right; every later run is compared with these files.
"""

import json
import os
import sys

import gate
import spec
import worker


def gated_columns(workload):
    """Sweep columns gated by value; a cell workload writes no sweep."""
    config_path, args = spec.WORKLOADS[workload]
    if args[0] != "run":
        return []
    with open(os.path.join(worker.ROOT, config_path)) as fh:
        d = json.load(fh)["geometry"]["d"]
    return gate.columns_to_gate(d)


def record(workload, cli):
    columns = gated_columns(workload)
    seconds, answers = worker.run_operation(cli, workload, columns)
    if answers["exit_status"] != 0:
        raise SystemExit(f"{workload}: exit status {answers['exit_status']}, "
                         "refusing to record failing answers")
    reference = {"workload": workload, "answers": answers}
    path = os.path.join(worker.HERE, "reference", f"{workload}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"{workload}: {seconds:.1f} s, wrote {path}")


def main(names):
    cli, _ = worker.import_thinflow()
    for workload in names or list(spec.WORKLOADS):
        record(workload, cli)


if __name__ == "__main__":
    main(sys.argv[1:])
