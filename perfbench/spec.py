"""Workloads of the thinflow benchmark: what BENCHMARK.json cannot hold.

BENCHMARK.json at the repository root is the benchmark's definition: the
workloads with why each is there, the metrics with their units and bounds,
and run_seconds.  This module adds what a workload runs: its config and the
thinflow CLI arguments of one operation.

Why the numbers in BENCHMARK.json are what they are: a pipeline operation
takes 25-39 s (d = 2) and 44-75 s (d = 3) on a shared 2-core x86_64 VM, so a
run of run_seconds = 12 measures one pipeline operation, or four to seven
cell operations of 2-3.5 s.  The host's throughput drifts by 10-30% over
minutes, which a run this short cannot average away, and process CPU time
drifts with it: wall_s and setup_s get the largest bound allowed, 0.25.
The d = 3 peak memory is bimodal (690 or 750 MB), hence 0.2 for
peak_rss_mb.
"""

import json
import os

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")

# name -> (config under the repository root, CLI arguments after the config)
WORKLOADS = {
    "pipeline_regime_ii": ("configs/regime_ii.json", ["run"]),
    "pipeline_d3": ("configs/homogenization_d3.json", ["run"]),
    "cell_regime_ii": ("configs/regime_ii.json", ["cell", "--regime", "ii"]),
}


def load_benchmark():
    """BENCHMARK.json, as a dict."""
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def cli_argv(workload, config_path, output):
    """Arguments for thinflow.cli.main for one operation of a workload."""
    _, args = WORKLOADS[workload]
    return [args[0], config_path, *args[1:], "--output", output]
