"""One operation of each benchmark workload against its recorded answers.

The benchmark (perfbench/) checks every operation it times with the answer
gate of perfbench/gate.py.  This test runs one operation of each workload
in process, writes into a temporary directory, and applies the same gate,
so a change that moves a gated answer fails here too, not only in a
benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

from thinflow.cli import main as cli_main

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gate  # noqa: E402
import spec  # noqa: E402


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_one_operation_gives_the_recorded_answers(workload, tmp_path,
                                                  capsys):
    reference = json.loads(
        (ROOT / "perfbench" / "reference" / f"{workload}.json").read_text())
    config, _ = spec.WORKLOADS[workload]
    status = cli_main(spec.cli_argv(workload, str(ROOT / config),
                                    str(tmp_path)))
    got = gate.fingerprint(status, capsys.readouterr().out, str(tmp_path),
                           gate.gated_columns(reference))
    assert gate.compare(reference, got) == []
