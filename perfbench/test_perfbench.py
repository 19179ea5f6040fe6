"""Self-tests of the benchmark (fast; no workload is run).

    python3 -m pytest perfbench -q
"""

import copy
import os
import sys
import unittest

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import gate
import spec
import worker
from tracing import Tracer

worker.import_thinflow()
import thinflow.assembly  # noqa: E402
import thinflow.linalg  # noqa: E402


def _thinflow_bindings():
    """Every attribute of every loaded thinflow module, plus the patched
    scipy and class attributes, by identity."""
    state = {(name, attr): value
             for name, mod in list(sys.modules.items())
             if name.startswith("thinflow") and mod is not None
             for attr, value in vars(mod).items()}
    state[("scipy", "splu")] = spla.splu
    state[("DiscreteField", "evaluate")] = \
        thinflow.assembly.DiscreteField.__dict__["evaluate"]
    return state


class TestComparator(unittest.TestCase):

    def setUp(self):
        self.reference = worker.load_reference("pipeline_d3")

    def _answers(self):
        return copy.deepcopy(self.reference["answers"])

    def test_reference_answers_pass(self):
        self.assertEqual(gate.compare(self.reference, self._answers()), [])

    def test_rejects_perturbed_effective_matrix(self):
        answers = self._answers()
        mat = np.asarray(answers["effective_matrix"])
        mat[0, 0] *= 1 + 1e-6
        answers["effective_matrix"] = mat.tolist()
        problems = gate.compare(self.reference, answers)
        self.assertEqual(len(problems), 1)
        self.assertIn("effective matrix", problems[0])

    def test_accepts_roundoff_in_effective_matrix_offdiagonal(self):
        answers = self._answers()
        mat = np.asarray(answers["effective_matrix"])
        mat[0, 1] += 1e-15
        answers["effective_matrix"] = mat.tolist()
        self.assertEqual(gate.compare(self.reference, answers), [])

    def test_rejects_flipped_verdict(self):
        answers = self._answers()
        name, verdict = answers["verdicts"][0]
        answers["verdicts"][0] = [name, "FAIL" if verdict == "PASS"
                                  else "PASS"]
        problems = gate.compare(self.reference, answers)
        self.assertEqual(len(problems), 1)
        self.assertIn(name, problems[0])

    def test_rejects_exit_status_and_sweep_drift(self):
        answers = self._answers()
        answers["exit_status"] = 1
        answers["sweep"]["p_l2"][-1] *= 1 + 1e-4
        problems = gate.compare(self.reference, answers)
        self.assertEqual(len(problems), 2)


class TestTracer(unittest.TestCase):

    def test_wrappers_restore_originals(self):
        before = _thinflow_bindings()
        tracer = Tracer()
        with tracer.installed():
            during = _thinflow_bindings()
            self.assertIsNot(spla.splu, before[("scipy", "splu")])
            self.assertIsNot(sys.modules["thinflow.harness"].solve_dlb,
                             before[("thinflow.harness", "solve_dlb")])
            self.assertIsNot(sys.modules["thinflow.cli"].run_pipeline,
                             before[("thinflow.cli", "run_pipeline")])
        self.assertNotEqual(during, before)
        after = _thinflow_bindings()
        self.assertEqual(after.keys(), before.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_records_factorization_solves_and_residual(self):
        n = 6
        K = sp.diags([2.0] * n) - sp.diags([1.0] * (n - 1), 1) \
            - sp.diags([1.0] * (n - 1), -1)
        system = thinflow.linalg.SaddleSystem(K=K.tocsr(), rhs_u=np.ones(n))
        tracer = Tracer()
        with tracer.installed():
            thinflow.linalg.solve_sparse(system)
        (record,) = tracer.factorizations
        self.assertEqual(record["n"], n)
        self.assertEqual(record["nnz_a"], 3 * n - 2)
        self.assertGreaterEqual(record["nnz_lu"], record["nnz_a"])
        self.assertGreaterEqual(record["solves"], 1)
        self.assertLess(record["residual"], 1e-12)
        metrics = tracer.metrics()
        self.assertEqual(metrics["linalg.factor.calls"], 1)
        self.assertEqual(metrics["linalg.refine_steps"],
                         record["solves"] - 1)
        self.assertLessEqual(
            {m["name"] for m in spec.load_benchmark()["per_layer"]},
            set(metrics))


class TestSpec(unittest.TestCase):

    def test_workload_configs_and_references_exist(self):
        names = [w["name"] for w in spec.load_benchmark()["workloads"]]
        self.assertEqual(sorted(names), sorted(spec.WORKLOADS))
        for name, (config, _) in spec.WORKLOADS.items():
            self.assertTrue(os.path.isfile(os.path.join(worker.ROOT, config)),
                            config)
            self.assertEqual(worker.load_reference(name)["workload"], name)


if __name__ == "__main__":
    unittest.main()
