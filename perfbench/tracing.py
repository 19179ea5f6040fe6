"""Per-layer tracing of one thinflow process from outside the library.

Tracer.installed() replaces each traced function at every name a thinflow
module looks it up by (for example harness.solve_dlb, microscale.solve_sparse,
cell_problems.solve_sparse and scipy.sparse.linalg.splu), records call counts
and busy seconds, and puts every original back when the block ends.  Busy
seconds are inclusive: a traced function that calls another traced function
counts that time in both.

Each SuperLU factorization is returned behind a proxy that counts its
triangular solves, so the refinement steps of a solve are its solves minus
one.  The residual of every saddle solve is recomputed with
thinflow.linalg.residual; that and all other bookkeeping is timed and
reported as trace.overhead_s.
"""

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Functions that start a pipeline stage when called.  A stage lasts until
# the next stage starts, run_pipeline returns or the operation ends.
_STAGE_MARKERS = {
    "run_pipeline": "cell",
    "build_cell_mesh": "cell",
    "effective_matrix": "upscaling",
    "build_macro_mesh": "macro",
    "reconstruct_two_scale_velocity": "reconstruction",
    "limit_pairing": "sweep",
}

# defining module -> traced functions; the metric key is "<layer>.<name>",
# with the layer named after the defining module
_TRACED = {
    "linalg": ("solve_sparse", "solve_gauged_spd"),
    "microscale": ("solve_dlb", "apriori_norms"),
    "cell_problems": ("solve_cell_problems",),
    "upscaling": ("effective_matrix", "reconstruct_two_scale_velocity"),
    "macro_model": ("solve_macro", "boundary_flux_residual"),
    "assembly": ("assemble_diffusion", "assemble_mass", "assemble_divergence",
                 "assemble_convection", "assemble_load"),
    "two_scale": ("poincare_wirtinger_ratio", "two_scale_distance",
                  "two_scale_pairing", "limit_pairing"),
    "harness": ("run_pipeline", "save_report", "load_config"),
    "meshing": ("build_cell_mesh", "build_macro_mesh", "build_thin_mesh"),
}


class CountingLU:
    """A SuperLU factorization that counts the solves made with it."""

    def __init__(self, lu, record):
        self._lu = lu
        self._record = record

    def solve(self, rhs, trans="N"):
        self._record["solves"] += 1
        return self._lu.solve(rhs, trans=trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Counters for one operation plus the patches that feed them."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.points = 0
        self.report_bytes = 0
        self.overhead = 0.0
        self.factorizations = []
        self.picard = []
        self.stages = defaultdict(float)
        self._stage = None

    # -- stage clock --------------------------------------------------------

    def _enter_stage(self, name, now):
        if self._stage is not None:
            current, start = self._stage
            if current == name:
                return
            self.stages[current] += now - start
        self._stage = (name, now)

    def close_stage(self):
        if self._stage is not None:
            current, start = self._stage
            self.stages[current] += time.perf_counter() - start
            self._stage = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, key, site, before=None, after=None):
        """Time fn under key; site is the module whose name was patched."""
        stage = _STAGE_MARKERS.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            if stage is not None:
                tracer._enter_stage(stage, t0)
            ctx = before(args, kwargs) if before else None
            t1 = time.perf_counter()
            result = fn(*args, **kwargs)
            t2 = time.perf_counter()
            tracer.busy[key] += t2 - t1
            tracer.calls[key] += 1
            tracer.calls[(key, site)] += 1
            if after:
                result = after(ctx, args, kwargs, result, t2 - t1, site)
            tracer.overhead += (t1 - t0) + (time.perf_counter() - t2)
            return result

        return traced

    def _after_splu(self, ctx, args, kwargs, lu, seconds, site):
        mat = args[0]
        record = {"site": site, "n": int(mat.shape[0]), "nnz_a": int(mat.nnz),
                  "nnz_lu": int(lu.nnz), "factor_s": seconds, "solves": 0,
                  "residual": None}
        self.factorizations.append(record)
        return CountingLU(lu, record)

    def _before_solve(self, args, kwargs):
        return len(self.factorizations)

    def _after_solve_sparse(self, first, args, kwargs, result, seconds, site):
        self._set_residual(first, args[0], result, site)
        return result

    def _after_solve_gauged_spd(self, first, args, kwargs, result, seconds,
                                site):
        K, rhs = args[0], args[1]
        self._set_residual(first, self._linalg.SaddleSystem(K=K, rhs_u=rhs),
                           (result, None), site)
        return result

    def _set_residual(self, first, system, solution, site):
        value = float(self._linalg.residual(system, solution))
        for record in self.factorizations[first:]:
            record["residual"] = value
            record["caller"] = site

    def _after_solve_dlb(self, ctx, args, kwargs, sol, seconds, site):
        self.picard.append({"eps": float(sol.eps), "seconds": seconds,
                            "picard_iterations": int(sol.picard_iterations),
                            "final_update": float(sol.final_update),
                            "update_history": [float(u) for u in
                                               sol.update_history]})
        return sol

    def _after_run_pipeline(self, ctx, args, kwargs, report, seconds, site):
        self.close_stage()
        return report

    def _after_save_report(self, ctx, args, kwargs, paths, seconds, site):
        self.report_bytes += sum(os.path.getsize(p) for p in paths)
        return paths

    def _before_evaluate(self, args, kwargs):
        self.points += int(np.atleast_2d(args[1]).shape[0])

    def _hooks(self, name):
        return {
            "solve_sparse": (self._before_solve, self._after_solve_sparse),
            "solve_gauged_spd": (self._before_solve,
                                 self._after_solve_gauged_spd),
            "solve_dlb": (None, self._after_solve_dlb),
            "run_pipeline": (None, self._after_run_pipeline),
            "save_report": (None, self._after_save_report),
        }.get(name, (None, None))

    # -- install / restore --------------------------------------------------

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self):
        """Patch every traced name in the loaded thinflow modules."""
        import scipy.sparse.linalg as spla
        import thinflow.assembly
        import thinflow.linalg

        self._linalg = thinflow.linalg
        modules = {name[len("thinflow."):]: mod
                   for name, mod in list(sys.modules.items())
                   if name.startswith("thinflow.") and mod is not None}
        try:
            for layer, names in _TRACED.items():
                for name in names:
                    original = getattr(modules[layer], name)
                    before, after = self._hooks(name)
                    for site, mod in modules.items():
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, attr, self._wrap(
                                    original, f"{layer}.{name}", site,
                                    before, after))
            self._patch(spla, "splu", self._wrap(
                spla.splu, "linalg.splu", "linalg", after=self._after_splu))
            field = thinflow.assembly.DiscreteField
            self._patch(field, "evaluate", self._wrap(
                field.evaluate, "assembly.DiscreteField.evaluate", "assembly",
                before=self._before_evaluate))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- metrics ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the operation traced since reset()."""
        f = self.factorizations
        residuals = [r["residual"] for r in f if r["residual"] is not None]
        m = {
            "linalg.factor.calls": len(f),
            "linalg.factor.s": sum(r["factor_s"] for r in f),
            "linalg.factor.max_s": max((r["factor_s"] for r in f), default=0.0),
            "linalg.lu_fill_nnz.max": max((r["nnz_lu"] for r in f), default=0),
            "linalg.lu_fill_ratio.max": max(
                (r["nnz_lu"] / r["nnz_a"] for r in f), default=0.0),
            "linalg.system_n.max": max((r["n"] for r in f), default=0),
            "linalg.triangular_solves": sum(r["solves"] for r in f),
            "linalg.refine_steps": sum(max(r["solves"] - 1, 0) for r in f),
            "linalg.residual.max": max(residuals, default=0.0),
            "microscale.solve_dlb.thinnest_s": min(
                self.picard, key=lambda r: r["eps"])["seconds"]
            if self.picard else 0.0,
            "microscale.picard_steps": sum(r["picard_iterations"]
                                           for r in self.picard),
            "cell_problems.saddle_solves": self.calls[
                ("linalg.solve_sparse", "cell_problems")],
            "assembly.assemble_convection.calls": self.calls[
                "assembly.assemble_convection"],
            "assembly.DiscreteField.evaluate.points": self.points,
            "harness.save_report.bytes": self.report_bytes,
            "trace.overhead_s": self.overhead,
        }
        for layer, names in _TRACED.items():
            for name in names:
                m[f"{layer}.{name}.s"] = self.busy[f"{layer}.{name}"]
        m["assembly.DiscreteField.evaluate.s"] = self.busy[
            "assembly.DiscreteField.evaluate"]
        for stage in ("cell", "upscaling", "macro", "reconstruction",
                      "sweep"):
            m[f"harness.stage.{stage}.s"] = self.stages[stage]
        return m
