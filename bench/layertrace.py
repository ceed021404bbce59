"""Outside-in layer tracer for mfbia.

The tracer wraps public functions of the ``mfbia`` modules from outside the
program.  A function is replaced in every ``mfbia`` module namespace that
binds it, because callers look it up where they imported it:
``mfbia.cli`` and ``mfbia.sweep`` bind ``evaluate_posterior``,
``log_likelihood``, ``information_gain`` and ``synthesize_observations`` by
name, while ``mfbia.models`` reaches ``displacement_batch`` through the
``electromech`` module.  Patching only the defining module would record
nothing for those callers.

Each wrapper records a span (calls, total time, and self time: the span's
duration minus the time covered by its child spans) and the counts that
belong to that boundary.  Spans stay in memory.  Pool workers forked from a
traced process trace themselves and write their spans when they exit; the
traced process merges them in :meth:`Tracer.finish`.  A target that no
longer exists makes :func:`install` raise, so a rename cannot silently
report zero.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np


class TracerError(RuntimeError):
    """A wrapped name is missing, so the trace would under-report."""


def _forward_key(arguments, model) -> str:
    digest = hashlib.sha1()
    digest.update(type(model).__name__.encode())
    digest.update(repr(sorted(model.constants.items())).encode())
    digest.update(repr(int(arguments["field_id"])).encode())
    for name in ("x", "coords"):
        arr = np.ascontiguousarray(arguments[name], dtype=float)
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _count_outputs(tracer, arguments, result):
    x = np.asarray(arguments["x"], dtype=float)
    coords = np.atleast_1d(np.asarray(arguments["coords"], dtype=float))
    batch = x.size // x.shape[-1]
    tracer.add("models.outputs_evals", batch * coords.size)
    tracer.forward_keys.add(_forward_key(arguments, arguments["self"]))


def _count_solves(tracer, arguments, result):
    tracer.add("electromech.solves", int(np.size(result)))


def _count_file(counter):
    def hook(tracer, arguments, result):
        tracer.add(counter, os.path.getsize(arguments["path"]))
    return hook


def _count_nodes(tracer, arguments, result):
    tracer.add("inference.grid_nodes",
               int(np.prod([len(axis) for axis in arguments["axes"]])))


def _count_cells(tracer, arguments, result):
    tracer.add("sweep.cells", len(result))
    tracer.add("sweep.failed_cells", sum(0 if r.ok else 1 for r in result))


#: span name -> (module, attribute path, post-call counting hook) targets.
TARGETS = {
    "models.outputs": [
        ("mfbia.models", "ElectromechModel.outputs", _count_outputs),
        ("mfbia.models", "ToyFullModel.outputs", _count_outputs),
    ],
    "electromech.displacement": [
        ("mfbia.electromech", "displacement_batch", _count_solves)],
    "electromech.current": [("mfbia.electromech", "current_batch", None)],
    "probabilistic.loglik": [
        ("mfbia.probabilistic", "log_likelihood", None)],
    "probabilistic.synthesize": [
        ("mfbia.probabilistic", "synthesize_observations", None)],
    "probabilistic.obs_read": [
        ("mfbia.probabilistic", "observations_from_csv",
         _count_file("probabilistic.obs_bytes"))],
    "probabilistic.obs_write": [
        ("mfbia.probabilistic", "observations_to_csv",
         _count_file("probabilistic.obs_bytes"))],
    "inference.posterior": [
        ("mfbia.inference", "evaluate_posterior", _count_nodes)],
    "inference.ig": [("mfbia.inference", "information_gain", None)],
    "inference.posterior_csv": [
        ("mfbia.inference", "posterior_to_csv",
         _count_file("inference.posterior_csv_bytes"))],
    "sweep.run": [
        ("mfbia.sweep", "run_riig_sweep", _count_cells),
        ("mfbia.sweep", "run_coupling_sweep", _count_cells),
    ],
}

#: Counters every trace reports, zero when the workload never reaches them.
COUNTERS = ("models.outputs_evals", "electromech.solves",
            "probabilistic.obs_bytes", "inference.grid_nodes",
            "inference.posterior_csv_bytes", "sweep.cells",
            "sweep.failed_cells", "sweep.dispatch_bytes")


class Tracer:
    """Span and counter store of one process; see the module docstring."""

    def __init__(self, out_path):
        self.out_path = Path(out_path)
        self.bindings: list[str] = []
        self._reset()

    def _reset(self):
        self.stack = [[0.0]]     # per open span: time covered by children
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.forward_keys: set[str] = set()

    def add(self, counter: str, amount) -> None:
        self.counts[counter] += amount

    def exclude(self, seconds: float) -> None:
        """Count tracer work as child time, so it leaves self times alone."""
        self.stack[-1][0] += seconds

    def wrap(self, name: str, fn, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.stack.pop()
                record = self.spans.setdefault(name, [0, 0.0, 0.0])
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                self.exclude(duration)
            if hook is not None:
                hook_start = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                hook(self, bound.arguments, result)
                self.exclude(time.perf_counter() - hook_start)
            return result

        return wrapper

    def _in_worker(self):
        self._reset()
        mp_util.Finalize(self, self._dump_worker, exitpriority=10)

    def _dump_worker(self):
        path = self.out_path.with_name(
            f"{self.out_path.name}.worker-{os.getpid()}")
        path.write_text(json.dumps({
            "spans": self.spans, "counts": self.counts,
            "forward_keys": sorted(self.forward_keys)}))

    def finish(self) -> None:
        """Merge worker spans into this process's and write the trace file."""
        sweep_self_s = self.spans.get("sweep.run", [0, 0.0, 0.0])[2]
        workers = sorted(self.out_path.parent.glob(
            f"{self.out_path.name}.worker-*"))
        for path in workers:
            other = json.loads(path.read_text())
            for name, values in other["spans"].items():
                record = self.spans.setdefault(name, [0, 0.0, 0.0])
                for index, value in enumerate(values):
                    record[index] += value
            for counter, amount in other["counts"].items():
                self.add(counter, amount)
            self.forward_keys.update(other["forward_keys"])
            path.unlink()
        payload = {"spans": self.spans, "counts": self.counts,
                   "forward_distinct": len(self.forward_keys),
                   "processes": 1 + len(workers),
                   "sweep_parent_self_s": sweep_self_s,
                   "bindings": self.bindings}
        self.out_path.write_text(json.dumps(payload, indent=1))


def _resolve(module_name: str, path: str):
    module = sys.modules.get(module_name)
    if module is None:
        raise TracerError(f"{module_name} is not imported")
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = vars(owner).get(part)
        if owner is None:
            raise TracerError(f"{module_name}.{path}: {part!r} is missing")
    original = vars(owner).get(attr)
    if not callable(original):
        raise TracerError(f"{module_name}.{path} is missing or not callable")
    return owner, attr, original


def _traced_pool(tracer: Tracer, base):
    """Pool class that adds each task's pickled size to sweep.dispatch_bytes."""

    class TracedProcessPoolExecutor(base):
        def submit(self, fn, /, *args, **kwargs):
            start = time.perf_counter()
            tracer.add("sweep.dispatch_bytes",
                       len(ForkingPickler.dumps((fn, args, kwargs))))
            tracer.exclude(time.perf_counter() - start)
            return super().submit(fn, *args, **kwargs)

    return TracedProcessPoolExecutor


def install(out_path) -> Tracer:
    """Wrap every target in every mfbia namespace that binds it.

    Call after ``import mfbia.cli``.  Raises :class:`TracerError` when a
    target is missing.
    """
    tracer = Tracer(out_path)
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == "mfbia"
                                       or name.startswith("mfbia."))}
    for span, targets in TARGETS.items():
        for module_name, path, hook in targets:
            owner, attr, original = _resolve(module_name, path)
            wrapper = tracer.wrap(span, original, hook)
            setattr(owner, attr, wrapper)
            tracer.bindings.append(f"{module_name}.{path}")
            if owner is not sys.modules[module_name]:
                continue
            for name, module in sorted(modules.items()):
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapper)
                        tracer.bindings.append(f"{name}.{alias}")
    sweep = modules.get("mfbia.sweep")
    pool = vars(sweep).get("ProcessPoolExecutor") if sweep else None
    if pool is None:
        raise TracerError("mfbia.sweep.ProcessPoolExecutor is missing; "
                          "sweep.dispatch_bytes cannot be measured")
    sweep.ProcessPoolExecutor = _traced_pool(tracer, pool)
    mp_util.register_after_fork(tracer, Tracer._in_worker)
    return tracer
