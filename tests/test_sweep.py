import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mfbia.cli import main
from mfbia.config import FieldSpec, RunConfig, default_config, load_config
from mfbia.inference import (
    PriorGrid,
    cdf_spaced_grid,
    evaluate_posterior,
    information_gain,
    kl_gaussians,
    riig,
)
from mfbia.models import ToyFullModel, build_model
from mfbia.probabilistic import (
    DegenerateSignalError,
    TruncatedNormalPrior,
    log_likelihood,
    misfit_moments,
    sigma_from_snr,
    sobol_standard_normal,
    synthesize_observations,
)
import mfbia.probabilistic as probabilistic
import mfbia.sweep as sweep_module
from mfbia.sweep import (
    export_sweep_csv,
    run_coupling_sweep,
    run_riig_sweep,
    sweep_tasks,
    write_run_manifest,
)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def toy_prior() -> TruncatedNormalPrior:
    return TruncatedNormalPrior(mean=np.array([1.0, 0.6]),
                                variance=np.array([0.25, 0.25]),
                                lower=np.array([0.0, 0.0]),
                                upper=np.array([np.inf, np.inf]))


def toy_sweep_config(n_obs2_axis=(2, 4, 8), snr2_axis=(5.0, 50.0, 500.0),
                     first_field_range=(0.0, 1.0),
                     second_field_range=(0.0, 1.0), **overrides) -> RunConfig:
    base = dict(
        model="toy-full",
        constants={"coupling12": 0.5, "coupling21": 0.25},
        truth=(1.2, 0.7),
        prior=toy_prior(),
        fields=(FieldSpec(field_id=1, count=6, snr=30.0,
                          coord_range=first_field_range),
                FieldSpec(field_id=2, count=1, snr=1.0,
                          coord_range=second_field_range)),
        sweep={"n_obs2": n_obs2_axis, "snr2": snr2_axis},
        grid_shape=(40, 40))
    base.update(overrides)
    return RunConfig(**base)


def manual_gains(spec: RunConfig, model, obs1, obs2):
    """Single- and two-field gains composed by hand from the public misfit
    moments, and the two-field posterior.

    Each field's moments are taken about its truth outputs with the
    deviates synthesis adds, at the noise variance of ``obs1`` and
    ``obs2``, as the sweep composes them.
    """
    grid = PriorGrid(spec.prior, cdf_spaced_grid(spec.prior, spec.grid_shape))
    nodes = grid.nodes
    truth = np.array(spec.truth)

    def moments(obs):
        centre = model.outputs(truth, obs.field_id, obs.coordinates)
        return misfit_moments(
            model, nodes, obs.field_id, obs.coordinates, centre,
            sobol_standard_normal(centre.size)), obs.noise_variance

    m1, m2 = moments(obs1), moments(obs2)
    post1 = evaluate_posterior(log_likelihood([m1]), grid)
    postm = evaluate_posterior(log_likelihood([m1, m2]), grid)
    return information_gain(post1), information_gain(postm), postm


class TestSpecValidation:
    def test_plan_coordinates(self):
        plan = FieldSpec(field_id=1, count=3, snr=10.0, coord_range=(0.0, 1.0))
        np.testing.assert_allclose(plan.coordinates(), [0.0, 0.5, 1.0])

    def test_plan_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FieldSpec(field_id=1, count=-1, snr=10.0, coord_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            FieldSpec(field_id=1, count=1, snr=0.0, coord_range=(0.0, 1.0))
        with pytest.raises(ValueError, match="snr"):
            FieldSpec(field_id=1, count=1, snr=np.inf,
                      coord_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            FieldSpec(field_id=1, count=1, snr=1.0, coord_range=(1.0, 0.0))

    def test_axes_must_be_increasing_and_nonempty(self):
        with pytest.raises(ValueError):
            toy_sweep_config(n_obs2_axis=())
        with pytest.raises(ValueError):
            toy_sweep_config(n_obs2_axis=(4, 2))
        with pytest.raises(ValueError):
            toy_sweep_config(snr2_axis=(50.0, 50.0))
        with pytest.raises(ValueError):
            toy_sweep_config(n_obs2_axis=(0, 2))
        with pytest.raises(ValueError, match="snr2"):
            toy_sweep_config(snr2_axis=(5.0, np.inf))

    @pytest.mark.parametrize("count", [2.5, np.inf, np.nan, True, "3",
                                       pytest.param(10 ** 400, id="1e400")])
    def test_counts_must_be_integral(self, count):
        with pytest.raises(ValueError, match="^count: "):
            FieldSpec(field_id=1, count=count, snr=10.0,
                      coord_range=(0.0, 1.0))
        with pytest.raises(ValueError, match=r"^sweep\.n_obs2\[1\]: "):
            toy_sweep_config(n_obs2_axis=(2.0, count))

    def test_integral_counts_become_ints(self):
        plan = FieldSpec(field_id=1, count=3.0, snr=10.0,
                         coord_range=(0.0, 1.0))
        assert type(plan.count) is int
        np.testing.assert_allclose(plan.coordinates(), [0.0, 0.5, 1.0])
        spec = replace(toy_sweep_config(),
                       sweep={"n_obs2": [2.0, np.int64(4)], "snr2": [80.0]})
        assert spec.sweep["n_obs2"] == (2, 4)
        assert all(type(n) is int for n in spec.sweep["n_obs2"])


class TestRiigSweep:
    def test_single_cell_matches_manual_composition(self):
        spec = toy_sweep_config(n_obs2_axis=(4,), snr2_axis=(50.0,))
        (cell,) = run_riig_sweep(spec)
        assert cell.ok

        model = build_model(spec.model, spec.constants)
        truth = np.array(spec.truth)
        obs1 = synthesize_observations(model, truth, 1,
                                       spec.field_spec(1).coordinates(), 30.0)
        obs2 = synthesize_observations(model, truth, 2,
                                       np.linspace(0.0, 1.0, 4), 50.0)
        ig1, igm, _ = manual_gains(spec, model, obs1, obs2)
        assert cell.ig_single == ig1
        assert cell.ig_multi == igm
        assert cell.riig == riig(ig1, igm)
        assert cell.riig == (cell.ig_multi - cell.ig_single) / cell.ig_single

        # the last cell of each task reuses the task's field-1 analysis and
        # its field-2 misfit moments on the grid
        spec = toy_sweep_config(n_obs2_axis=(2, 4),
                                snr2_axis=(5.0, 50.0, 500.0))
        results = run_riig_sweep(spec)
        for cell in (results[2], results[5]):
            assert cell.ok and cell.point["snr2"] == 500.0
            obs2 = synthesize_observations(
                model, truth, 2, np.linspace(0.0, 1.0, cell.point["n_obs2"]),
                500.0)
            ig1, igm, postm = manual_gains(spec, model, obs1, obs2)
            assert cell.ig_single == ig1
            assert cell.ig_multi == igm
            assert cell.riig == riig(ig1, igm)
            assert cell.boundary_mass == postm.boundary_mass

    def test_tasks_share_every_axis_but_the_snrs(self):
        spec = toy_sweep_config(n_obs2_axis=(2, 4),
                                snr2_axis=(5.0, 50.0, 500.0))
        assert sweep_tasks(spec) == [[0, 1, 2], [3, 4, 5]]
        # snr1 x snr2 x coupling: the tasks interleave in cell order, one
        # per coupling value
        spec = load_config(CONFIGS / "toyfull_coupling.yaml")
        tasks = sweep_tasks(spec)
        assert [len(task) for task in tasks] == [25] * 5
        assert [sorted(task) for task in tasks] == tasks
        assert [task[:2] for task in tasks] == [[k, k + 5] for k in range(5)]
        assert [len(task) for task in
                sweep_tasks(default_config())] == [6] * 10
        assert [len(task) for task in
                sweep_tasks(default_config(full=True))] == \
            [12] * 42

    def test_axis_major_order_and_shared_single_gain(self):
        spec = toy_sweep_config()
        results = run_riig_sweep(spec)
        assert [(r.point["n_obs2"], r.point["snr2"]) for r in results] == \
            [(n, s) for n in spec.sweep["n_obs2"] for s in spec.sweep["snr2"]]
        singles = {r.ig_single for r in results}
        assert len(singles) == 1

    def test_monotone_in_snr2(self):
        results = run_riig_sweep(toy_sweep_config())
        table = {}
        for r in results:
            table.setdefault(r.point["n_obs2"], []).append(r.riig)
        for row in table.values():
            assert all(b >= a - 0.02 for a, b in zip(row, row[1:]))

    def test_zero_information_limit(self):
        spec = toy_sweep_config(n_obs2_axis=(4,), snr2_axis=(1e-9,))
        (cell,) = run_riig_sweep(spec)
        assert cell.ok
        assert abs(cell.riig) <= 0.02

    def test_zero_information_limit_electromech(self, material_prior):
        spec = RunConfig(
            model="electromech", constants={}, truth=(11e3, 0.35),
            prior=material_prior,
            fields=(FieldSpec(field_id=1, count=16, snr=50.0,
                              coord_range=(0.0, 0.4)),
                    FieldSpec(field_id=2, count=2, snr=1.0,
                              coord_range=(0.0, 0.4))),
            sweep={"snr2": (1e-9,)}, grid_shape=(50, 50))
        (cell,) = run_riig_sweep(spec)
        assert cell.ok
        assert abs(cell.riig) <= 0.02

    def test_worker_count_does_not_change_bits(self):
        spec = toy_sweep_config()
        serial = run_riig_sweep(spec, workers=1)
        parallel = run_riig_sweep(spec, workers=2)
        assert serial == parallel

    def test_failed_cell_recorded_not_raised(self):
        # second-field coordinates all at the origin give an all-zero truth
        # signal, which cannot define a noise variance
        spec = toy_sweep_config(constants={"coupling12": 0.0,
                                           "coupling21": 0.0},
                                n_obs2_axis=(2,), snr2_axis=(10.0,),
                                second_field_range=(0.0, 0.0))
        (cell,) = run_riig_sweep(spec)
        assert not cell.ok
        assert cell.status.startswith("failed:")
        assert cell.ig_multi is None and cell.riig is None

    def test_failed_first_field_fails_each_cell(self):
        spec = toy_sweep_config(constants={"coupling12": 0.0,
                                           "coupling21": 0.0},
                                first_field_range=(0.0, 0.0))
        results = run_riig_sweep(spec, workers=2)
        assert len(results) == 9
        assert all(r.status.startswith("failed:") and r.ig_single is None
                   for r in results)

    def test_progress_callback(self):
        seen = []
        run_riig_sweep(toy_sweep_config(n_obs2_axis=(2,),
                                        snr2_axis=(5.0, 50.0)),
                       progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]


TOY_CONFIG = (
    "model: toy-full\n"
    "constants: {coupling12: 0.5, coupling21: 0.25}\n"
    "truth: [1.2, 0.7]\n"
    "prior:\n"
    "  mean: [1.0, 0.6]\n  sd: [0.5, 0.5]\n"
    "  lower: [0.0, 0.0]\n  upper: [inf, inf]\n"
    "fields:\n"
    "  - {id: 1, count: 6, snr: 30, range: [0.0, 1.0]}\n"
    "  - {id: 2, count: 2, snr: 50, range: [0.0, 1.0]}\n"
    "grid: [30, 30]\n")


class TestSharedFieldOne:
    """Tasks that share model constants and ``n_obs1`` share one field-1
    analysis; they are listed next to each other, and a process computes
    it once for a run of them."""

    def test_sweep_csv_same_bytes_for_one_and_two_workers(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(TOY_CONFIG + "sweep: {n_obs2: [2, 4, 8], "
                                       "snr2: [5.0, 50.0]}\n")
        csvs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            assert main(["sweep", "--config", str(config), "--out", str(out),
                         "--workers", workers]) == 0
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1]
        lines = csvs[0].decode().splitlines()
        assert len(lines) == 1 + 3 * 2
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_serial_sweep_builds_prior_grid_once(self, monkeypatch):
        # one evaluator runs every task
        builds = []

        def counting(*args, **kwargs):
            builds.append(args)
            return PriorGrid(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "PriorGrid", counting)
        spec = toy_sweep_config()
        assert len(sweep_tasks(spec)) == 3
        assert all(r.ok for r in run_riig_sweep(spec))
        assert len(builds) == 1

    def test_tasks_sharing_field1_run_together(self):
        # cells run n_obs2-major, so the tasks of one coupling12 value,
        # which share a field-1 analysis, are not neighbours in cell order
        spec = toy_sweep_config(sweep={"n_obs2": (2, 4), "snr2": (5.0, 50.0),
                                       "coupling12": (0.0, 0.5)})
        assert sweep_tasks(spec) == [[0, 2], [4, 6], [1, 3], [5, 7]]
        batches = []
        original = ToyFullModel.outputs

        def outputs(self, x, field_id, coords, work=None):
            if field_id == 1 and np.ndim(x) > 1:
                batches.append(len(x))
            return original(self, x, field_id, coords, work)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ToyFullModel, "outputs", outputs)
            results = run_riig_sweep(spec)
        assert all(r.ok for r in results)
        # one pass over the grid per coupling12 value
        assert sum(batches) == 2 * np.prod(spec.grid_shape)

    def test_failing_group_fails_only_its_cells(self):
        # at coupling12 = 0.5 the truth's field-1 outputs
        # (x1 - 0.5*x2)*c/det are all zero, so no SNR defines a noise
        # variance; coupling12 = 0 is a healthy group
        spec = toy_sweep_config(truth=(0.35, 0.7),
                                constants={"coupling21": 0.25},
                                sweep={"n_obs2": (2, 4), "snr2": (5.0, 50.0),
                                       "coupling12": (0.0, 0.5)})
        assert len(sweep_tasks(spec)) == 4
        model = build_model("toy-full", {"coupling12": 0.5,
                                         "coupling21": 0.25})
        with pytest.raises(DegenerateSignalError) as raised:
            synthesize_observations(model, np.array(spec.truth), 1,
                                    spec.field_spec(1).coordinates(), 30.0)
        results = run_riig_sweep(spec)
        assert run_riig_sweep(spec, workers=2) == results
        healthy = run_riig_sweep(
            replace(spec, sweep={**spec.sweep, "coupling12": (0.0,)}))
        assert [r for r in results if r.point["coupling12"] == 0.0] == \
            healthy
        assert all(r.ok for r in healthy)
        failed = [r for r in results if r.point["coupling12"] == 0.5]
        assert len(failed) == 4
        assert {r.status for r in failed} == {f"failed:{raised.value}"}
        assert all(r.ig_single is None and r.riig is None for r in failed)

    def test_raising_model_fails_its_group_with_its_message(self):
        # field 2's model raises on the grid at coupling12 = 0.5 only
        spec = toy_sweep_config(sweep={"n_obs2": (2, 4), "snr2": (5.0, 50.0),
                                       "coupling12": (0.0, 0.5)})
        healthy = run_riig_sweep(
            replace(spec, sweep={**spec.sweep, "coupling12": (0.0,)}))
        assert all(r.ok for r in healthy)
        original = ToyFullModel.outputs

        def outputs(self, x, field_id, coords, work=None):
            if field_id == 2 and np.ndim(x) > 1 and self.coupling12 == 0.5:
                raise ValueError("solver diverged")
            return original(self, x, field_id, coords, work)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ToyFullModel, "outputs", outputs)
            for workers in (1, 2):
                results = run_riig_sweep(spec, workers=workers)
                assert [r for r in results
                        if r.point["coupling12"] == 0.0] == healthy
                assert [r.status for r in results
                        if r.point["coupling12"] == 0.5] == \
                    ["failed:solver diverged"] * 4

    def test_serial_sweep_keeps_no_evaluator(self, monkeypatch):
        # the prior grid and the last field-1 moments end with the sweep,
        # also when it is interrupted
        spec = toy_sweep_config(n_obs2_axis=(2, 4), snr2_axis=(5.0,))
        assert all(r.ok for r in run_riig_sweep(spec))
        assert sweep_module._evaluator is None

        def interrupted(self, cells):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_module._TaskEvaluator, "__call__",
                            interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_riig_sweep(spec)
        assert sweep_module._evaluator is None


#: Threads that ``ToyFullModel.outputs`` ran on in this process, while
#: a test records them.
_OUTPUT_THREADS = set()


def _task_threads(task):
    """Stands in for ``sweep._evaluate_task``: runs the task, then returns
    once per cell the process that ran it and whether every model
    evaluation of the task ran on that process's calling thread."""
    _OUTPUT_THREADS.clear()
    sweep_module._evaluator(task)
    return [(os.getpid(), _OUTPUT_THREADS == {threading.get_ident()})] \
        * len(task.cells)


def _in_worker() -> bool:
    """Whether this is a pool worker.  The calling process sleeps 100 ms
    each time it asks, so that a worker has started before the caller has
    taken every task of a test sweep."""
    if multiprocessing.parent_process() is not None:
        return True
    time.sleep(0.1)
    return False


def _task_pids(task):
    """Stands in for ``sweep._evaluate_task``: the process that ran each
    cell."""
    _in_worker()
    return [os.getpid()] * len(task.cells)


def _fail_in_worker(task):
    """Stands in for ``sweep._evaluate_task``: raises in a pool worker."""
    if _in_worker():
        raise LookupError("task failed in a pool worker")
    return sweep_module._evaluator(task)


def _fail_in_caller(task):
    """Stands in for ``sweep._evaluate_task``: raises in the calling
    process.  A pool worker takes 50 ms per task, so that the calling
    process is left tasks to take."""
    if multiprocessing.parent_process() is None:
        raise LookupError("task failed in the calling process")
    time.sleep(0.05)
    return sweep_module._evaluator(task)


def _exit_in_worker(task):
    """Stands in for ``sweep._evaluate_task``: a pool worker dies."""
    if _in_worker():
        os._exit(3)
    return sweep_module._evaluator(task)


def _exit_in_worker_later(task):
    """Stands in for ``sweep._evaluate_task``: a pool worker dies 200 ms
    into its task.  By then the calling process has taken a task whose
    cancelled future the pool still holds queued."""
    if _in_worker():
        time.sleep(0.2)
        os._exit(3)
    return sweep_module._evaluator(task)


#: Names of the threads alive at each fork of this process, while a test
#: records them.
_THREADS_AT_FORK = []


def _record_threads_at_fork() -> None:
    if _THREADS_AT_FORK and _THREADS_AT_FORK[0] == "recording":
        _THREADS_AT_FORK.append([t.name for t in threading.enumerate()])


os.register_at_fork(before=_record_threads_at_fork)


class TestMisfitThreads:
    """The misfit reduction's threads change no bit of a sweep, and leave
    nothing behind that a forked pool worker could trip over."""

    def test_sweep_csv_same_bytes_for_one_and_three_threads(
            self, tmp_path, monkeypatch):
        config = tmp_path / "config.yaml"
        config.write_text(TOY_CONFIG + "sweep: {n_obs2: [2, 8], "
                                       "snr2: [5.0, 50.0]}\n")
        # blocks of 64 outputs: field 1's 30x30 nodes x 6 forces in 90
        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 64)
        csvs = []
        for threads in (1, 3):
            monkeypatch.setattr(probabilistic, "usable_cpus",
                                lambda: threads)
            out = tmp_path / f"threads{threads}"
            assert main(["sweep", "--config", str(config),
                         "--out", str(out)]) == 0
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1]
        assert csvs[0].decode().count(",ok\n") == 2 * 2

    def test_pool_worker_reduces_on_one_thread(self, monkeypatch):
        # and so does the calling process of a pooled sweep
        monkeypatch.setattr(probabilistic, "usable_cpus", lambda: 3)
        # field 1's 25 nodes x 6 forces in five row blocks
        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 40)
        original = ToyFullModel.outputs

        def outputs(self, x, field_id, coords, work=None):
            _OUTPUT_THREADS.add(threading.get_ident())
            time.sleep(1e-3)   # so that every thread of a pool takes blocks
            return original(self, x, field_id, coords, work)

        monkeypatch.setattr(ToyFullModel, "outputs", outputs)
        spec = toy_sweep_config(grid_shape=(5, 5))
        # the serial path reduces on its helper threads too
        _OUTPUT_THREADS.clear()
        assert all(r.ok for r in run_riig_sweep(spec))
        assert threading.get_ident() in _OUTPUT_THREADS
        assert len(_OUTPUT_THREADS) > 1
        monkeypatch.setattr(sweep_module, "_evaluate_task", _task_threads)
        pooled = run_riig_sweep(spec, workers=2)
        assert {one_thread for _, one_thread in pooled} == {True}
        assert os.getpid() in {pid for pid, _ in pooled}

    def test_pooled_sweep_forks_with_no_helper_thread(self, monkeypatch):
        monkeypatch.setattr(probabilistic, "usable_cpus", lambda: 3)
        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 40)
        spec = toy_sweep_config(grid_shape=(5, 5))
        _THREADS_AT_FORK[:] = ["recording"]
        try:
            assert all(r.ok for r in run_riig_sweep(spec, workers=2))
        finally:
            forks = _THREADS_AT_FORK[1:]
            _THREADS_AT_FORK.clear()
        assert forks
        assert not any("mfbia-reduce" in names for names in forks)

    def test_no_thread_outlives_the_sweep(self, monkeypatch):
        monkeypatch.setattr(probabilistic, "usable_cpus", lambda: 3)
        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 40)
        before = set(threading.enumerate())
        assert all(r.ok for r in run_riig_sweep(
            toy_sweep_config(grid_shape=(5, 5))))
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_sweep_bits_same_with_and_without_lookahead(self, tmp_path,
                                                        monkeypatch,
                                                        threads):
        # blocks of 64 outputs: field 1's 30x30 nodes x 6 forces in 90
        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 64)
        monkeypatch.setattr(probabilistic, "usable_cpus", lambda: threads)
        spec = toy_sweep_config(n_obs2_axis=(2, 8, 32),
                                snr2_axis=(5.0, 50.0), grid_shape=(30, 30))
        export_sweep_csv(run_riig_sweep(spec), tmp_path / "ahead.csv")
        # each task evaluated right after its reductions are queued
        tasks = sweep_tasks(spec)
        evaluator = sweep_module._TaskEvaluator(spec, tasks)
        try:
            results = [None] * len(evaluator.cells)
            for number, cells in enumerate(tasks):
                for cell, result in zip(cells, evaluator(
                        evaluator.prepare(number))):
                    results[cell] = result
        finally:
            evaluator.pool.close()
        export_sweep_csv(results, tmp_path / "in_turn.csv")
        # and on two processes, each reducing on its calling thread
        export_sweep_csv(run_riig_sweep(spec, workers=2),
                         tmp_path / "pooled.csv")
        ahead = (tmp_path / "ahead.csv").read_bytes()
        assert ahead.decode().count(",ok\n") == 3 * 2
        assert (tmp_path / "in_turn.csv").read_bytes() == ahead
        assert (tmp_path / "pooled.csv").read_bytes() == ahead

    def test_posterior_bits_same_for_any_thread_count(self, tmp_path,
                                                      monkeypatch):
        config = str(CONFIGS / "fig9_right.yaml")
        assert main(["synthesize", "--config", config,
                     "--out", str(tmp_path / "obs")]) == 0
        obs = []
        for path in sorted((tmp_path / "obs").glob("*.csv")):
            obs += ["--obs", str(path)]
        before = set(threading.enumerate())
        outputs = set()
        for threads in (1, 2, 4):
            monkeypatch.setattr(probabilistic, "usable_cpus",
                                lambda: threads)
            out = tmp_path / f"threads{threads}"
            assert main(["posterior", "--config", config, *obs,
                         "--grid", "60", "--out", str(out)]) == 0
            assert set(threading.enumerate()) == before
            outputs.add(tuple(path.read_bytes()
                              for path in sorted(out.iterdir())))
        assert len(outputs) == 1

    def test_pool_sweep_after_threaded_posterior_finishes(self, tmp_path):
        script = (
            "import sys\n"
            "import mfbia.probabilistic as probabilistic\n"
            "from mfbia.cli import main\n"
            "config, toy, out = sys.argv[1:]\n"
            "probabilistic.usable_cpus = lambda: 2\n"
            "assert main(['synthesize', '--config', config,\n"
            "             '--out', out + '/obs']) == 0\n"
            "assert main(['posterior', '--config', config, '--grid', '60',\n"
            "             '--obs', out + '/obs/observations_field1.csv',\n"
            "             '--obs', out + '/obs/observations_field2.csv',\n"
            "             '--out', out + '/post']) == 0\n"
            "assert main(['sweep', '--config', toy, '--workers', '2',\n"
            "             '--out', out + '/sweep']) == 0\n"
            "print('done')\n")
        toy = tmp_path / "toy.yaml"
        toy.write_text(TOY_CONFIG + "sweep: {n_obs2: [2, 8], "
                                    "snr2: [5.0, 50.0]}\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(CONFIGS / "fig9_right.yaml"),
             str(toy), str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "done"


class TestDispatch:
    """The pool gets every task as a future, and the calling process
    takes each one it can still cancel; no bit depends on the worker count
    or on which process ran a task."""

    def test_sweep_csv_same_bytes_for_any_worker_count(self, tmp_path):
        # eight tasks, whose cost grows with n_obs2
        config = tmp_path / "config.yaml"
        config.write_text(TOY_CONFIG + "sweep: {n_obs2: [2, 4, 8, 16, 32, "
                                       "64, 128, 256], snr2: [5.0, 50.0]}\n")
        csvs = {}
        for workers in (1, 2, 3, 8):
            out = tmp_path / f"workers{workers}"
            assert main(["sweep", "--config", str(config), "--workers",
                         str(workers), "--out", str(out)]) == 0
            csvs[workers] = (out / "sweep.csv").read_bytes()
        assert len(set(csvs.values())) == 1
        assert csvs[1].decode().count(",ok\n") == 8 * 2

    def test_calling_process_runs_tasks(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "_evaluate_task", _task_pids)
        spec = toy_sweep_config(grid_shape=(5, 5))
        pids = run_riig_sweep(spec, workers=2)
        assert os.getpid() in pids
        assert len(set(pids)) == 2
        assert all(len({pids[index] for index in task}) == 1
                   for task in sweep_tasks(spec))
        assert sweep_module._evaluator is None

    def test_pool_gets_one_submit_per_task(self, monkeypatch):
        # so the bytes dispatched do not depend on who runs which task
        submitted = []

        class Recording(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append((fn, args, kwargs))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", Recording)
        spec = toy_sweep_config(grid_shape=(5, 5))
        assert run_riig_sweep(spec, workers=2) == run_riig_sweep(spec)
        assert submitted == [(sweep_module._evaluate, (n,), {})
                             for n in range(3)]

    def test_progress_is_reported_as_tasks_finish(self, monkeypatch):
        spec = toy_sweep_config(grid_shape=(5, 5))
        seen, started = [], []

        def record(done, total):
            seen.append((done, total, threading.get_ident()))

        def evaluate(cells):
            started.append(len(seen))
            return sweep_module._evaluator(cells)

        expected = [(done, 9, threading.get_ident()) for done in range(1, 10)]
        assert all(r.ok for r in run_riig_sweep(spec, workers=2,
                                                progress=record))
        assert seen == expected
        seen.clear()
        monkeypatch.setattr(sweep_module, "_evaluate_task", evaluate)
        run_riig_sweep(spec, progress=record)
        # each task of three cells starts once those before it are reported
        assert started == [0, 3, 6]
        assert seen == expected
        # on two processes, a task of the calling process starts once the
        # tasks it ran before are reported, and maybe a worker's too
        seen.clear()
        started.clear()
        assert all(r.ok for r in run_riig_sweep(spec, workers=2,
                                                progress=record))
        assert seen == expected
        assert started[0] == 0
        assert all(count % 3 == 0 and count >= 3 * k
                   for k, count in enumerate(started))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_calling_process_looks_one_task_ahead(self, monkeypatch, workers):
        # the calling process takes its next task, and queues its
        # reductions, before it evaluates a task's cells, on any number of
        # processes
        prepared, evaluated = [], []   # in the calling process
        prepare = sweep_module._TaskEvaluator.prepare

        def recorded(evaluator, number):
            if multiprocessing.parent_process() is None:
                prepared.append(number)
            return prepare(evaluator, number)

        def evaluate(task):
            if multiprocessing.parent_process() is None:
                evaluated.append((task.cells, len(prepared)))
            else:
                time.sleep(0.05)
            return sweep_module._evaluator(task)

        spec = toy_sweep_config(n_obs2_axis=(2, 4, 8, 16),
                                grid_shape=(5, 5))
        serial = run_riig_sweep(spec)
        monkeypatch.setattr(sweep_module._TaskEvaluator, "prepare", recorded)
        monkeypatch.setattr(sweep_module, "_evaluate_task", evaluate)
        assert run_riig_sweep(spec, workers=workers) == serial
        # its k-th task is the k-th it prepared, evaluated once it has
        # prepared task k + 1, if it takes one more; the numbers it
        # prepared increase
        assert len(evaluated) == len(prepared)
        assert [made for _, made in evaluated] == \
            [*range(2, len(evaluated) + 1), len(evaluated)]
        assert prepared == sorted(set(prepared))
        tasks = sweep_tasks(spec)
        cells = list(itertools.product(*spec.sweep.values()))
        assert [task for task, _ in evaluated] == \
            [[cells[cell] for cell in tasks[number]] for number in prepared]

    @pytest.mark.parametrize("stand_in,error", [
        (_fail_in_worker, LookupError),
        (_exit_in_worker, BrokenProcessPool),
        (_exit_in_worker_later, BrokenProcessPool),
        (_fail_in_caller, LookupError),
    ])
    def test_pool_failure_propagates(self, monkeypatch, stand_in, error):
        monkeypatch.setattr(sweep_module, "_evaluate_task", stand_in)
        # eight tasks: more than the pool's worker holds, running or
        # queued, so that the calling process still takes one after 100 ms
        spec = toy_sweep_config(n_obs2_axis=(2, 4, 8, 16, 32, 64, 128, 256),
                                grid_shape=(5, 5))
        with pytest.raises(error):
            run_riig_sweep(spec, workers=2)
        assert sweep_module._evaluator is None
        assert not multiprocessing.active_children()


class TestCouplingSweep:
    def spec(self, **axes) -> RunConfig:
        return RunConfig(
            model="toy-full",
            constants={},
            truth=(1.2, 0.7),
            prior=toy_prior(),
            fields=(FieldSpec(field_id=1, count=5, snr=30.0,
                              coord_range=(0.1, 1.0)),
                    FieldSpec(field_id=2, count=4, snr=30.0,
                              coord_range=(0.1, 1.0))),
            sweep=axes or {"coupling": (0.1, 0.4, 0.7),
                           "snr1": (5.0, 50.0), "snr2": (10.0, 1000.0)},
            grid_shape=(30, 30))

    def test_axis_major_cells_all_ok(self):
        spec = self.spec()
        results = run_riig_sweep(spec)
        assert len(results) == 2 * 2 * 3
        assert all(r.ok for r in results)
        assert list(spec.sweep) == ["snr1", "snr2", "coupling"]
        assert [tuple(r.point.values()) for r in results] == \
            [(a, b, c) for a in spec.sweep["snr1"]
             for b in spec.sweep["snr2"] for c in spec.sweep["coupling"]]

    def test_cell_sharing_field1_matches_manual_composition(self):
        # the later cells reuse the field-1 analysis of the first one
        spec = self.spec(snr2=(10.0, 100.0, 1000.0), coupling=(0.4,))
        results = run_riig_sweep(spec)
        assert len({r.ig_single for r in results}) == 1
        cell = results[-1]
        assert cell.ok and cell.point == {"snr2": 1000.0, "coupling": 0.4}

        model = build_model("toy-full", {"coupling": 0.4})
        truth = np.array(spec.truth)
        obs1 = synthesize_observations(model, truth, 1,
                                       np.linspace(0.1, 1.0, 5), 30.0)
        obs2 = synthesize_observations(model, truth, 2,
                                       np.linspace(0.1, 1.0, 4), 1000.0)
        ig1, igm, postm = manual_gains(spec, model, obs1, obs2)
        assert cell.ig_single == ig1
        assert cell.ig_multi == igm
        assert cell.riig == riig(ig1, igm)
        assert cell.boundary_mass == postm.boundary_mass

    def test_gains_positive_and_second_field_helps(self):
        results = run_riig_sweep(self.spec())
        for r in results:
            assert r.ig_single > 0
            assert r.ig_multi >= -1e-6

    def test_worker_determinism(self):
        spec = self.spec()
        assert run_coupling_sweep(spec, workers=2) == run_riig_sweep(spec)

    def test_one_task_runs_in_process(self, monkeypatch):
        # only SNR axes and one coupling value: one task, which two
        # workers cannot share
        spec = self.spec(snr1=(5.0, 50.0), snr2=(10.0, 100.0, 1000.0),
                         coupling=(0.4,))
        assert len(sweep_tasks(spec)) == 1
        serial = run_riig_sweep(spec)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-task sweep started a process pool")

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", no_pool)
        assert run_riig_sweep(spec, workers=2) == serial

    def test_multi_field_gain_matches_the_exact_gain(self):
        # The toy model is linear, so under the untruncated prior each
        # cell's two-field posterior is the Gaussian N(m, C).  Where N(m, C)
        # lies well inside the prior box, the exact gain is its KL
        # divergence from the untruncated prior plus log(prior box mass).
        # ig_single has no such oracle here: over all 125 cells of the
        # committed study, the single-field mode lies only 1.16-1.49
        # posterior SDs from the bound x2 >= 0.  At snr1 = 10 the
        # concentrated cells (snr2 >= 56234) still err by up to 5.1% at
        # 200x200, and by up to 8.4% over all snr1 (ROADMAP item 2); the
        # cells below err by -0.40% at worst, every one low.
        config = replace(load_config(CONFIGS / "toyfull_coupling.yaml"),
                         sweep={"snr1": [10],
                                "snr2": [10, 177.827941, 3162.27766],
                                "coupling": [0.3, 0.7]},
                         grid_shape=(200, 200))
        prior, truth = config.prior, np.array(config.truth)

        def cdf(bound, k):
            z = (bound - prior.mean[k]) / prior.sd[k]
            return 0.5 * math.erfc(-z / math.sqrt(2.0))

        box_mass = math.prod(cdf(prior.upper[k], k) - cdf(prior.lower[k], k)
                             for k in range(prior.dim))
        cells = run_riig_sweep(config)
        assert len(cells) == 6
        for cell in cells:
            model = build_model(config.model,
                                {"coupling": cell.point["coupling"]})
            precision = np.diag(1.0 / prior.variance)
            shift = prior.mean / prior.variance
            for plan in config.sweep_plans():
                coords = plan.coordinates()
                centre = model.outputs(truth, plan.field_id, coords)
                variance = sigma_from_snr(
                    centre, cell.point[f"snr{plan.field_id}"])
                data = centre + math.sqrt(variance) \
                    * sobol_standard_normal(centre.size)
                # the outputs are linear in the parameters
                jacobian = np.stack([model.outputs(unit, plan.field_id,
                                                   coords)
                                     for unit in np.eye(2)], axis=-1)
                precision = precision + jacobian.T @ jacobian / variance
                shift = shift + jacobian.T @ data / variance
            cov = np.linalg.inv(precision)
            mean = cov @ shift
            sd = np.sqrt(np.diag(cov))
            # the oracle holds only well inside the box (measured 5.7-9.3)
            assert np.all((mean - prior.lower) / sd >= 4.0)
            assert np.all((prior.upper - mean) / sd >= 4.0)
            exact = kl_gaussians(prior.mean, np.diag(prior.variance), mean,
                                 cov) + math.log(box_mass)
            assert cell.ok
            assert abs(cell.ig_multi - exact) <= 5e-3 * exact, cell.point

    def test_export(self, tmp_path):
        results = run_riig_sweep(self.spec())
        path = tmp_path / "coupling.csv"
        export_sweep_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == \
            "snr1,snr2,coupling,ig_single,ig_multi,riig,boundary_mass,status"
        assert len(lines) == 1 + len(results)


class TestExportAndManifest:
    def test_single_cell_export_layout(self, tmp_path):
        spec = toy_sweep_config(n_obs2_axis=(4,), snr2_axis=(50.0,))
        results = run_riig_sweep(spec)
        path = tmp_path / "sweep.csv"
        export_sweep_csv(results, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == \
            "n_obs2,snr2,ig_single,ig_multi,riig,boundary_mass,status"
        assert lines[1].endswith(",ok")

    def test_reexport_is_byte_identical(self, tmp_path):
        results = run_riig_sweep(toy_sweep_config(n_obs2_axis=(2, 4),
                                                  snr2_axis=(5.0, 50.0)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_sweep_csv(results, a)
        export_sweep_csv(results, b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_cell_row_has_empty_numerics(self, tmp_path):
        spec = toy_sweep_config(constants={"coupling12": 0.0,
                                           "coupling21": 0.0},
                                n_obs2_axis=(2,), snr2_axis=(10.0,),
                                second_field_range=(0.0, 0.0))
        results = run_riig_sweep(spec)
        path = tmp_path / "sweep.csv"
        export_sweep_csv(results, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[0] == "2"
        assert row[2] == "" and row[3] == "" and row[4] == ""
        assert row[6].startswith("failed:")

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_sweep_csv([], tmp_path / "sweep.csv")

    def test_manifest_spec_echo(self, tmp_path):
        import json

        for config, spec in (
                (default_config(), FIG10_SPEC),
                (load_config(CONFIGS / "toyfull_coupling.yaml"),
                 COUPLING_SPEC)):
            path = tmp_path / "manifest.json"
            write_run_manifest(path, config, [], workers=1)
            assert json.loads(path.read_text())["spec"] == spec

    def test_manifest_is_strict_json(self, tmp_path):
        """A non-finite value is echoed as null, never as a bare NaN or
        -Infinity, which strict JSON parsers refuse."""
        import json

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        def spec_of(config_text):
            config_path = tmp_path / "config.yaml"
            config_path.write_text(config_text)
            path = tmp_path / "manifest.json"
            write_run_manifest(path, load_config(config_path), [], workers=1)
            return json.loads(path.read_text(), parse_constant=refuse)["spec"]

        fig9 = (CONFIGS / "fig9.yaml").read_text()
        without_field2 = fig9.replace(
            "  - id: 2\n    count: 2\n    snr: 1.2e4\n"
            "    range: [0 N, 0.4 N]\n", "").replace(
            "  n_obs2: {start: 2, stop: 256, num: 10, spacing: log, "
            "integer: true}\n  snr2: {start: 80, stop: 1.2e4, num: 6, "
            "spacing: log}\n", "  n_obs2: [2]\n  snr2: [80]\n")
        assert "id: 2" not in without_field2 and "[80]" in without_field2
        assert spec_of(without_field2)["fields"][1] == {
            "id": 2, "count": 0, "snr": None, "range": [0.0, 0.4]}
        unbounded = (CONFIGS / "toyfull_coupling.yaml").read_text().replace(
            "lower: [0.0, 0.0]", "lower: [-.inf, 0.0]")
        assert spec_of(unbounded)["prior"]["lower"] == [None, 0.0]

    def test_manifest_contents(self, tmp_path):
        import json

        spec = toy_sweep_config(n_obs2_axis=(2,), snr2_axis=(5.0,))
        results = run_riig_sweep(spec)
        path = tmp_path / "manifest.json"
        write_run_manifest(path, spec, results, workers=3,
                           runtime_seconds=1.25)
        data = json.loads(path.read_text())
        assert data["tool"] == "mfbia"
        assert data["workers"] == 3
        assert data["cells"] == 1
        assert data["failed_cells"] == 0
        assert data["spec"]["model"] == "toy-full"
        assert data["spec"]["axes"] == {"n_obs2": [2], "snr2": [5.0]}


#: The manifest's echo of ``default_config()``, the fig10 sweep.
FIG10_SPEC = {
    "model": "electromech",
    "model_constants": {},
    "truth": [11000.0, 0.35],
    "prior": {"mean": [10000.0, 0.3], "variance": [4000000.0, 0.0225],
              "lower": [0.0, 0.0], "upper": [None, 0.5]},
    "grid_shape": [100, 100],
    "fields": [{"id": 1, "count": 16, "snr": 50.0, "range": [0.0, 0.4]},
               {"id": 2, "count": 2, "snr": 12000.0, "range": [0.0, 0.4]}],
    "axes": {"n_obs2": [2, 3, 6, 10, 17, 30, 51, 87, 149, 256],
             "snr2": [80.0, 217.92559419413297, 593.6445575608238,
                      1617.1292868319458, 4405.173259019827, 12000.0]},
}

#: The manifest's echo of ``configs/toyfull_coupling.yaml``.
COUPLING_SPEC = {
    "model": "toy-full",
    "model_constants": {},
    "truth": [1.2, 0.7],
    "prior": {"mean": [1.0, 0.6], "variance": [0.25, 0.25],
              "lower": [0.0, 0.0], "upper": [None, None]},
    "grid_shape": [50, 50],
    "fields": [{"id": 1, "count": 7, "snr": 50.0, "range": [0.1, 1.0]},
               {"id": 2, "count": 2, "snr": 1000.0, "range": [0.1, 1.0]}],
    "axes": {"snr1": [1.0, 3.1622776601683795, 10.0, 31.622776601683793,
                      100.0],
             "snr2": [10.0, 177.82794100389228, 3162.2776601683795,
                      56234.13251903491, 1000000.0],
             "coupling": [0.1, 0.30000000000000004, 0.5, 0.7000000000000001,
                          0.9]},
}
