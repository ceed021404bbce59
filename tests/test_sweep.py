import numpy as np
import pytest

from mfbia.inference import (
    cdf_spaced_grid,
    evaluate_posterior,
    information_gain,
    riig,
)
from mfbia.models import build_model
from mfbia.probabilistic import (
    TruncatedNormalPrior,
    log_likelihood,
    synthesize_observations,
)
from mfbia.sweep import (
    FieldSpec,
    SweepSpec,
    export_sweep_csv,
    run_coupling_sweep,
    run_riig_sweep,
    write_run_manifest,
)


def toy_prior() -> TruncatedNormalPrior:
    return TruncatedNormalPrior(mean=np.array([1.0, 0.6]),
                                variance=np.array([0.25, 0.25]),
                                lower=np.array([0.0, 0.0]),
                                upper=np.array([np.inf, np.inf]))


def toy_sweep_spec(n_obs2_axis=(2, 4, 8), snr2_axis=(5.0, 50.0, 500.0),
                   second_field_range=(0.0, 1.0), **overrides) -> SweepSpec:
    base = dict(
        model_name="toy-full",
        model_constants={"coupling12": 0.5, "coupling21": 0.25},
        truth=(1.2, 0.7),
        prior=toy_prior(),
        first_field=FieldSpec(field_id=1, count=6, snr=30.0,
                              coord_range=(0.0, 1.0)),
        second_field=FieldSpec(field_id=2, count=1, snr=1.0,
                               coord_range=second_field_range),
        axes={"n_obs2": n_obs2_axis, "snr2": snr2_axis},
        grid_shape=(40, 40))
    base.update(overrides)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_plan_coordinates(self):
        plan = FieldSpec(field_id=1, count=3, snr=10.0, coord_range=(0.0, 1.0))
        np.testing.assert_allclose(plan.coordinates(), [0.0, 0.5, 1.0])

    def test_plan_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FieldSpec(field_id=1, count=-1, snr=10.0, coord_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            FieldSpec(field_id=1, count=1, snr=0.0, coord_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            FieldSpec(field_id=1, count=1, snr=1.0, coord_range=(1.0, 0.0))

    def test_axes_must_be_increasing_and_nonempty(self):
        with pytest.raises(ValueError):
            toy_sweep_spec(n_obs2_axis=())
        with pytest.raises(ValueError):
            toy_sweep_spec(n_obs2_axis=(4, 2))
        with pytest.raises(ValueError):
            toy_sweep_spec(snr2_axis=(50.0, 50.0))
        with pytest.raises(ValueError):
            toy_sweep_spec(n_obs2_axis=(0, 2))


class TestRiigSweep:
    def test_single_cell_matches_manual_composition(self):
        spec = toy_sweep_spec(n_obs2_axis=(4,), snr2_axis=(50.0,))
        (cell,) = run_riig_sweep(spec)
        assert cell.ok

        model = build_model(spec.model_name, spec.model_constants)
        truth = np.array(spec.truth)
        axes = cdf_spaced_grid(spec.prior, spec.grid_shape)
        obs1 = synthesize_observations(model, truth, 1,
                                       spec.first_field.coordinates(), 30.0)
        obs2 = synthesize_observations(model, truth, 2,
                                       np.linspace(0.0, 1.0, 4), 50.0)
        post1 = evaluate_posterior(
            spec.prior, lambda n: log_likelihood(model, n, [obs1]), axes)
        postm = evaluate_posterior(
            spec.prior, lambda n: log_likelihood(model, n, [obs1, obs2]), axes)
        ig1 = information_gain(post1, spec.prior)
        igm = information_gain(postm, spec.prior)
        assert cell.ig_single == ig1
        assert cell.ig_multi == igm
        assert cell.riig == riig(ig1, igm)
        assert cell.riig == (cell.ig_multi - cell.ig_single) / cell.ig_single

    def test_axis_major_order_and_shared_single_gain(self):
        spec = toy_sweep_spec()
        results = run_riig_sweep(spec)
        assert [(r.point["n_obs2"], r.point["snr2"]) for r in results] == \
            [(n, s) for n in spec.axes["n_obs2"] for s in spec.axes["snr2"]]
        singles = {r.ig_single for r in results}
        assert len(singles) == 1

    def test_monotone_in_snr2(self):
        results = run_riig_sweep(toy_sweep_spec())
        table = {}
        for r in results:
            table.setdefault(r.point["n_obs2"], []).append(r.riig)
        for row in table.values():
            assert all(b >= a - 0.02 for a, b in zip(row, row[1:]))

    def test_zero_information_limit(self):
        spec = toy_sweep_spec(n_obs2_axis=(4,), snr2_axis=(1e-9,))
        (cell,) = run_riig_sweep(spec)
        assert cell.ok
        assert abs(cell.riig) <= 0.02

    def test_zero_information_limit_electromech(self, material_prior):
        spec = SweepSpec(
            model_name="electromech", truth=(11e3, 0.35),
            prior=material_prior,
            first_field=FieldSpec(field_id=1, count=16, snr=50.0,
                                  coord_range=(0.0, 0.4)),
            second_field=FieldSpec(field_id=2, count=2, snr=1.0,
                                   coord_range=(0.0, 0.4)),
            axes={"snr2": (1e-9,)}, grid_shape=(50, 50))
        (cell,) = run_riig_sweep(spec)
        assert cell.ok
        assert abs(cell.riig) <= 0.02

    def test_worker_count_does_not_change_bits(self):
        spec = toy_sweep_spec()
        serial = run_riig_sweep(spec, workers=1)
        parallel = run_riig_sweep(spec, workers=2)
        assert serial == parallel

    def test_failed_cell_recorded_not_raised(self):
        # second-field coordinates all at the origin give an all-zero truth
        # signal, which cannot define a noise variance
        spec = toy_sweep_spec(model_constants={"coupling12": 0.0,
                                               "coupling21": 0.0},
                              n_obs2_axis=(2,), snr2_axis=(10.0,),
                              second_field_range=(0.0, 0.0))
        (cell,) = run_riig_sweep(spec)
        assert not cell.ok
        assert cell.status.startswith("failed:")
        assert cell.ig_multi is None and cell.riig is None

    def test_failed_first_field_fails_each_cell(self):
        spec = toy_sweep_spec(model_constants={"coupling12": 0.0,
                                               "coupling21": 0.0},
                              first_field=FieldSpec(field_id=1, count=6,
                                                    snr=30.0,
                                                    coord_range=(0.0, 0.0)))
        results = run_riig_sweep(spec, workers=2)
        assert len(results) == 9
        assert all(r.status.startswith("failed:") and r.ig_single is None
                   for r in results)

    def test_progress_callback(self):
        seen = []
        run_riig_sweep(toy_sweep_spec(n_obs2_axis=(2,), snr2_axis=(5.0, 50.0)),
                       progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]


class TestCouplingSweep:
    def spec(self, **axes) -> SweepSpec:
        return SweepSpec(
            model_name="toy-full",
            truth=(1.2, 0.7),
            prior=toy_prior(),
            first_field=FieldSpec(field_id=1, count=5, snr=30.0,
                                  coord_range=(0.1, 1.0)),
            second_field=FieldSpec(field_id=2, count=4, snr=30.0,
                                   coord_range=(0.1, 1.0)),
            axes=axes or {"coupling": (0.1, 0.4, 0.7),
                          "snr1": (5.0, 50.0), "snr2": (10.0, 1000.0)},
            grid_shape=(30, 30))

    def test_axis_major_cells_all_ok(self):
        spec = self.spec()
        results = run_riig_sweep(spec)
        assert len(results) == 2 * 2 * 3
        assert all(r.ok for r in results)
        assert list(spec.axes) == ["snr1", "snr2", "coupling"]
        assert [tuple(r.point.values()) for r in results] == \
            [(a, b, c) for a in spec.axes["snr1"] for b in spec.axes["snr2"]
             for c in spec.axes["coupling"]]

    def test_cell_sharing_field1_matches_manual_composition(self):
        # the later cells reuse the field-1 analysis of the first one
        spec = self.spec(snr2=(10.0, 100.0, 1000.0), coupling=(0.4,))
        results = run_riig_sweep(spec)
        assert len({r.ig_single for r in results}) == 1
        cell = results[-1]
        assert cell.ok and cell.point == {"snr2": 1000.0, "coupling": 0.4}

        model = build_model("toy-full", {"coupling": 0.4})
        truth = np.array(spec.truth)
        axes = cdf_spaced_grid(spec.prior, spec.grid_shape)
        obs1 = synthesize_observations(model, truth, 1,
                                       np.linspace(0.1, 1.0, 5), 30.0)
        obs2 = synthesize_observations(model, truth, 2,
                                       np.linspace(0.1, 1.0, 4), 1000.0)
        post1 = evaluate_posterior(
            spec.prior, lambda n: log_likelihood(model, n, [obs1]), axes)
        postm = evaluate_posterior(
            spec.prior, lambda n: log_likelihood(model, n, [obs1, obs2]), axes)
        ig1 = information_gain(post1, spec.prior)
        igm = information_gain(postm, spec.prior)
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
        spec = toy_sweep_spec(n_obs2_axis=(4,), snr2_axis=(50.0,))
        results = run_riig_sweep(spec)
        path = tmp_path / "sweep.csv"
        export_sweep_csv(results, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == \
            "n_obs2,snr2,ig_single,ig_multi,riig,boundary_mass,status"
        assert lines[1].endswith(",ok")

    def test_reexport_is_byte_identical(self, tmp_path):
        results = run_riig_sweep(toy_sweep_spec(n_obs2_axis=(2, 4),
                                                snr2_axis=(5.0, 50.0)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_sweep_csv(results, a)
        export_sweep_csv(results, b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_cell_row_has_empty_numerics(self, tmp_path):
        spec = toy_sweep_spec(model_constants={"coupling12": 0.0,
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

    def test_manifest_contents(self, tmp_path):
        import json

        spec = toy_sweep_spec(n_obs2_axis=(2,), snr2_axis=(5.0,))
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
