"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The quantitative targets reproduce the reference
tensile-test results at desk scale; the property criteria pin the oracle and
invariant behavior of the solvers and quadrature.  One more test pins the
fig10 anchors to the seed code's values within ``SEED_RIIG_RTOL``, two
more pin ``reproduce fig9`` to the fig10 cells it shares, and two more pin
fig9 and fig10 to one pass over the grid for field 1.
"""

import csv
import math
import time

import numpy as np
import pytest

from mfbia.cli import main
from mfbia.config import default_config, high_noise_second_field_config
from mfbia.coupled import NewtonSettings, newton_solve
from mfbia.electromech import (
    ElectromechParams,
    coupled_system,
    current_batch,
    displacement_batch,
    jacobian,
    residual_elec,
    residual_mech,
)
from mfbia.inference import (
    PriorGrid,
    cdf_spaced_grid,
    evaluate_posterior,
    information_gain,
    kl_gaussians,
    riig,
    trapezoid_nd,
)
from mfbia.models import ElectromechModel, build_model
from mfbia.probabilistic import (
    TruncatedNormalPrior,
    log_likelihood,
    misfit_moments,
    sigma_from_snr,
    snr_from_sigma,
    synthesize_observations,
)
from mfbia.sweep import export_sweep_csv, run_riig_sweep

RIIG_MIDDLE_TARGET = 1.23
RIIG_RIGHT_TARGET = 1.22
RIIG_POINT3_TARGET = 3.65

#: fig10 anchor RIIG values of the seed code (the Newton solve from d = 0),
#: the same values ``bench/run.py`` gates on.  The closed-form forward path
#: moves them in the last bits only.
SEED_RIIG = {
    "point1": 1.2676646898711186,
    "point2": 1.1694627949747924,
    "point3": 3.4466798001957524,
}
SEED_RIIG_RTOL = 1e-9


def obs_terms(model, nodes, observations):
    """Likelihood terms of ``observations`` on ``nodes``: each set's misfit
    moments about its values, with its noise variance."""
    return [(misfit_moments(model, nodes, o.field_id, o.coordinates,
                            o.values), o.noise_variance)
            for o in observations]


def _announce(number: int, label: str):
    print(f"\n[acceptance] criterion {number:2d} PASS - {label}")


@pytest.fixture(scope="module")
def fig9():
    """Shared single-/multi-field analyses at the default 100x100 grid."""
    config = default_config()
    config_right = high_noise_second_field_config()
    model = build_model(config.model, config.constants)
    truth = np.array(config.truth)
    prior = config.prior

    def synth(spec):
        coords = np.linspace(spec.coord_range[0], spec.coord_range[1],
                             spec.count)
        return synthesize_observations(model, truth, spec.field_id, coords,
                                       spec.snr)

    obs1 = synth(config.field_spec(1))
    obs2_middle = synth(config.field_spec(2))
    obs2_right = synth(config_right.field_spec(2))

    prior_grid = PriorGrid(prior, cdf_spaced_grid(prior, config.grid_shape))

    def posterior(observations):
        return evaluate_posterior(
            log_likelihood(obs_terms(model, prior_grid.nodes, observations)),
            prior_grid)

    grid_single = posterior([obs1])
    grid_middle = posterior([obs1, obs2_middle])
    grid_right = posterior([obs1, obs2_right])
    ig_single = information_gain(grid_single)
    ig_middle = information_gain(grid_middle)
    ig_right = information_gain(grid_right)
    return {
        "config": config, "model": model, "prior": prior,
        "prior_grid": prior_grid,
        "obs1": obs1, "obs2_middle": obs2_middle, "obs2_right": obs2_right,
        "grids": (grid_single, grid_middle, grid_right),
        "ig": (ig_single, ig_middle, ig_right),
        "riig_middle": riig(ig_single, ig_middle),
        "riig_right": riig(ig_single, ig_right),
    }


def _field1_grid_batches(run):
    """``run()``'s result, and the size of every batch of grid nodes it
    passed to the field-1 forward model."""
    batches = []
    original = ElectromechModel.outputs

    def outputs(self, x, field_id, coords, work=None):
        if field_id == 1 and np.ndim(x) > 1:
            batches.append(len(x))
        return original(self, x, field_id, coords, work)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ElectromechModel, "outputs", outputs)
        return run(), batches


@pytest.fixture(scope="module")
def sweep_serial_batches():
    """The serial fig10 sweep, and its field-1 grid batch sizes."""
    spec = default_config()
    results, batches = _field1_grid_batches(
        lambda: run_riig_sweep(spec, workers=1))
    return spec, results, batches


@pytest.fixture(scope="module")
def sweep_serial(sweep_serial_batches):
    spec, results, _ = sweep_serial_batches
    return spec, results


@pytest.fixture(scope="module")
def sweep_parallel():
    spec = default_config()
    return run_riig_sweep(spec, workers=8)


def test_criterion_01_headline_riig_and_runtime(fig9):
    """Fig. 9 middle: RIIG = 1.23 +/- 0.15, computed in under a minute."""
    started = time.perf_counter()
    config = fig9["config"]
    model = fig9["model"]
    truth = np.array(config.truth)
    spec1, spec2 = config.field_spec(1), config.field_spec(2)
    obs1 = synthesize_observations(
        model, truth, 1, np.linspace(*spec1.coord_range, spec1.count),
        spec1.snr)
    obs2 = synthesize_observations(
        model, truth, 2, np.linspace(*spec2.coord_range, spec2.count),
        spec2.snr)
    grid = PriorGrid(config.prior, cdf_spaced_grid(config.prior, (100, 100)))
    post1 = evaluate_posterior(
        log_likelihood(obs_terms(model, grid.nodes, [obs1])), grid)
    postm = evaluate_posterior(
        log_likelihood(obs_terms(model, grid.nodes, [obs1, obs2])), grid)
    value = riig(information_gain(post1), information_gain(postm))
    elapsed = time.perf_counter() - started

    assert spec1.count == 16 and spec1.snr == 50.0
    assert spec2.count == 2 and spec2.snr == 1.2e4
    assert abs(value - RIIG_MIDDLE_TARGET) <= 0.15, \
        f"RIIG {value:.4f} outside {RIIG_MIDDLE_TARGET} +/- 0.15"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    assert value == fig9["riig_middle"]
    _announce(1, f"middle RIIG {value:.4f} (target {RIIG_MIDDLE_TARGET} "
                 f"+/- 0.15) in {elapsed:.2f} s")


def test_criterion_02_many_noisy_observations(fig9):
    """Fig. 9 right: RIIG = 1.22 +/- 0.15 and nearly equal to the middle."""
    value = fig9["riig_right"]
    assert abs(value - RIIG_RIGHT_TARGET) <= 0.15, \
        f"RIIG {value:.4f} outside {RIIG_RIGHT_TARGET} +/- 0.15"
    gap = abs(fig9["riig_middle"] - value)
    assert gap <= 0.1, f"middle/right gap {gap:.4f} exceeds 0.1"
    _announce(2, f"right RIIG {value:.4f} (target {RIIG_RIGHT_TARGET} "
                 f"+/- 0.15), gap {gap:.4f} <= 0.1")


def test_criterion_03_concentrated_corner(sweep_serial):
    """Fig. 10 point 3: (N2=256, SNR2=1.2e4) gives RIIG = 3.65 +/- 0.4."""
    spec, results = sweep_serial
    cell = next(r for r in results
                if r.point["n_obs2"] == spec.sweep["n_obs2"][-1]
                and r.point["snr2"] == spec.sweep["snr2"][-1])
    assert cell.ok
    assert cell.point["n_obs2"] == 256 \
        and cell.point["snr2"] == pytest.approx(1.2e4)
    assert abs(cell.riig - RIIG_POINT3_TARGET) <= 0.4, \
        f"RIIG {cell.riig:.4f} outside {RIIG_POINT3_TARGET} +/- 0.4"
    _announce(3, f"corner RIIG {cell.riig:.4f} "
                 f"(target {RIIG_POINT3_TARGET} +/- 0.4)")


def test_criterion_04_sweep_trend(sweep_serial):
    """RIIG non-decreasing in SNR2 per row and in N2 per column (slack 0.02)."""
    spec, results = sweep_serial
    n_rows, n_cols = len(spec.sweep["n_obs2"]), len(spec.sweep["snr2"])
    assert len(results) == n_rows * n_cols == 60
    assert all(r.ok for r in results)
    table = np.array([r.riig for r in results]).reshape(n_rows, n_cols)
    worst_snr_step = float(np.diff(table, axis=1).min())
    worst_n_step = float(np.diff(table, axis=0).min())
    assert worst_snr_step >= -0.02, \
        f"RIIG drops by {-worst_snr_step:.4f} along SNR2"
    assert worst_n_step >= -0.02, \
        f"RIIG drops by {-worst_n_step:.4f} along N2"
    _announce(4, f"10x6 sweep monotone (worst steps {worst_snr_step:+.4f} "
                 f"along SNR2, {worst_n_step:+.4f} along N2, slack 0.02)")


def test_criterion_05_analytic_jacobian():
    """All Jacobian entries match central differences at 100 random states."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        poisson = rng.uniform(0.05, 0.45)
        params = ElectromechParams(youngs_modulus=rng.uniform(5e3, 2e4),
                                   poisson_ratio=poisson)
        l0 = params.side_length
        d_max = l0 * (1.0 / math.sqrt(poisson) - 1.0)
        d = rng.uniform(-0.3 * l0, 0.7 * d_max)
        current = rng.uniform(0.01, 0.25)
        force = rng.uniform(0.0, 0.4)

        from mfbia.coupled import assemble_block_jacobian

        matrix = assemble_block_jacobian(coupled_system(params, force),
                                         np.array([d, current]))
        assert matrix[0, 1] == 0.0, "mechanics must not depend on current"

        h_d = 6e-6 * l0
        h_i = 6e-6 * params.rest_current
        fd = np.array([
            [(residual_mech(d + h_d, params, force)
              - residual_mech(d - h_d, params, force)) / (2 * h_d), 0.0],
            [(residual_elec(d + h_d, current, params)
              - residual_elec(d - h_d, current, params)) / (2 * h_d),
             (residual_elec(d, current + h_i, params)
              - residual_elec(d, current - h_i, params)) / (2 * h_i)],
        ])
        for (i, j) in ((0, 0), (1, 0), (1, 1)):
            rel = abs(matrix[i, j] - fd[i, j]) / abs(matrix[i, j])
            worst = max(worst, rel)
            assert rel <= 1e-6, f"block ({i},{j}) off by {rel:.2e}"
    _announce(5, f"Jacobian matches finite differences at 100 states "
                 f"(worst rel. error {worst:.2e} <= 1e-6)")


def test_criterion_06_newton_correctness(fig9):
    """Zero-force exactness, grid-path/monolithic agreement, iteration cap."""
    params = ElectromechParams(youngs_modulus=11e3, poisson_ratio=0.35)
    rest_d = displacement_batch(params.youngs_modulus, params.poisson_ratio,
                                0.0)
    assert abs(rest_d - 0.0) <= 1e-12
    assert abs(current_batch(params.poisson_ratio, rest_d) - 0.1) <= 1e-12

    forces = np.linspace(0.0, 0.4, 16)
    batch_d = displacement_batch(params.youngs_modulus, params.poisson_ratio,
                                 forces)
    batch_i = current_batch(params.poisson_ratio, batch_d)
    worst_gap, worst_iters = 0.0, 0
    for k, force in enumerate(forces):
        result = newton_solve(
            coupled_system(params, force),
            NewtonSettings(initial_state=np.array([0.0, params.rest_current]),
                           residual_tolerance=1e-15))
        gap = float(np.linalg.norm([batch_d[k], batch_i[k]] - result.state))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-10, f"solvers disagree by {gap:.2e} at F={force}"
        worst_iters = max(worst_iters, result.iterations)
        assert result.iterations <= 10
    _announce(6, f"zero-force exact; 16-point solver agreement "
                 f"<= {worst_gap:.2e} (cap 1e-10); <= {worst_iters} iterations")


def test_criterion_07_kl_quadrature_oracle(fig9):
    """Grid KL matches the closed form within 1e-3; no data means zero gain."""
    prior = TruncatedNormalPrior(mean=np.zeros(2), variance=np.ones(2),
                                 lower=np.full(2, -1e12),
                                 upper=np.full(2, 1e12))
    center = np.array([0.3, -0.2])
    variances = np.array([0.05, 0.08])
    axis = np.linspace(-6.0, 6.0, 200)
    axes = PriorGrid(prior, (axis, axis))
    grid = evaluate_posterior(
        -0.5 * np.sum((axes.nodes - center) ** 2 / variances, axis=-1), axes)
    post_cov = np.linalg.inv(np.eye(2) + np.diag(1.0 / variances))
    post_mean = post_cov @ (center / variances)
    expected = kl_gaussians(np.zeros(2), np.eye(2), post_mean, post_cov)
    error = abs(information_gain(grid) - expected)
    assert error <= 1e-3, f"KL quadrature error {error:.2e} exceeds 1e-3"

    prior_grid = fig9["prior_grid"]
    no_obs = evaluate_posterior(np.zeros(prior_grid.nodes.shape[:-1]),
                                prior_grid)
    idle_gain = information_gain(no_obs)
    assert abs(idle_gain) <= 1e-9, f"IG without data is {idle_gain:.2e}"
    _announce(7, f"200x200 KL error {error:.2e} <= 1e-3; "
                 f"IG(no data) {idle_gain:.1e} within 1e-9")


def test_criterion_08_normalization_and_gibbs(fig9, sweep_serial):
    """Densities integrate to one; information gain is never negative."""
    for grid in fig9["grids"]:
        mass = trapezoid_nd(grid.density, grid.grid)
        assert mass == pytest.approx(1.0, abs=1e-9)
    _, results = sweep_serial
    artifacts = 0
    for cell in results:
        assert cell.ok
        for gain in (cell.ig_single, cell.ig_multi):
            assert gain >= -1e-6, f"Gibbs violation: IG = {gain}"
            if -1e-6 < gain < 0.0:
                artifacts += 1
                print(f"[acceptance]   note: IG {gain:.2e} in (-1e-6, 0) "
                      f"at cell ({cell.point['n_obs2']}, "
                      f"{cell.point['snr2']:g}); "
                      f"quadrature artifact, legal")
    _announce(8, f"all densities normalized to 1 +/- 1e-9; "
                 f"IG >= -1e-6 across 60 sweep cells "
                 f"({artifacts} tiny-negative artifacts)")


def test_criterion_09_determinism(tmp_path_factory, sweep_serial,
                                  sweep_parallel):
    """Byte-identical reproduction bundles; worker count changes nothing."""
    base = tmp_path_factory.mktemp("determinism")
    first, second = base / "first", base / "second"
    assert main(["reproduce", "fig9", "--out", str(first)]) == 0
    assert main(["reproduce", "fig9", "--out", str(second)]) == 0
    files_first = sorted(p.relative_to(first) for p in first.rglob("*")
                         if p.is_file())
    files_second = sorted(p.relative_to(second) for p in second.rglob("*")
                          if p.is_file())
    assert files_first == files_second and files_first
    for rel in files_first:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), \
            f"{rel} differs between identical runs"

    _, serial = sweep_serial
    assert serial == sweep_parallel, "sweep differs between 1 and 8 workers"
    csv_serial = base / "serial.csv"
    csv_parallel = base / "parallel.csv"
    export_sweep_csv(serial, csv_serial)
    export_sweep_csv(sweep_parallel, csv_parallel)
    assert csv_serial.read_bytes() == csv_parallel.read_bytes()
    _announce(9, f"{len(files_first)} artifacts byte-identical across runs; "
                 f"sweep bitwise equal under 1 and 8 workers")


def test_fig10_anchors_match_seed_values(sweep_serial):
    """The fig10 anchors stay within 1e-9 relative of the seed code's."""
    spec, results = sweep_serial
    riig_at = {(r.point["n_obs2"], r.point["snr2"]): r.riig for r in results}
    counts, snrs = spec.sweep["n_obs2"], spec.sweep["snr2"]
    anchors = {"point1": (counts[0], snrs[-1]),
               "point2": (counts[-1], snrs[0]),
               "point3": (counts[-1], snrs[-1])}
    for name, cell in anchors.items():
        assert riig_at[cell] == pytest.approx(
            SEED_RIIG[name], rel=SEED_RIIG_RTOL, abs=0), name


@pytest.fixture(scope="module")
def fig9_bundle(tmp_path_factory):
    """``reproduce fig9``'s summary rows by case, and the size of every
    batch of grid nodes it passed to the field-1 forward model."""
    out = tmp_path_factory.mktemp("fig9")
    code, batches = _field1_grid_batches(
        lambda: main(["reproduce", "fig9", "--out", str(out)]))
    assert code == 0
    with open(out / "fig9" / "summary.csv", newline="") as handle:
        rows = {row["case"]: row for row in csv.DictReader(handle)}
    return rows, batches


def test_fig9_summary_equals_fig10_cells(fig9_bundle, sweep_serial):
    """fig9's gains are fig10's cells (2, 1.2e4) and (256, 80), bit for bit."""
    rows, _ = fig9_bundle
    _, results = sweep_serial
    cells = {(r.point["n_obs2"], r.point["snr2"]): r for r in results}
    for case, cell in (("middle", (2, 1.2e4)), ("right", (256, 80.0))):
        assert float(rows[case]["ig_single"]) == cells[cell].ig_single, case
        assert float(rows[case]["riig"]) == cells[cell].riig, case


def test_fig9_evaluates_field1_grid_once(fig9_bundle):
    """fig9's three posteriors share one pass over the 100x100 grid for
    field 1: three row blocks of nodes."""
    _, batches = fig9_bundle
    assert len(batches) == 3
    assert sum(batches) == 100 * 100


def test_fig10_evaluates_field1_grid_once(sweep_serial_batches):
    """fig10's ten tasks share one pass over the 100x100 grid for field 1:
    three row blocks of nodes."""
    spec, _, batches = sweep_serial_batches
    assert len(spec.sweep["n_obs2"]) == 10
    assert len(batches) == 3
    assert sum(batches) == 100 * 100


def test_criterion_10_snr_round_trip():
    """Recomputing the SNR from the derived variance reproduces the input."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        n = rng.integers(1, 40)
        if rng.random() < 0.5:
            outputs = rng.normal(scale=10.0 ** rng.uniform(-6, 6), size=n)
        else:
            outputs = rng.normal(scale=10.0 ** rng.uniform(-6, 6),
                                 size=(n, rng.integers(1, 4)))
        if np.all(outputs == 0):
            continue
        snr = 10.0 ** rng.uniform(-6, 9)
        back = snr_from_sigma(outputs, sigma_from_snr(outputs, snr))
        rel = abs(back - snr) / snr
        worst = max(worst, rel)
        assert rel <= 1e-12
    _announce(10, f"SNR round-trip worst rel. error {worst:.2e} <= 1e-12 "
                  f"over 200 randomized output sets")
