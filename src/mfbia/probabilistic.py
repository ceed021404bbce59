"""Priors, noise synthesis, and the multi-field Gaussian log-likelihood.

Observation noise is parameterized by a per-field signal-to-noise ratio
(SNR): the mean squared signal over the observed coordinates divided by the
per-component noise variance.  Noise deviates come from a one-dimensional
Sobol' sequence pushed through the inverse normal CDF, so synthesis is
fully deterministic: there is no random seed anywhere in the pipeline.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

logger = logging.getLogger(__name__)

OBSERVATION_CSV_HEADER = ("field_id", "coordinate", "value", "sigma2", "snr")


class DegenerateSignalError(ValueError):
    """All-zero truth signal: no finite SNR can define a noise variance."""


class ModelEvaluationError(RuntimeError):
    """Forward model failed at an observed coordinate."""

    def __init__(self, message: str, coordinate_index: int | None = None):
        super().__init__(message)
        self.coordinate_index = coordinate_index


@dataclass(frozen=True)
class TruncatedNormalPrior:
    """Independent truncated-normal prior, one marginal per parameter.

    The covariance is diagonal, so the density factorizes across
    components; it is zero outside the box [lower, upper] and integrates
    to one over it.
    """

    mean: np.ndarray
    variance: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        variance = np.atleast_1d(np.asarray(self.variance, dtype=float))
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if not (mean.shape == variance.shape == lower.shape == upper.shape):
            raise ValueError("mean, variance, lower, upper must share one shape")
        if not np.all(variance > 0):
            raise ValueError(f"variances must be > 0, got {variance}")
        if not np.all(lower < upper):
            raise ValueError(f"need lower < upper, got {lower} vs {upper}")
        for name, arr in (("mean", mean), ("variance", variance),
                          ("lower", lower), ("upper", upper)):
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def sd(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def _bounds_z(self):
        sd = self.sd
        return (self.lower - self.mean) / sd, (self.upper - self.mean) / sd

    def _log_partition(self) -> np.ndarray:
        a, b = self._bounds_z()
        return np.log(ndtr(b) - ndtr(a))

    def log_density(self, x) -> np.ndarray:
        """Log of the normalized density; -inf outside the box.

        ``x`` has shape (..., dim); the result drops the last axis.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"x has last dimension {x.shape[-1]}, "
                             f"expected {self.dim}")
        z = (x - self.mean) / self.sd
        per_dim = (-0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
                   - np.log(self.sd) - self._log_partition())
        inside = (x >= self.lower) & (x <= self.upper)
        per_dim = np.where(inside, per_dim, -np.inf)
        return per_dim.sum(axis=-1)

    def marginal_ppf(self, dim: int, q) -> np.ndarray:
        """Quantile function of one marginal."""
        q = np.asarray(q, dtype=float)
        if np.any((q <= 0) | (q >= 1)):
            raise ValueError("quantiles must lie strictly inside (0, 1)")
        a, b = self._bounds_z()
        lo, hi = ndtr(a[dim]), ndtr(b[dim])
        return self.mean[dim] + self.sd[dim] * ndtri(lo + q * (hi - lo))

    def marginal_cdf(self, dim: int, x) -> np.ndarray:
        a, b = self._bounds_z()
        lo, hi = ndtr(a[dim]), ndtr(b[dim])
        z = (np.asarray(x, dtype=float) - self.mean[dim]) / self.sd[dim]
        return np.clip((ndtr(z) - lo) / (hi - lo), 0.0, 1.0)


@dataclass(frozen=True)
class FieldObservations:
    """Observed outputs of one physical field at scalar coordinates.

    ``values`` is (N,) for scalar outputs or (N, k) for k-vector outputs;
    ``noise_variance`` is the per-component Gaussian variance shared by all
    observations of the field.  ``snr`` records the signal-to-noise ratio
    the set was synthesized at, if known.
    """

    field_id: int
    coordinates: np.ndarray
    values: np.ndarray
    noise_variance: float
    snr: float | None = None

    def __post_init__(self):
        coords = np.atleast_1d(np.asarray(self.coordinates, dtype=float))
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 0:
            values = values.reshape(1)
        if self.field_id < 1:
            raise ValueError(f"field_id must be >= 1, got {self.field_id}")
        if values.shape[0] != coords.shape[0]:
            raise ValueError(
                f"{values.shape[0]} values for {coords.shape[0]} coordinates")
        if not self.noise_variance > 0:
            raise ValueError(
                f"noise_variance must be > 0, got {self.noise_variance}")
        if coords.size and not np.all(np.isfinite(values)):
            raise ValueError("observed values must be finite")
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.coordinates.shape[0]


def sigma_from_snr(truth_outputs, snr: float) -> float:
    """Noise variance implied by an SNR over the truth outputs.

    sigma^2 = mean_i ||M_i||^2 / (dim * snr), where dim is the number of
    components per observation.
    """
    if not snr > 0:
        raise ValueError(f"snr must be > 0, got {snr}")
    if np.size(truth_outputs) == 0:
        raise ValueError("truth_outputs must be non-empty")
    mean_power, dim = _mean_power(truth_outputs)
    if mean_power == 0.0:
        raise DegenerateSignalError(
            "all truth outputs are zero; the SNR does not define a noise "
            "variance and the likelihood would be improper")
    return mean_power / (dim * snr)


def snr_from_sigma(truth_outputs, noise_variance: float) -> float:
    """Inverse of :func:`sigma_from_snr`, for round-trip checks."""
    mean_power, dim = _mean_power(truth_outputs)
    return mean_power / (dim * noise_variance)


def _mean_power(truth_outputs) -> tuple[float, int]:
    """Mean squared norm per observation, and components per observation."""
    truth = np.asarray(truth_outputs, dtype=float)
    if truth.ndim == 1:
        return float(np.mean(truth * truth)), 1
    return float(np.mean(np.sum(truth * truth, axis=-1))), truth.shape[-1]


def sobol_standard_normal(n: int) -> np.ndarray:
    """First ``n`` standard-normal deviates from a 1-D Sobol' sequence.

    The leading point of the sequence (0, whose normal quantile is -inf) is
    skipped, so the first deviate is ndtri(0.5) = 0.  Deterministic:
    repeated calls return identical arrays.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return np.zeros(0)
    # draw a power-of-two block so the generator never has to balance a
    # partial block, then drop the leading zero
    bits = max(1, math.ceil(math.log2(n + 1)))
    uniforms = qmc.Sobol(d=1, scramble=False).random_base2(bits).ravel()
    return ndtri(uniforms[1:n + 1])


def synthesize_observations(model, x_true, field_id: int, coordinates,
                            snr: float) -> FieldObservations:
    """Noisy observations of one field at the ground-truth parameters.

    values = truth + sigma * z with z from :func:`sobol_standard_normal`
    and sigma^2 from :func:`sigma_from_snr`; bitwise reproducible.
    """
    coords = np.atleast_1d(np.asarray(coordinates, dtype=float))
    if coords.size == 0:
        raise ValueError("coordinates must be non-empty; "
                         "empty observation sets need no synthesis")
    truth = np.asarray(model.outputs(np.asarray(x_true, dtype=float),
                                     field_id, coords), dtype=float)
    bad = ~np.isfinite(truth)
    if bad.any():
        index = int(np.argwhere(bad)[0][0])
        raise ModelEvaluationError(
            f"model failed at coordinate index {index} "
            f"(coordinate {coords[index]}) for field {field_id}",
            coordinate_index=index)
    variance = sigma_from_snr(truth, snr)
    deviates = sobol_standard_normal(truth.size).reshape(truth.shape)
    values = truth + math.sqrt(variance) * deviates
    return FieldObservations(field_id=field_id, coordinates=coords,
                             values=values, noise_variance=variance, snr=snr)


def log_likelihood(model, x, observations) -> np.ndarray | float:
    """Gaussian log-likelihood of all fields, up to an additive constant.

    sum_j -1/(2*sigma_j^2) * sum_i ||M_j(x, c_ij) - y_ij||^2

    ``x`` may carry leading batch axes.  Failed model evaluations make the
    affected entries -inf instead of raising, so a pathological grid node
    cannot abort a scan; the count of such nodes is logged.
    """
    x = np.asarray(x, dtype=float)
    scalar_input = x.ndim == 1
    batch_shape = x.shape[:-1]
    total = np.zeros(batch_shape)
    for obs in observations:
        if len(obs) == 0:
            continue
        try:
            outputs = np.asarray(
                model.outputs(x, obs.field_id, obs.coordinates), dtype=float)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            logger.warning("model evaluation failed for field %d: %s",
                           obs.field_id, exc)
            total = np.full(batch_shape, -np.inf)
            continue
        residual_sq = np.where(np.isfinite(outputs),
                               (outputs - obs.values) ** 2, np.inf)
        axes = tuple(range(len(batch_shape), residual_sq.ndim))
        sum_sq = residual_sq.sum(axis=axes)
        total = total - 0.5 / obs.noise_variance * sum_sq
    n_failed = int(np.count_nonzero(~np.isfinite(np.atleast_1d(total))))
    if n_failed:
        logger.debug("log-likelihood is -inf at %d of %d points",
                     n_failed, max(1, int(np.prod(batch_shape))))
    return float(total) if scalar_input else total


def _format(value) -> str:
    return repr(float(value))


def observations_to_csv(obs: FieldObservations, path) -> None:
    """Write one observation set; one row per scalar observation component."""
    values = obs.values if obs.values.ndim == 2 else obs.values[:, None]
    snr_text = "" if obs.snr is None else _format(obs.snr)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(OBSERVATION_CSV_HEADER)
        for i in range(len(obs)):
            for component in values[i]:
                writer.writerow([obs.field_id, _format(obs.coordinates[i]),
                                 _format(component), _format(obs.noise_variance),
                                 snr_text])


def write_empty_observations_csv(path) -> None:
    """Header-only file for a field configured with zero observations."""
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(OBSERVATION_CSV_HEADER)


def observations_from_csv(path) -> FieldObservations | None:
    """Read an observation set; None for a header-only file.

    Vector observations round-trip as flattened scalar rows, which leaves
    every likelihood identical because the Gaussian sum is componentwise.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != OBSERVATION_CSV_HEADER:
            raise ValueError(f"{path}: expected header "
                             f"{','.join(OBSERVATION_CSV_HEADER)}, got {header}")
        rows = [row for row in reader if row]
    if not rows:
        return None
    field_ids = {int(row[0]) for row in rows}
    sigmas = {row[3] for row in rows}
    snrs = {row[4] for row in rows}
    if len(field_ids) != 1 or len(sigmas) != 1 or len(snrs) != 1:
        raise ValueError(f"{path}: mixed field_id/sigma2/snr in one file")
    snr_text = snrs.pop()
    return FieldObservations(
        field_id=field_ids.pop(),
        coordinates=np.array([float(row[1]) for row in rows]),
        values=np.array([float(row[2]) for row in rows]),
        noise_variance=float(sigmas.pop()),
        snr=None if snr_text == "" else float(snr_text))
