"""Priors, noise synthesis, and the multi-field Gaussian log-likelihood.

Observation noise is parameterized by a per-field signal-to-noise ratio
(SNR): the mean squared signal over the observed coordinates divided by the
per-component noise variance.  Noise deviates come from a one-dimensional
Sobol' sequence pushed through the inverse normal CDF, so synthesis is
fully deterministic: there is no random seed anywhere in the pipeline.

Every misfit reduction on a node batch goes through :func:`misfit_moments`,
which evaluates the nodes in row blocks, on a few threads that each
reuse one workspace for the call, and keeps Gaussian sufficient
statistics, so data synthesized at any SNR reuse one pass over the
nodes.
"""

from __future__ import annotations

import contextvars
import csv
import logging
import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

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
        if not np.all(np.isfinite(mean)):
            raise ValueError(f"means must be finite, got {mean}")
        if not np.all((variance > 0) & (variance < np.inf)):
            raise ValueError(f"variances must be finite and > 0, "
                             f"got {variance}")
        if not np.all(lower < upper):
            raise ValueError(f"need lower < upper, got {lower} vs {upper}")
        for name, arr in (("mean", mean), ("variance", variance),
                          ("lower", lower), ("upper", upper)):
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, TruncatedNormalPrior):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("mean", "variance", "lower", "upper"))

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def sd(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def _bounds_cdf(self):
        """Sign, and standard-normal CDF at sign*a and sign*b, per dimension.

        ``a`` and ``b`` are the standardized bounds.  A box wholly above its
        mean (a > 0) is mirrored (sign -1), so that both CDF values come
        from the lower tail: there they keep their relative precision,
        where Phi(a) would round towards 1 and their difference to 0.
        """
        sd = self.sd
        a, b = (self.lower - self.mean) / sd, (self.upper - self.mean) / sd
        sign = np.where(a > 0, -1.0, 1.0)
        return sign, _ndtr(sign * a), _ndtr(sign * b)

    def _log_partition(self) -> np.ndarray:
        sign, lo, hi = self._bounds_cdf()
        return np.log(sign * (hi - lo))

    def log_density(self, x) -> np.ndarray:
        """Log of the normalized density; -inf outside the box.

        ``x`` has shape (..., dim); the result drops the last axis.  The
        marginals are summed left to right, one dimension at a time.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"x has last dimension {x.shape[-1]}, "
                             f"expected {self.dim}")
        log_sd, log_partition = np.log(self.sd), self._log_partition()
        total = 0.0
        for k, xk in enumerate(np.moveaxis(x, -1, 0)):
            z = (xk - self.mean[k]) / self.sd[k]
            value = (-0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
                     - log_sd[k] - log_partition[k])
            inside = (xk >= self.lower[k]) & (xk <= self.upper[k])
            total = total + np.where(inside, value, -np.inf)
        return total

    def marginal_ppf(self, dim: int, q) -> np.ndarray:
        """Quantile function of one marginal."""
        q = np.asarray(q, dtype=float)
        if np.any((q <= 0) | (q >= 1)):
            raise ValueError("quantiles must lie strictly inside (0, 1)")
        sign, lo, hi = self._bounds_cdf()
        lo, hi = lo[dim], hi[dim]
        return self.mean[dim] + sign[dim] * self.sd[dim] \
            * _ndtri(lo + q * (hi - lo))


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
        if not 0 < self.noise_variance < math.inf:
            raise ValueError(f"noise_variance must be finite and > 0, "
                             f"got {self.noise_variance}")
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
    return _ndtri(_sobol_1d(n))


def _ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise: 0.5*erfc(-x/sqrt(2))."""
    x = np.asarray(x, dtype=float)
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0))
                     for v in x.ravel().tolist()]).reshape(x.shape)


_inv_cdf = NormalDist().inv_cdf


def _ndtri(p) -> np.ndarray:
    """Standard normal quantile, elementwise (Wichura's AS241).

    0 maps to -inf and 1 to +inf; NaN, or anything outside [0, 1], to NaN.
    """
    p = np.asarray(p, dtype=float)

    def quantile(v: float) -> float:
        if 0.0 < v < 1.0:
            return _inv_cdf(v)
        return -math.inf if v == 0.0 else math.inf if v == 1.0 else math.nan

    return np.array([quantile(v) for v in p.ravel().tolist()],
                    dtype=float).reshape(p.shape)


#: (shift, mask) pairs that swap adjacent bit groups of doubling width;
#: applied in turn they reverse the bits of a 64-bit word.
_BIT_SWAPS = tuple((np.uint64(width), np.uint64(mask)) for width, mask in (
    (1, 0x5555555555555555), (2, 0x3333333333333333),
    (4, 0x0F0F0F0F0F0F0F0F), (8, 0x00FF00FF00FF00FF),
    (16, 0x0000FFFF0000FFFF), (32, 0x00000000FFFFFFFF)))


def _sobol_1d(n: int) -> np.ndarray:
    """Points 1..n of the unscrambled 1-D Sobol' sequence.

    In one dimension Sobol' is the base-2 van der Corput sequence in Gray
    code order (Antonov & Saleev 1979): point i is the bit reversal of
    i ^ (i >> 1), read as a binary fraction.
    """
    bits = np.arange(1, n + 1, dtype=np.uint64)
    bits ^= bits >> np.uint64(1)
    for width, mask in _BIT_SWAPS:
        bits = ((bits >> width) & mask) | ((bits & mask) << width)
    return bits / 2.0 ** 64


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


#: Node x coordinate elements that :func:`misfit_moments` evaluates per row
#: block: large enough to amortize a forward call, small enough that no
#: whole node x coordinate array is ever held.
MISFIT_BLOCK_ELEMENTS = 2 ** 16

#: Most threads :func:`misfit_moments` reduces its row blocks on, whatever
#: the machine: the blocks in flight then hold at most 2^18 outputs
#: (2 MB) per workspace slot.
MISFIT_MAX_THREADS = 4


def usable_cpus() -> int:
    """CPUs this process may run on; every CPU of the machine where the
    platform cannot restrict them (no ``os.sched_getaffinity``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class MisfitMoments:
    """Gaussian sufficient statistics of one field's misfit on a node batch.

    For data ``y = centre + sigma*z``, the squared misfit of node n is
    ``sum_i ||M_i(x_n) - y_i||^2 = a[n] - 2*sigma*b[n] + sigma^2*zz`` with
    ``a = sum ||M - centre||^2``, ``b = sum (M - centre).z`` and
    ``zz = z.z``.  ``noise_variance`` is sigma^2; :func:`log_likelihood`
    needs it, and :meth:`with_noise` sets it.
    """

    a: np.ndarray
    b: np.ndarray
    zz: float
    noise_variance: float | None = None

    def with_noise(self, noise_variance: float) -> MisfitMoments:
        return replace(self, noise_variance=noise_variance)

    def sum_sq(self) -> np.ndarray:
        """Squared misfit per node at ``noise_variance``."""
        if self.noise_variance is None:
            raise ValueError("moments carry no noise variance; "
                             "set one with with_noise")
        sigma = math.sqrt(self.noise_variance)
        return self.a - 2.0 * sigma * self.b + self.noise_variance * self.zz


class _Workspace:
    """Scratch arrays that one reduction thread reuses from block to block.

    ``floats(slot, shape)`` and ``bools(slot, shape)`` return the slot's
    buffer as an array of ``shape``.  A slot is allocated when it is first
    requested, and again only if a request outgrows it; a smaller request,
    such as the short last block's, gets a leading view of it.
    """

    def __init__(self):
        self._buffers = {}

    def floats(self, slot: int, shape) -> np.ndarray:
        return self._buffer(float, slot, shape)

    def bools(self, slot: int, shape) -> np.ndarray:
        return self._buffer(bool, slot, shape)

    def _buffer(self, dtype, slot: int, shape) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get((dtype, slot))
        if buffer is None or buffer.size < size:
            buffer = self._buffers[dtype, slot] = np.empty(size, dtype=dtype)
        return buffer[:size].reshape(shape)


def misfit_moments(model, x, field_id: int, coords, centre,
                   deviates=None, threads=None) -> MisfitMoments:
    """Misfit moments of ``model`` about ``centre`` on the nodes ``x``.

    ``x`` has shape (..., n_params); ``centre`` and ``deviates`` have the
    shape of one node's outputs at ``coords``.  Without ``deviates``,
    ``b`` and ``zz`` are zero and ``a`` is the squared misfit to
    ``centre``.  The nodes are evaluated in row blocks of about
    :data:`MISFIT_BLOCK_ELEMENTS` outputs, on at most ``threads``
    threads (by default one per usable CPU up to
    :data:`MISFIT_MAX_THREADS`; ``1`` runs every block on the calling
    thread), each block in a copy of the caller's context (so its
    ``np.errstate`` holds).  Each thread keeps one workspace for the
    call, which the model's ``outputs`` gets as ``work`` and whose float
    slots 1 and 2 the reduction uses once ``outputs`` has returned (a
    model leaves its result, if there, in slot 0), so no block allocates
    a node x coordinate array.  Each node's sums are taken along its own
    row, so they depend neither on the block size nor on the thread that
    computed them.  A node with a non-finite output or sum gets
    ``a = inf`` and ``b = 0``; a model that raises in any block gives
    that at every node.
    """
    x = np.asarray(x, dtype=float)
    rows = x.reshape(-1, x.shape[-1])
    centre = np.asarray(centre, dtype=float).reshape(-1)
    z = None if deviates is None else \
        np.asarray(deviates, dtype=float).reshape(-1)
    a = np.empty(rows.shape[0])
    b = np.zeros(rows.shape[0])
    step = max(1, MISFIT_BLOCK_ELEMENTS // max(1, centre.size))
    blocks = [slice(start, start + step)
              for start in range(0, rows.shape[0], step)]

    def reduce(block: slice, work: _Workspace) -> None:
        outputs = np.asarray(
            model.outputs(rows[block], field_id, coords, work=work),
            dtype=float)
        outputs = outputs.reshape(outputs.shape[0], -1)
        shape = np.broadcast_shapes(outputs.shape, centre.shape)
        residual = np.subtract(outputs, centre, out=work.floats(1, shape))
        if z is not None:
            b[block] = np.multiply(residual, z,
                                   out=work.floats(2, shape)).sum(axis=-1)
        np.square(residual, out=residual)
        a[block] = residual.sum(axis=-1)

    pending = queue.SimpleQueue()
    for block in blocks:
        pending.put((contextvars.copy_context(), block))
    failed = threading.Event()

    def drain() -> None:
        """Reduce pending blocks in one workspace until none is left; a
        block that raises cancels the blocks not yet started."""
        work = _Workspace()
        while not failed.is_set():
            try:
                context, block = pending.get_nowait()
            except queue.Empty:
                return
            try:
                context.run(reduce, block, work)
            except BaseException:
                failed.set()
                raise

    if threads is None:
        threads = min(usable_cpus(), MISFIT_MAX_THREADS)
    threads = min(threads, len(blocks))
    try:
        if threads <= 1:
            drain()
        else:
            # the pool lives only for this call, so no thread outlives it
            # into a forked sweep worker
            with ThreadPoolExecutor(threads) as pool:
                for done in [pool.submit(drain) for _ in range(threads)]:
                    done.result()
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        logger.warning("model evaluation failed for field %d: %s",
                       field_id, exc)
        a[:] = np.inf
    bad = ~(np.isfinite(a) & np.isfinite(b))
    a[bad] = np.inf
    b[bad] = 0.0
    # numpy's pairwise sum, not a BLAS dot, so that zz is the same on every
    # worker whatever the alignment of z
    zz = 0.0 if z is None else float((z * z).sum())
    return MisfitMoments(a=a.reshape(x.shape[:-1]), b=b.reshape(x.shape[:-1]),
                         zz=zz)


def log_likelihood(model, x, observations) -> np.ndarray | float:
    """Gaussian log-likelihood of all fields, up to an additive constant.

    sum_j -1/(2*sigma_j^2) * sum_i ||M_j(x, c_ij) - y_ij||^2

    Each entry of ``observations`` is a :class:`FieldObservations`, reduced
    by :func:`misfit_moments` about its values, or :class:`MisfitMoments`
    already computed on ``x`` and carrying their noise variance.  ``x`` may
    carry leading batch axes.  Failed model evaluations make the affected
    entries -inf instead of raising, so a pathological grid node cannot
    abort a scan; the count of such nodes is logged at DEBUG level.
    """
    x = np.asarray(x, dtype=float)
    scalar_input = x.ndim == 1
    batch_shape = x.shape[:-1]
    total = np.zeros(batch_shape)
    for obs in observations:
        if isinstance(obs, FieldObservations):
            if len(obs) == 0:
                continue
            obs = misfit_moments(model, x, obs.field_id, obs.coordinates,
                                 obs.values).with_noise(obs.noise_variance)
        sum_sq = obs.sum_sq()
        total = total - 0.5 / obs.noise_variance * sum_sq
    if logger.isEnabledFor(logging.DEBUG):
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


class ObservationFileError(ValueError):
    """An observation CSV is malformed; the message names the file, and the
    line and column where a cell is at fault."""


def _column(path, rows, name: str, cast=float) -> list:
    """The cells of column ``name``, each converted by ``cast``."""
    index = OBSERVATION_CSV_HEADER.index(name)
    values = []
    for line, row in rows:
        try:
            values.append(cast(row[index]))
        except ValueError:
            raise ObservationFileError(
                f"{path}: line {line}, column {name!r}: expected a number, "
                f"got {row[index]!r}") from None
    return values


def observations_from_csv(path) -> FieldObservations | None:
    """Read an observation set; None for a header-only file.

    Vector observations round-trip as flattened scalar rows, which leaves
    every likelihood identical because the Gaussian sum is componentwise.
    Malformed content raises :class:`ObservationFileError`.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or tuple(header) != OBSERVATION_CSV_HEADER:
                raise ObservationFileError(
                    f"{path}: expected header "
                    f"{','.join(OBSERVATION_CSV_HEADER)}, got {header}")
            rows = [(reader.line_num, row) for row in reader if row]
        except UnicodeDecodeError as exc:
            raise ObservationFileError(f"{path}: {exc}") from None
    if not rows:
        return None
    for line, row in rows:
        if len(row) != len(OBSERVATION_CSV_HEADER):
            raise ObservationFileError(
                f"{path}: line {line}: expected "
                f"{len(OBSERVATION_CSV_HEADER)} columns, got {len(row)}")
    field_ids = set(_column(path, rows, "field_id", int))
    sigmas = {row[3] for _, row in rows}
    snrs = {row[4] for _, row in rows}
    if len(field_ids) != 1 or len(sigmas) != 1 or len(snrs) != 1:
        raise ObservationFileError(
            f"{path}: mixed field_id/sigma2/snr in one file")
    (sigma2,) = _column(path, rows[:1], "sigma2")
    if not 0 < sigma2 < math.inf:
        raise ObservationFileError(
            f"{path}: column 'sigma2' must be finite and > 0, got {sigma2!r}")
    snr_text = snrs.pop()
    coordinates = np.array(_column(path, rows, "coordinate"))
    values = np.array(_column(path, rows, "value"))
    snr = None if snr_text == "" else _column(path, rows[:1], "snr")[0]
    try:
        return FieldObservations(field_id=field_ids.pop(),
                                 coordinates=coordinates, values=values,
                                 noise_variance=sigma2, snr=snr)
    except ValueError as exc:
        raise ObservationFileError(f"{path}: {exc}") from None
