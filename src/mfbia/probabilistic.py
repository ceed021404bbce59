"""Priors, noise synthesis, and the multi-field Gaussian log-likelihood.

Observation noise is parameterized by a per-field signal-to-noise ratio
(SNR): the mean squared signal over the observed coordinates divided by the
per-component noise variance.  Noise deviates come from a one-dimensional
Sobol' sequence pushed through the inverse normal CDF, so synthesis is
fully deterministic: there is no random seed anywhere in the pipeline.

Every misfit reduction on a node batch runs on a :class:`ReductionPool`:
one queue of row blocks, from as many reductions as a command has
queued.  Its helper threads, and a caller waiting for the reduction it
needs, run one block loop, each in one reused workspace;
:func:`misfit_moments` is one reduction on a pool of its own.  A reduction
keeps Gaussian sufficient statistics, so data synthesized at any SNR
reuse one pass over the nodes.
"""

from __future__ import annotations

import collections
import contextvars
import csv
import json
import logging
import math
import os
import threading
from dataclasses import dataclass
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
        # a partition below the smallest normal double has too few
        # significant bits to spread a grid axis over
        sign, lo, hi = self._bounds_cdf()
        if not np.all(sign * (hi - lo) >= np.finfo(float).smallest_normal):
            raise ValueError(f"the box from {lower} to {upper} holds too "
                             f"little probability mass to resolve in double "
                             f"precision")

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


#: Node x coordinate elements that a misfit reduction evaluates per row
#: block: large enough to amortize a forward call, small enough that no
#: whole node x coordinate array is ever held.
MISFIT_BLOCK_ELEMENTS = 2 ** 16

#: Most threads a :class:`ReductionPool` reduces row blocks on, whatever
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
    ``zz = z.z``.
    """

    a: np.ndarray
    b: np.ndarray
    zz: float

    def sum_sq(self, noise_variance: float) -> np.ndarray:
        """Squared misfit per node for data at ``noise_variance``."""
        sigma = math.sqrt(noise_variance)
        return self.a - 2.0 * sigma * self.b + noise_variance * self.zz


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


class _Reduction:
    """One misfit reduction queued on a :class:`ReductionPool`: its nodes
    in rows, its row blocks, and the sums the blocks write."""

    def __init__(self, pool: ReductionPool, model, x, field_id: int, coords,
                 centre, deviates):
        x = np.asarray(x, dtype=float)
        self.pool, self.model, self.field_id = pool, model, field_id
        self.coords, self.shape = coords, x.shape[:-1]
        self.rows = x.reshape(-1, x.shape[-1])
        self.centre = np.asarray(centre, dtype=float).reshape(-1)
        self.z = None if deviates is None else \
            np.asarray(deviates, dtype=float).reshape(-1)
        self.a = np.empty(self.rows.shape[0])
        self.b = np.zeros(self.rows.shape[0])
        step = max(1, MISFIT_BLOCK_ELEMENTS // max(1, self.centre.size))
        self.blocks = [slice(start, start + step)
                       for start in range(0, self.rows.shape[0], step)]
        self.left = len(self.blocks)   # blocks not yet reduced or skipped
        self.errors = {}   # first row of a block -> what the block raised
        self.moments = None

    def reduce(self, block: slice, work: _Workspace) -> None:
        outputs = np.asarray(self.model.outputs(
            self.rows[block], self.field_id, self.coords, work=work),
            dtype=float)
        outputs = outputs.reshape(outputs.shape[0], -1)
        shape = np.broadcast_shapes(outputs.shape, self.centre.shape)
        residual = np.subtract(outputs, self.centre, out=work.floats(1, shape))
        if self.z is not None:
            self.b[block] = np.multiply(
                residual, self.z, out=work.floats(2, shape)).sum(axis=-1)
        np.square(residual, out=residual)
        self.a[block] = residual.sum(axis=-1)

    def result(self) -> MisfitMoments:
        """The moments, once every block is reduced; the calling thread
        reduces queued blocks, of any reduction, until then.  Raises what
        its first block in row order to raise raised: every block before
        that one runs, so it is the same block on any thread count."""
        if self.moments is None:
            self.pool._reduce(lambda: self.left == 0)
            if self.errors:
                raise self.errors[min(self.errors)]
            a, b = self.a, self.b
            bad = ~(np.isfinite(a) & np.isfinite(b))
            a[bad] = np.inf
            b[bad] = 0.0
            # numpy's pairwise sum, not a BLAS dot, so that zz is the same
            # on every worker whatever the alignment of z
            zz = 0.0 if self.z is None else float((self.z * self.z).sum())
            self.moments = MisfitMoments(a=a.reshape(self.shape),
                                         b=b.reshape(self.shape), zz=zz)
        return self.moments


class ReductionPool:
    """One queue of row blocks from any number of misfit reductions, and
    the threads that reduce them in the order they were queued.

    ``threads`` bounds those threads, the calling one included: by
    default one per usable CPU up to :data:`MISFIT_MAX_THREADS`, and with
    ``1`` the calling thread reduces every block.  The others are helper
    threads, started as blocks are queued, no more than the queue can keep
    busy, and joined when the pool closes (on leaving its ``with`` block).
    :meth:`submit` queues a reduction and returns at once; its
    ``result()`` has the calling thread reduce queued blocks, of any
    reduction, until none of its own is left.  Each thread keeps one
    workspace while it reduces: a helper for its life, the calling thread
    for one wait, so none is held between results.  A block that raises
    fails its own reduction only: its blocks not yet started are skipped,
    and its ``result()`` raises the exception.  One that is not an
    ``Exception`` (Ctrl-C) also ends the calling thread's wait at once,
    whichever reduction it waits for.
    """

    def __init__(self, threads: int | None = None):
        self.threads = min(usable_cpus(), MISFIT_MAX_THREADS) \
            if threads is None else threads
        self._queue = collections.deque()   # (reduction, context, block)
        self._changed = threading.Condition()
        self._helpers = []
        self._closed = False

    def __enter__(self) -> ReductionPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Join the helper threads.  Blocks still queued stay queued: a
        later ``result()`` reduces them on its calling thread."""
        with self._changed:
            self._closed = True
            self._changed.notify_all()
        for helper in self._helpers:
            helper.join()
        self._helpers.clear()

    def submit(self, model, x, field_id: int, coords, centre,
               deviates=None) -> _Reduction:
        """Queue the misfit reduction that :func:`misfit_moments` computes
        from the same arguments, each block to run in a copy of the
        caller's context (so its ``np.errstate`` holds)."""
        reduction = _Reduction(self, model, x, field_id, coords, centre,
                               deviates)
        with self._changed:
            self._queue.extend((reduction, contextvars.copy_context(), block)
                               for block in reduction.blocks)
            while len(self._helpers) < min(self.threads - 1,
                                           len(self._queue) - 1):
                helper = threading.Thread(target=self._reduce,
                                          args=(lambda: self._closed,),
                                          daemon=True, name="mfbia-reduce")
                helper.start()
                self._helpers.append(helper)
            self._changed.notify_all()
        return reduction

    def _reduce(self, done) -> None:
        """Reduce queued blocks in one workspace until ``done()`` holds.
        What a block raises is kept on its reduction."""
        work = _Workspace()
        while True:
            with self._changed:
                self._changed.wait_for(lambda: self._queue or done())
                if done():
                    return
                reduction, context, block = self._queue.popleft()
            try:
                if not reduction.errors:
                    context.run(reduction.reduce, block, work)
            except BaseException as exc:
                reduction.errors[block.start] = exc
                if not isinstance(exc, Exception):
                    raise
            finally:
                with self._changed:
                    reduction.left -= 1
                    self._changed.notify_all()


def misfit_moments(model, x, field_id: int, coords, centre,
                   deviates=None) -> MisfitMoments:
    """Misfit moments of ``model`` about ``centre`` on the nodes ``x``.

    ``x`` has shape (..., n_params); ``centre`` and ``deviates`` have the
    shape of one node's outputs at ``coords``.  Without ``deviates``,
    ``b`` and ``zz`` are zero and ``a`` is the squared misfit to
    ``centre``.  The nodes are evaluated in row blocks of about
    :data:`MISFIT_BLOCK_ELEMENTS` outputs, on a :class:`ReductionPool` of
    the default threads that lives for the call.  The model's ``outputs``
    gets the reducing thread's workspace as ``work``; the reduction uses
    its float slots 1 and 2 once ``outputs`` has returned (a model leaves
    its result, if there, in slot 0), so no block allocates a node x
    coordinate array.  Each node's sums are taken along its own row, so
    they depend neither on the block size nor on the thread that computed
    them.  A node with a non-finite output or sum gets ``a = inf`` and
    ``b = 0``; an exception the model raises in any block is raised.
    """
    with ReductionPool() as pool:
        return pool.submit(model, x, field_id, coords, centre,
                           deviates).result()


def log_likelihood(terms) -> np.ndarray | float:
    """Gaussian log-likelihood of all fields, up to an additive constant.

    sum_j -1/(2*sigma_j^2) * sum_i ||M_j(x, c_ij) - y_ij||^2

    Each of ``terms`` is one field's ``(moments, noise_variance)``: its
    :class:`MisfitMoments` on the nodes and sigma_j^2.  A 0-d sum, as for
    no terms, comes back as a float.  A node whose model outputs are not
    finite is -inf (see :func:`misfit_moments`); the count of such nodes
    is logged at DEBUG level.
    """
    total = 0.0
    for moments, noise_variance in terms:
        total = total - 0.5 / noise_variance * moments.sum_sq(noise_variance)
    if logger.isEnabledFor(logging.DEBUG):
        n_failed = int(np.count_nonzero(~np.isfinite(total)))
        if n_failed:
            logger.debug("log-likelihood is -inf at %d of %d points",
                         n_failed, np.size(total))
    return float(total) if np.ndim(total) == 0 else total


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as CSV, each line
    ended by ``\\n``.  A float is written as ``repr`` writes it, and None
    as an empty cell."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON with sorted keys, indented by
    2 and ended by ``\\n``; an inf or NaN in it raises ValueError before
    the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as handle:
        handle.write(text + "\n")


def observations_to_csv(obs: FieldObservations, path) -> None:
    """Write one observation set; one row per scalar observation component.
    No SNR is written as an empty cell."""
    values = obs.values if obs.values.ndim == 2 else obs.values[:, None]
    noise_variance = float(obs.noise_variance)
    snr = None if obs.snr is None else float(obs.snr)
    write_csv(path, OBSERVATION_CSV_HEADER, (
        [obs.field_id, coordinate, component, noise_variance, snr]
        for coordinate, row in zip(obs.coordinates.tolist(), values.tolist())
        for component in row))


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
            kind = "an integer" if cast is int else "a number"
            raise ObservationFileError(
                f"{path}: line {line}, column {name!r}: expected {kind}, "
                f"got {row[index]!r}") from None
    return values


def _shared(path, rows, name: str, cast=float):
    """The one value that every row holds in column ``name``, converted
    by ``cast``; NaN matches NaN."""
    index = OBSERVATION_CSV_HEADER.index(name)
    values = _column(path, rows, name, cast)
    for (line, row), value in zip(rows, values):
        if value != values[0] and (value == value or values[0] == values[0]):
            raise ObservationFileError(
                f"{path}: line {line}, column {name!r}: got {row[index]!r}, "
                f"but line {rows[0][0]} has {rows[0][1][index]!r}")
    return values[0]


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
    field_id = _shared(path, rows, "field_id", int)
    sigma2 = _shared(path, rows, "sigma2")
    if not 0 < sigma2 < math.inf:
        raise ObservationFileError(
            f"{path}: column 'sigma2' must be finite and > 0, got {sigma2!r}")
    snr = _shared(path, rows, "snr",
                  lambda text: None if text == "" else float(text))
    coordinates = np.array(_column(path, rows, "coordinate"))
    values = np.array(_column(path, rows, "value"))
    try:
        return FieldObservations(field_id=field_id,
                                 coordinates=coordinates, values=values,
                                 noise_variance=sigma2, snr=snr)
    except ValueError as exc:
        raise ObservationFileError(f"{path}: {exc}") from None
