"""Grid-based posterior evaluation and information-theoretic post-processing.

Every node of a tensor grid carries a fixed prior mass: its trapezoidal
weight on the (generally non-uniform) axes times the prior density
renormalized over the grid, so the masses sum to 1.  A posterior is the
posterior-to-prior density ratio ``p = r / Z`` at each node, with ``r``
the likelihood scaled by its largest value (one ``exp`` per node) and
``Z`` the mass-weighted sum of ``r``.  Information gain, the
Kullback-Leibler divergence of the posterior from the prior, is the
mass-weighted sum of ``p log p``, with ``log p`` taken from the
log-likelihood, not from a log per node.  Every sum is a numpy pairwise
reduction, whose bits depend neither on the process nor on memory
alignment.  A posterior identical to the prior gives minus the log of
the masses' sum as its gain: zero up to rounding (0 or about 1e-16,
within the 1e-9 that acceptance criterion 07 allows), however much prior
mass the grid covers.

Everything that depends only on the prior and the axes is built once per
grid, in a :class:`PriorGrid`: the nodes, the prior's log-density on them,
its grid-renormalized form and the prior mass per node.  A sweep passes
one such grid to every posterior and gain it evaluates.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .probabilistic import TruncatedNormalPrior

logger = logging.getLogger(__name__)

#: Fraction of posterior mass in the outermost grid shell above which the
#: grid is considered too small for the posterior it carries.
BOUNDARY_MASS_THRESHOLD = 0.05

#: Floor of the shifted log-likelihood.  A node at or below it, a dead or
#: -inf node included, gets a posterior-to-prior ratio of exactly 0 (e^-600
#: of the largest ratio is some 250 orders of magnitude below rounding in
#: any sum) and keeps a finite log ratio, so 0 * log ratio stays 0.  It
#: also keeps every ``exp`` input above -708, below which numpy's ``exp``
#: leaves its vector path and runs 16x slower.
_LOG_RATIO_FLOOR = -600.0


class InferenceError(RuntimeError):
    """Posterior evaluation failed (zero/non-finite evidence or bad inputs)."""


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalized posterior density on a tensor-product grid.

    ``density`` is the grid-renormalized prior density times ``ratio``,
    the posterior-to-prior density ratio, so its trapezoidal mass on the
    stored axes is the prior-mass-weighted sum of ``ratio``: one up to
    rounding (about 1e-16; acceptance criterion 08 allows 1e-9).
    ``log_ratio`` is the log of ``ratio`` where that is positive and a
    finite value far below where it is 0.  ``log_normalization`` is the
    log of the evidence estimate, finite however many orders of magnitude
    the likelihood spans.  ``grid`` (also ``axes``) holds the axes, their
    names and the prior's terms on them.
    """

    grid: PriorGrid
    log_unnormalized: np.ndarray
    density: np.ndarray
    log_normalization: float
    boundary_mass: float
    ratio: np.ndarray
    log_ratio: np.ndarray

    @property
    def axes(self) -> PriorGrid:
        return self.grid


def trapezoid_nd(values: np.ndarray, axes) -> float:
    """Iterated 1-D trapezoidal rule over non-uniform tensor-product axes;
    the arithmetic of ``np.trapezoid``, bit for bit."""
    result = np.asarray(values, dtype=float)
    for axis in reversed(axes):
        d = np.diff(np.asarray(axis))
        result = np.add.reduce(d * (result[..., 1:] + result[..., :-1]) / 2.0,
                               axis=-1)
    return float(result)


def _node_weights(axes) -> np.ndarray:
    """Trapezoidal weight of every node of a tensor grid: the outer product
    of each axis's per-node weights."""
    halves = [np.diff(axis) / 2.0 for axis in axes]
    return functools.reduce(np.multiply.outer, [
        np.pad(half, (0, 1)) + np.pad(half, (1, 0)) for half in halves])


def _validate_axes(axes) -> tuple[np.ndarray, ...]:
    out = []
    for k, axis in enumerate(axes):
        arr = np.asarray(axis, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"axis {k} must be 1-D with >= 2 points")
        if not np.all(np.diff(arr) > 0):
            raise ValueError(f"axis {k} must be strictly increasing")
        out.append(arr)
    return tuple(out)


class PriorGrid(tuple):
    """The axes of a tensor grid with the terms of one prior on them.

    It iterates as its validated axes, so it can stand wherever axes are
    accepted; :func:`evaluate_posterior` and :func:`information_gain`
    accept it with its own prior only, or an equal one, and take its prior
    terms as they are.  It holds the
    node array, the prior's log-density ``log_prior`` on the nodes, the
    ``dead`` nodes where that is -inf (``dead_index`` holds their flat
    indices), the prior density
    ``prior_on_grid`` renormalized to unit trapezoidal mass on the grid
    (``log_prior_mass`` is the log of the mass it was divided by), and
    the prior mass per node: ``weights``, the trapezoidal node weights
    times ``prior_on_grid``, which sum to 1, and ``interior_weights``, the
    same on the interior sub-grid and zero on the outer shell (``None``
    when an axis has no interior).  Its arrays are read-only.
    """

    def __new__(cls, prior: TruncatedNormalPrior, axes, axis_names=None):
        self = super().__new__(cls, _validate_axes(axes))
        if axis_names is None:
            axis_names = tuple(f"x{k + 1}" for k in range(len(self)))
        self.axis_names = tuple(axis_names)
        if len(self.axis_names) != len(self):
            raise ValueError("one axis name per axis required")
        self.prior = prior
        self.nodes = np.stack(np.meshgrid(*self, indexing="ij"), axis=-1)
        self.log_prior = prior.log_density(self.nodes)
        self.dead = ~np.isfinite(self.log_prior)
        self.dead_index = np.flatnonzero(self.dead)
        density = np.exp(self.log_prior)
        mass = _node_weights(self) * density
        prior_mass = float(mass.sum())
        if not (np.isfinite(prior_mass) and prior_mass > 0):
            raise InferenceError(f"prior mass on the grid is {prior_mass}")
        self.log_prior_mass = math.log(prior_mass)
        self.prior_on_grid = density / prior_mass
        self.weights = mass / prior_mass
        if all(axis.size > 2 for axis in self):
            inner = tuple(slice(1, -1) for _ in self)
            self.interior_weights = np.zeros_like(self.weights)
            self.interior_weights[inner] = \
                _node_weights([axis[1:-1] for axis in self]) \
                * self.prior_on_grid[inner]
        else:
            self.interior_weights = None
        for array in (self.nodes, self.log_prior, self.dead, self.dead_index,
                      self.prior_on_grid, self.weights,
                      self.interior_weights):
            if array is not None:
                array.flags.writeable = False
        return self


def cdf_spaced_grid(prior: TruncatedNormalPrior, points_per_dim) -> tuple[np.ndarray, ...]:
    """Axes evenly spaced in prior-quantile space, one per parameter.

    Dimension k gets the mid-quantiles F_k^{-1}((i + 1/2)/n) for
    i = 0..n-1, which stay finite even when a truncation bound is
    infinite and concentrate nodes where the prior puts mass.
    """
    counts = [int(n) for n in np.atleast_1d(points_per_dim)]
    if len(counts) == 1 and prior.dim > 1:
        counts = counts * prior.dim
    if len(counts) != prior.dim:
        raise ValueError(f"{len(counts)} counts for a {prior.dim}-D prior")
    axes = []
    for dim, n in enumerate(counts):
        if n < 2:
            raise ValueError(f"need >= 2 points per dimension, got {n}")
        quantiles = (np.arange(n) + 0.5) / n
        axis = prior.marginal_ppf(dim, quantiles)
        if not np.all(np.diff(axis) > 0):
            raise ValueError(f"grid axis {dim} is not strictly increasing")
        axes.append(axis)
    return tuple(axes)


def evaluate_posterior(prior: TruncatedNormalPrior, log_likelihood_fn,
                       axes) -> PosteriorGrid:
    """Normalized posterior of prior x likelihood on a tensor grid.

    ``axes`` are the grid's axes, named ``x1``, ``x2``, ..., or a
    :class:`PriorGrid`, which carries its axis names and is used as it is;
    it must have been built for ``prior`` or an equal prior.
    ``log_likelihood_fn`` receives the full node array of shape
    grid_shape + (n_params,) and returns log-likelihoods of shape
    grid_shape; -inf entries are allowed and mark dead nodes.
    """
    grid = axes if isinstance(axes, PriorGrid) else PriorGrid(prior, axes)
    if grid.prior is not prior and grid.prior != prior:
        raise ValueError("axes: a PriorGrid built for another prior")
    log_lik = np.asarray(log_likelihood_fn(grid.nodes), dtype=float)
    if log_lik.shape != grid.log_prior.shape:
        log_lik = np.broadcast_to(log_lik, grid.log_prior.shape)
    shift = float(log_lik.max())     # NaN if any entry is NaN
    if math.isnan(shift):
        raise InferenceError("log-likelihood returned NaN; use -inf for "
                             "failed evaluations")
    log_unnormalized = grid.log_prior + log_lik

    if grid.dead_index.size or not math.isfinite(shift):
        # the shift is the largest log-likelihood where the posterior is
        # finite; elsewhere the log ratio is floored below
        finite = np.isfinite(log_unnormalized)
        if not finite.any():
            raise InferenceError("posterior is zero everywhere on the grid")
        shift = float(np.max(log_lik, where=finite, initial=-np.inf))
    log_ratio = np.subtract(log_lik, shift)
    np.maximum(log_ratio, _LOG_RATIO_FLOOR, out=log_ratio)
    log_ratio.flat[grid.dead_index] = _LOG_RATIO_FLOOR
    ratio = np.exp(log_ratio, out=np.zeros(log_ratio.shape),
                   where=log_ratio > _LOG_RATIO_FLOOR)
    scaled_norm = float((grid.weights * ratio).sum())
    if not (np.isfinite(scaled_norm) and scaled_norm > 0):
        raise InferenceError(
            f"normalization is zero or non-finite ({scaled_norm})")
    ratio /= scaled_norm
    log_ratio -= math.log(scaled_norm)

    if grid.interior_weights is not None:
        inner = float((grid.interior_weights * ratio).sum())
        boundary_mass = max(0.0, 1.0 - inner)
    else:
        boundary_mass = 1.0
    if boundary_mass > BOUNDARY_MASS_THRESHOLD:
        logger.warning("%.1f%% of posterior mass sits in the outermost grid "
                       "shell; the grid is likely too small",
                       100.0 * boundary_mass)

    return PosteriorGrid(grid=grid, log_unnormalized=log_unnormalized,
                         density=grid.prior_on_grid * ratio,
                         log_normalization=(math.log(scaled_norm) + shift
                                            + grid.log_prior_mass),
                         boundary_mass=boundary_mass, ratio=ratio,
                         log_ratio=log_ratio)


def information_gain(posterior: PosteriorGrid, prior: TruncatedNormalPrior) -> float:
    """KL divergence of the posterior from its prior, in nats.

    Both densities are taken as the grid represents them, the prior
    renormalized over the grid: the gain is the sum over the nodes of
    posterior mass times the log of the posterior-to-prior density ratio,
    with the grid's prior-mass weights.  The integrand is zero wherever
    the posterior density vanishes.  ``prior`` must be the prior of the
    posterior's grid or equal to it.
    """
    grid = posterior.grid
    if grid.prior is not prior and grid.prior != prior:
        raise ValueError("prior: not the prior of the posterior's grid")
    return float((grid.weights * posterior.ratio * posterior.log_ratio).sum())


def _as_covariance(cov, k: int) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov.reshape(1, 1)
    elif cov.ndim == 1:
        cov = np.diag(cov)
    if cov.shape != (k, k):
        raise ValueError(f"covariance has shape {cov.shape}, expected ({k}, {k})")
    if not np.allclose(cov, cov.T, rtol=1e-12, atol=0.0):
        raise ValueError("covariance must be symmetric")
    return cov


def kl_gaussians(mean0, cov0, mean1, cov1) -> float:
    """Closed-form KL(N1 || N0) between multivariate normals, in nats.

    The 0-distribution is the reference (prior-like), matching
    :func:`information_gain`'s argument order of (posterior, prior) read
    backwards.  Raises for non-positive-definite covariances.
    """
    mean0 = np.atleast_1d(np.asarray(mean0, dtype=float))
    mean1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    if mean0.shape != mean1.shape:
        raise ValueError("means must have equal shapes")
    k = mean0.size
    cov0 = _as_covariance(cov0, k)
    cov1 = _as_covariance(cov1, k)
    try:
        chol0 = np.linalg.cholesky(cov0)
        chol1 = np.linalg.cholesky(cov1)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"covariance is not positive definite: {exc}") from exc
    solve0 = np.linalg.solve
    trace = float(np.trace(solve0(cov0, cov1)))
    diff = mean0 - mean1
    z = np.linalg.solve(chol0, diff)
    mahal = float(z @ z)
    logdet0 = 2.0 * float(np.sum(np.log(np.diag(chol0))))
    logdet1 = 2.0 * float(np.sum(np.log(np.diag(chol1))))
    return 0.5 * (trace + mahal - k + logdet0 - logdet1)


def riig(ig_single: float, ig_multi: float) -> float:
    """Relative increase in information gain from adding a second field.

    Slightly negative values are legal: they arise as quadrature artifacts
    when a highly concentrated posterior meets a finite grid.
    """
    if not ig_single > 0:
        raise ValueError(
            f"single-field information gain must be > 0 for a relative "
            f"increase, got {ig_single}")
    return (ig_multi - ig_single) / ig_single


def posterior_to_csv(grid: PosteriorGrid, path) -> None:
    """Long-format dump: one row per node with coordinates and densities.

    Nodes run in C order, the last axis fastest.  The file is built column
    by column: each axis value is formatted once and repeated, so the cost
    is one ``repr`` per node for each of the two value columns.
    """
    index = np.indices(grid.density.shape).reshape(grid.density.ndim, -1)
    columns = [np.array(list(map(repr, axis.tolist())), dtype=object)[i]
               for axis, i in zip(grid.axes, index)]
    columns += [map(repr, values.ravel().tolist())
                for values in (grid.log_unnormalized, grid.density)]
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(
            list(grid.axes.axis_names) + ["log_unnormalized", "density"])
        handle.writelines(f"{','.join(row)}\n" for row in zip(*columns))


def posterior_to_json(grid: PosteriorGrid, path, *, information_gain=None,
                      provenance=None, extra=None) -> None:
    """Sidecar with axes, normalization, diagnostics, and optional provenance."""
    payload = {
        "axis_names": list(grid.axes.axis_names),
        "axes": [axis.tolist() for axis in grid.axes],
        "log_normalization": grid.log_normalization,
        "normalization": (math.exp(grid.log_normalization)
                          if grid.log_normalization < 709 else None),
        "boundary_mass": grid.boundary_mass,
        "boundary_warning": grid.boundary_mass > BOUNDARY_MASS_THRESHOLD,
        "information_gain": information_gain,
    }
    if provenance is not None:
        payload["provenance"] = provenance
    if extra:
        payload.update(extra)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
