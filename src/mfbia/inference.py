"""Grid-based posterior evaluation and information-theoretic post-processing.

The posterior is evaluated in the log domain on a tensor grid, shifted by
its maximum before exponentiation, and normalized with the trapezoidal rule
iterated over the (generally non-uniform) axes.  Information gain is the
Kullback-Leibler divergence of the posterior from the prior, computed by
the same quadrature; the prior is renormalized over the grid so that a
posterior identical to the prior yields exactly zero gain regardless of how
much prior mass the grid covers.
"""

from __future__ import annotations

import csv
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


class InferenceError(RuntimeError):
    """Posterior evaluation failed (zero/non-finite evidence or bad inputs)."""


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalized posterior density on a tensor-product grid.

    ``density`` integrates to one over the grid by construction (trapezoidal
    rule on the stored axes).  ``normalization`` is the evidence estimate;
    ``log_normalization`` is always finite and should be preferred when the
    likelihood spans many orders of magnitude.  ``log_prior`` is the
    log-density of ``prior`` on the nodes.
    """

    axes: tuple[np.ndarray, ...]
    axis_names: tuple[str, ...]
    log_unnormalized: np.ndarray
    density: np.ndarray
    log_normalization: float
    boundary_mass: float
    prior: TruncatedNormalPrior
    log_prior: np.ndarray

    @property
    def normalization(self) -> float:
        return math.exp(self.log_normalization) \
            if self.log_normalization < 709 else math.inf

    @property
    def shape(self) -> tuple[int, ...]:
        return self.density.shape

    @property
    def boundary_warning(self) -> bool:
        return self.boundary_mass > BOUNDARY_MASS_THRESHOLD

    def nodes(self) -> np.ndarray:
        """Grid nodes as an array of shape grid_shape + (n_params,)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)


def trapezoid_nd(values: np.ndarray, axes) -> float:
    """Iterated 1-D trapezoidal rule over non-uniform tensor-product axes."""
    result = np.asarray(values, dtype=float)
    for axis_points in reversed(list(axes)):
        result = np.trapezoid(result, x=np.asarray(axis_points), axis=-1)
    return float(result)


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
                       axes, axis_names=None) -> PosteriorGrid:
    """Normalized posterior of prior x likelihood on a tensor grid.

    ``log_likelihood_fn`` receives the full node array of shape
    grid_shape + (n_params,) and returns log-likelihoods of shape
    grid_shape; -inf entries are allowed and mark dead nodes.
    """
    axes = _validate_axes(axes)
    if axis_names is None:
        axis_names = tuple(f"x{k + 1}" for k in range(len(axes)))
    axis_names = tuple(axis_names)
    if len(axis_names) != len(axes):
        raise ValueError("one axis name per axis required")

    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack(mesh, axis=-1)
    log_prior = prior.log_density(nodes)
    log_lik = np.asarray(log_likelihood_fn(nodes), dtype=float)
    log_lik = np.broadcast_to(log_lik, log_prior.shape)
    if np.isnan(log_lik).any():
        raise InferenceError("log-likelihood returned NaN; use -inf for "
                             "failed evaluations")
    log_unnormalized = log_prior + log_lik

    finite = np.isfinite(log_unnormalized)
    if not finite.any():
        raise InferenceError("posterior is zero everywhere on the grid")
    shift = float(log_unnormalized[finite].max())
    weights = np.exp(log_unnormalized - shift)
    scaled_norm = trapezoid_nd(weights, axes)
    if not (np.isfinite(scaled_norm) and scaled_norm > 0):
        raise InferenceError(
            f"normalization is zero or non-finite ({scaled_norm})")
    density = weights / scaled_norm

    if all(axis.size > 2 for axis in axes):
        interior = tuple(slice(1, -1) for _ in axes)
        inner = trapezoid_nd(density[interior], [a[1:-1] for a in axes])
        boundary_mass = max(0.0, 1.0 - inner)
    else:
        boundary_mass = 1.0
    if boundary_mass > BOUNDARY_MASS_THRESHOLD:
        logger.warning("%.1f%% of posterior mass sits in the outermost grid "
                       "shell; the grid is likely too small",
                       100.0 * boundary_mass)

    return PosteriorGrid(axes=axes, axis_names=axis_names,
                         log_unnormalized=log_unnormalized, density=density,
                         log_normalization=math.log(scaled_norm) + shift,
                         boundary_mass=boundary_mass, prior=prior,
                         log_prior=log_prior)


def information_gain(posterior: PosteriorGrid, prior: TruncatedNormalPrior) -> float:
    """KL divergence of the posterior from the prior, in nats.

    Both densities are taken as the grid represents them: the prior is
    renormalized over the grid with the same trapezoidal rule, so identical
    prior and posterior give exactly zero.  The integrand is defined as zero
    wherever the posterior density vanishes.
    """
    if prior is posterior.prior:
        log_prior = posterior.log_prior
    else:
        log_prior = prior.log_density(posterior.nodes())
    post = posterior.density
    alive = post > 0
    if np.any(alive & ~np.isfinite(log_prior)):
        raise InferenceError(
            "posterior has mass where the prior density is zero; "
            "KL divergence is undefined")
    prior_mass = trapezoid_nd(np.exp(log_prior), posterior.axes)
    if not (np.isfinite(prior_mass) and prior_mass > 0):
        raise InferenceError(f"prior mass on the grid is {prior_mass}")
    log_prior_grid = log_prior - math.log(prior_mass)
    log_post = np.log(post, out=np.zeros_like(post), where=alive)
    integrand = np.where(alive, post * (log_post - log_prior_grid), 0.0)
    return trapezoid_nd(integrand, posterior.axes)


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
    index = np.indices(grid.shape).reshape(len(grid.shape), -1)
    columns = [np.array(list(map(repr, axis.tolist())), dtype=object)[i]
               for axis, i in zip(grid.axes, index)]
    columns += [map(repr, values.ravel().tolist())
                for values in (grid.log_unnormalized, grid.density)]
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(
            list(grid.axis_names) + ["log_unnormalized", "density"])
        handle.writelines(f"{','.join(row)}\n" for row in zip(*columns))


def posterior_to_json(grid: PosteriorGrid, path, *, information_gain=None,
                      provenance=None, extra=None) -> None:
    """Sidecar with axes, normalization, diagnostics, and optional provenance."""
    payload = {
        "axis_names": list(grid.axis_names),
        "axes": [axis.tolist() for axis in grid.axes],
        "log_normalization": grid.log_normalization,
        "normalization": (grid.normalization
                          if math.isfinite(grid.normalization) else None),
        "boundary_mass": grid.boundary_mass,
        "boundary_warning": grid.boundary_warning,
        "information_gain": information_gain,
    }
    if provenance is not None:
        payload["provenance"] = provenance
    if extra:
        payload.update(extra)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
