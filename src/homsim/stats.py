"""Shared numerics: resampling, error bars, and fit wrappers.

One convention for every analysis module: one seeded Philox stream per
resample stack, covariance scaled by the reduced chi-square, fixed global
optimizer settings.  Only the fit wrappers load scipy, when called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FitError(RuntimeError):
    """A least-squares fit failed to converge or is degenerate."""


MAX_MODEL_CALLS = 20000  # per weighted_least_squares fit, finite-difference Jacobian columns included


@dataclass(frozen=True)
class ResamplePlan:
    """How many synthetic datasets to draw and from which seeded stream."""

    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")


def multinomial_resample(probs: np.ndarray, n_shots: int, plan: ResamplePlan) -> np.ndarray:
    """Draw ``plan.n_samples`` multinomial frequency vectors of ``n_shots`` trials.

    Returns an array (n_samples, len(probs)) of relative frequencies, drawn
    row by row from one Philox stream keyed by ``plan.seed``, so a smaller
    ``n_samples`` gives the leading rows of a larger one.
    """
    probs = np.asarray(probs, dtype=float).ravel()
    if np.any(probs < 0):
        raise ValueError("probabilities must be non-negative")
    total = probs.sum()
    if total <= 0:
        raise ValueError("probabilities sum to zero")
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(plan.seed)))
    return rng.multinomial(n_shots, probs / total, size=plan.n_samples) / n_shots


def resample_pair(p, q, plan: ResamplePlan) -> tuple[np.ndarray, np.ndarray]:
    """Resample stacks of two measured histograms: ``p`` from ``plan``'s seed, ``q`` from seed + 1."""
    if p.n_shots is None or q.n_shots is None:
        raise ValueError("resampling needs the original sample sizes")
    return (multinomial_resample(p.probs, p.n_shots, plan),
            multinomial_resample(q.probs, q.n_shots, ResamplePlan(plan.n_samples, plan.seed + 1)))


def asymmetric_std(samples: np.ndarray, center: float | None = None) -> tuple[float, float]:
    """One-sided spreads (minus, plus) of a possibly skewed sample cloud.

    Each side's variance averages squared deviations of that side's points
    over the *full* sample count, doubled so that a symmetric cloud
    reproduces the ordinary standard deviation on both sides.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) == 0:
        raise ValueError("empty sample")
    mu = x.mean() if center is None else float(center)
    d = x - mu
    m = len(x)
    lower = np.sqrt(2.0 / m * np.sum(d[d < 0] ** 2))
    upper = np.sqrt(2.0 / m * np.sum(d[d > 0] ** 2))
    return float(lower), float(upper)


def depth_confidence(samples, level: float = 0.68) -> int:
    """Largest depth k such that at least ``level`` of the samples reach k."""
    if not 0 < level <= 1:
        raise ValueError("level must be in (0, 1]")
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) == 0:
        raise ValueError("empty sample")
    best = 0
    for k in range(1, int(x.max()) + 1):
        if np.mean(x >= k) >= level:
            best = k
    return best


def weighted_least_squares(model, x, y, p0, weights=None, bounds=(-np.inf, np.inf)) -> tuple[np.ndarray, np.ndarray]:
    """Trust-region reflective fit of ``model(x, params)`` to ``y``.

    ``weights`` multiply squared residuals (w = 1/sigma^2 for Gaussian
    errors).  ``bounds`` is a (lower, upper) box; the default leaves the
    fit unbounded.  Returns (params, covariance) with the covariance scaled
    by the reduced chi-square, matching the convention of textbook curve
    fitting.  With its 2-point Jacobian an iteration calls ``model`` up to
    len(p0) + 1 times; a fit that needs more than ``MAX_MODEL_CALLS`` raises.
    """
    import scipy.optimize

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    sw = np.ones_like(y) if weights is None else np.sqrt(np.asarray(weights, dtype=float))

    def residual(p):
        return sw * (model(x, p) - y)

    res = scipy.optimize.least_squares(residual, p0, method="trf", bounds=bounds,
                                       max_nfev=MAX_MODEL_CALLS // (len(p0) + 1))
    if not res.success:
        raise FitError(f"least squares did not converge: {res.message}")
    dof = len(y) - len(p0)
    if dof <= 0:
        raise FitError("fewer data points than parameters")
    jtj = res.jac.T @ res.jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError as exc:
        raise FitError("degenerate fit: singular normal matrix") from exc
    cov = cov * 2.0 * res.cost / dof
    return res.x, cov


@dataclass(frozen=True)
class DEResult:
    x: np.ndarray
    fun: float
    converged: bool
    nfev: int


def differential_evolution(func, bounds, budget: int = 200, seed: int = 0) -> DEResult:
    """Global minimization with fixed, reproducible hyperparameters.

    The tests check ``channel.fit``'s local least-squares optimum against it.
    ``budget`` is the generation limit.  Non-convergence is reported through
    the result flag rather than an exception so callers can decide whether a
    best-effort optimum is still usable.
    """
    import scipy.optimize

    res = scipy.optimize.differential_evolution(
        func,
        bounds,
        strategy="rand1bin",
        maxiter=budget,
        popsize=15,
        tol=0.01,
        mutation=0.8,
        recombination=0.9,
        seed=seed,
        polish=True,
        init="latinhypercube",
    )
    return DEResult(
        x=np.asarray(res.x, dtype=float),
        fun=float(res.fun),
        converged=bool(res.success),
        nfev=int(res.nfev),
    )
