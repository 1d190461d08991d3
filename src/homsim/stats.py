"""Shared numerics: random streams, resampling, error bars, and the least-squares solvers.

One convention for every analysis module: one key per angle (:func:`angle_key`),
one key rule for every random stream (:func:`stream_key`) and one resample stack
per measured histogram and side; one box-bounded least-squares solver on one
function for the residual and its Jacobian, covariance scaled by the reduced chi-square.  Only
``differential_evolution``, a test oracle, loads scipy, when called.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np


class FitError(RuntimeError):
    """A least-squares fit failed to converge or is degenerate."""


MAX_MODEL_CALLS = 10000  # per weighted_least_squares fit; each call returns the values and their Jacobian
LSQ_TOL = 1e-10  # least_squares' relative tolerance on the cost drop, the step and the gradient


@dataclass(frozen=True)
class ResamplePlan:
    """How many synthetic datasets to draw (the config's ``resample_samples``) and from which seeded stream."""

    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"resample_samples must be positive, not {self.n_samples}")


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


def stream_key(seed: int, *coords: int) -> int:
    """The Philox key of the stream at ``coords`` under the master seed: ``SeedSequence([seed, *coords])``.

    Shot tables sit at (angle index,), resample stacks at (angle, N, side), camera signals at
    ``detector.SIGNAL_STREAM``: a ``SeedSequence`` ignores the trailing zeros of up to four words, so an N >= 1
    keeps every stack's key off every shot key.  It splits an integer of 2**32 or more into 32-bit words, so a
    larger master seed would share keys with a smaller one (2**32 with (0, 1)) and raises ValueError.
    """
    if not 0 <= seed < 2**32:
        raise ValueError(f"master seed {seed!r} is not an integer in [0, 2**32 - 1]")
    return int(np.random.SeedSequence([seed, *coords]).generate_state(1)[0])


def angle_key(theta: float) -> float:
    """The key of the shot table at ``theta``, and of every lookup of it: the digits of ``f"{theta:.6f}"``."""
    return round(float(theta), 6)  # Python's correctly rounded round, not numpy's scaled one


def resample_histogram(hist, plan: ResamplePlan, theta: float, side: int = 0) -> np.ndarray:
    """``plan.n_samples`` resamples of a measured fixed-N histogram taken at the angle ``theta``.

    Keyed at (``theta``'s :func:`angle_key` in micro-radians, N, ``side``): one stack per histogram and side."""
    if hist.n_shots is None or hist.n_total < 1:
        raise ValueError("resampling needs the original sample size and at least one atom")
    key = stream_key(plan.seed, round(angle_key(theta) * 1e6), hist.n_total, side)
    return multinomial_resample(hist.probs, hist.n_shots, ResamplePlan(plan.n_samples, key))


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


def check_level(level: float) -> None:
    """The rule on a confidence level (the config's ``confidence_level``): it lies in (0, 1]."""
    if not 0 < level <= 1:
        raise ValueError(f"confidence_level must be in (0, 1], not {level!r}")


def depth_confidence(samples, level: float = 0.68) -> int:
    """Largest depth k such that at least ``level`` of the samples reach k."""
    check_level(level)
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) == 0:
        raise ValueError("empty sample")
    best = 0
    for k in range(1, int(x.max()) + 1):
        if np.mean(x >= k) >= level:
            best = k
    return best


LeastSquaresResult = namedtuple("LeastSquaresResult", "x cost jac nfev status")


def least_squares(fun, x0, lower, upper, max_nfev: int) -> LeastSquaresResult:
    """Minimize |r(x)|^2 / 2 over the box [lower, upper] by projected Levenberg-Marquardt.

    ``fun(x)`` returns the residual r and its Jacobian J = dr/dx.  Each step solves
    the damped Gauss-Newton system in the unit-scaled columns of J, holding
    coordinates the gradient pushes against their bound, and clips the trial into
    the box (Kanzow, Yamashita & Fukushima, J. Comput. Appl. Math. 172, 375 (2004));
    the damping follows the gain ratio (Nielsen, IMM-REP-1999-05).  Returns the end
    point, its cost and J, the calls of ``fun``, and the status.  Status 1: free
    columns orthogonal to the residual within ``LSQ_TOL``; 2: a cost drop of at most
    ``LSQ_TOL`` of it; 3: a step within ``LSQ_TOL`` of |x|; 0: no convergence in
    ``max_nfev`` calls of ``fun``.
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r, j = fun(x)
    cost, nfev, damping, growth, status = 0.5 * (r @ r), 1, 1e-3, 2.0, 0
    while status == 0 and nfev < max_nfev:
        g = j.T @ r
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        norm = np.where(np.any(j != 0, axis=0), np.linalg.norm(j, axis=0), 1.0)[free]
        if np.all(np.abs(g[free]) <= LSQ_TOL * norm * np.sqrt(2 * cost)):
            status = 1
            break
        js, step = j[:, free] / norm, np.zeros_like(x)
        step[free] = -np.linalg.solve(js.T @ js + damping * np.eye(len(norm)), g[free] / norm) / norm
        dx = np.clip(x + step, lower, upper) - x
        predicted = -(g @ dx + 0.5 * np.sum((j @ dx) ** 2))
        (r_new, j_new), nfev = fun(x + dx), nfev + 1
        cost_new = 0.5 * (r_new @ r_new)
        short = np.linalg.norm(dx) <= LSQ_TOL * (LSQ_TOL + np.linalg.norm(x))
        if cost_new < cost:
            status = 2 if cost - cost_new <= LSQ_TOL * cost else 3 if short else 0
            gain = (cost - cost_new) / predicted if predicted > 0 else 0.0
            x, r, cost, j = x + dx, r_new, cost_new, j_new
            damping, growth = damping * max(1 / 3, 1 - (2 * gain - 1) ** 3), 2.0
        else:
            status, damping, growth = (3 if short else 0), damping * growth, 2 * growth
    return LeastSquaresResult(x, float(cost), j, nfev, status)


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |a x - b| over x >= 0: the unconstrained solution when it is all positive, else
    the active-set method of Lawson & Hanson, Solving Least Squares Problems (1974), ch. 23."""
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    if np.all(x > 0):
        return x
    tol = 10 * np.finfo(float).eps * np.abs(a).sum(axis=0).max() * max(a.shape)
    x, passive = np.zeros(a.shape[1]), np.zeros(a.shape[1], dtype=bool)
    for _ in range(3 * len(x)):
        w = a.T @ (b - a @ x)
        if passive.all() or w[~passive].max() <= tol:
            return x
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        while True:
            z = np.zeros_like(x)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if np.all(z[passive] > 0):
                break
            neg = passive & (z <= 0)  # move toward z until a passive entry reaches 0, and release it
            x += np.min(x[neg] / (x[neg] - z[neg])) * (z - x)
            passive &= x > tol
            x[~passive] = 0.0
        x = z
    raise FitError("non-negative least squares did not converge")


def weighted_least_squares(model, x, y, p0, weights=None, bounds=(-np.inf, np.inf)) -> tuple[np.ndarray, np.ndarray]:
    """Fit ``model(x, params)`` to ``y`` by :func:`least_squares`; ``model`` returns its values and d values / d params.

    ``weights`` multiply squared residuals (w = 1/sigma^2 for Gaussian
    errors).  ``bounds`` is a (lower, upper) box; the default leaves the
    fit unbounded.  Returns (params, covariance) with the covariance scaled
    by the reduced chi-square, as in textbook curve fitting.  A fit with
    fewer points than parameters raises before the first model call, and
    one that needs more than ``MAX_MODEL_CALLS`` calls of ``model`` raises.
    """
    x, y, p0 = (np.asarray(v, dtype=float) for v in (x, y, p0))
    dof = len(y) - len(p0)
    if dof <= 0:
        raise FitError("fewer data points than parameters")
    sw = np.ones_like(y) if weights is None else np.sqrt(np.asarray(weights, dtype=float))

    def residual(p):
        values, jac = model(x, p)
        return sw * (values - y), sw[:, None] * jac

    res = least_squares(residual, p0, *bounds, max_nfev=MAX_MODEL_CALLS)
    if res.status == 0:
        raise FitError(f"least squares did not converge in {res.nfev} model calls")
    try:
        return res.x, np.linalg.inv(res.jac.T @ res.jac) * 2.0 * res.cost / dof
    except np.linalg.LinAlgError as exc:
        raise FitError("degenerate fit: singular normal matrix") from exc


def differential_evolution(func, bounds, budget: int = 200, seed: int = 0):
    """scipy's differential evolution with fixed, reproducible hyperparameters, and its result.

    The tests check ``channel.fit``'s local least-squares optimum against it.
    It needs scipy, which only the ``test`` extra installs.  ``budget`` is
    the generation limit.  Non-convergence is reported through the result's
    ``success`` flag rather than an exception, so callers can decide whether
    a best-effort optimum is still usable.
    """
    import scipy.optimize

    return scipy.optimize.differential_evolution(
        func, bounds, strategy="rand1bin", maxiter=budget, popsize=15, tol=0.01, mutation=0.8,
        recombination=0.9, seed=seed, polish=True, init="latinhypercube")
