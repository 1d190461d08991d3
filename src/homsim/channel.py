"""Probabilistic measurement channel for joint two-mode counting statistics.

The channel maps an ideal source grid to the distribution a counting
experiment would record, as a fixed composition of stages:

    source -> rotation -> Poisson influx -> binomial loss
           -> calibration skew -> detection blur

Rotation maps a TwoModeDistribution, renormalizes it and adds the mass it
pushes off the (N+1)x(N+1) grid to ``tail_mass``.  The four noise stages
map a raw grid (its last two axes, a leading stack allowed) linearly and do
not renormalize; ``_noise_forward`` composes them for ``predict`` and
``fit``, normalizes their image once and reports the off-grid mass.  Only
the influx and loss rates are free; the skew and blur settings are fixed
properties of the calibration.  ``fit`` recovers the free rates from
counting data by a bounded least-squares fit of the squared Hellinger
distance over the whole grid, odd totals included, one solve per angle.

The influx, loss and blur matrices are built in one broadcast each from
closed forms; numpy's 0.0 ** 0 == 1 keeps the rates 0 and 1 exact:

    influx  P[m, k] = a^(m-k) e^(-a) / (m-k)!               (m >= k)
    loss    B[m, k] = C(k, m) (1-l)^m l^(k-m)               (m <= k)
    blur    B[m, n] = Phi((m+1/2-n)/sigma_n) - Phi((m-1/2-n)/sigma_n)

Their rate derivatives are closed forms too:

    dP/da[m, k] = P[m-1, k] - P[m, k]
    dB/dl[:, k] = k (B[:, k-1] - B[:, k-1] shifted down one row)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Mapping

import numpy as np

from .fock import CapacityError, TwoModeDistribution, _antidiagonal_indices, _kernel
from .metrology import ShotTable, is_number
from . import stats


class ConvergenceError(stats.FitError):
    """Optimizer exhausted its budget; carries the best point found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class BlurLaw:
    """Per-mode detection-noise law sigma_n^2 = sigma0^2 + c1^2 * n (atom units).

    ``g`` and ``b`` (counts per atom, zero-atom offset) ride along for
    serialization; the blur itself acts in atom units where they cancel.
    """

    sigma0: float
    c1: float
    g: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        for name, value in BlurLaw.to_json(self).items():
            if not is_number(value):
                raise ValueError(f"blur law: {name} must be a number")
            if name in ("sigma0", "c1") and value < 0:
                raise ValueError(f"blur law: {name} must be non-negative")

    def sigma(self, n) -> np.ndarray:
        """Detection width sigma_n = sqrt(sigma0^2 + c1^2 * n) of n atoms, in atom units."""
        return np.sqrt(self.sigma0**2 + self.c1**2 * np.asarray(n, dtype=float))

    def masses(self, edges, peaks: int) -> tuple[np.ndarray, np.ndarray]:
        """The mass of peaks 0..peaks-1 between consecutive ``edges``, one column per peak, and z at the edges.

        Peak n sits at b + n g with rms sigma_n g, so z = (edge - b - n g) / (sigma_n g), and an interval holds
        Phi(z) = erfc(-z / sqrt 2) / 2 at its upper edge less Phi(z) at its lower; an infinite edge is an open end.
        """
        n = np.arange(peaks)
        z = (np.asarray(edges, dtype=float)[:, None] - self.b - n * self.g) / (self.sigma(n) * self.g)
        cdf = 0.5 * np.array([math.erfc(t) for t in (-z / math.sqrt(2.0)).ravel().tolist()]).reshape(z.shape)
        return np.diff(cdf, axis=0), z

    def matrix(self, n_max: int) -> np.ndarray:
        """P(count m | n atoms) at [m, n] on the counts 0..n_max (:func:`_blur_matrix`)."""
        return _blur_matrix(n_max, self.sigma0, self.c1)

    def to_json(self) -> dict:
        """The law as one mode of the noise config's ``blur`` reads it: ``BlurLaw(**law.to_json())`` rebuilds it."""
        return {f.name: getattr(self, f.name) for f in fields(BlurLaw)}


# Reference calibration constants of the modelled experiment.
DEFAULT_BLUR_MINUS = BlurLaw(sigma0=0.1466, c1=0.0114, g=975.8)
DEFAULT_BLUR_PLUS = BlurLaw(sigma0=0.168, c1=0.027, g=832.5)

# The free rates of the channel, in the order of the fit's parameter vector.
_RATES = ("a_plus", "a_minus", "l_plus", "l_minus")


def skew_shift_probability(skew: float) -> float:
    """Per-shot probability of each single-count calibration shift.

    The calibration asymmetry is quoted as a ratio N_minus / N_plus = skew of
    the two transfer outputs.  It is carried by two independent single-count
    coins per shot (one over-counts the minus mode, one under-counts the plus
    mode), each firing with probability sqrt(skew) - 1 so that the pair of
    coins reproduces the quoted ratio in expectation.  This reading of the
    quoted number is deliberately isolated here: change it in one place only.
    A probability in [0, 1] needs 1 <= skew <= 4; any other skew raises.
    """
    if not 1.0 <= skew <= 4.0:
        raise ValueError(f"skew must lie in [1, 4], where sqrt(skew) - 1 is a probability, not {skew!r}")
    return float(np.sqrt(skew) - 1.0)


@dataclass(frozen=True)
class NoiseModelParams:
    """Free channel parameters plus the fixed skew/blur settings."""

    a_plus: float
    a_minus: float
    l_plus: float
    l_minus: float
    skew: float = 1.052
    blur_minus: BlurLaw = DEFAULT_BLUR_MINUS
    blur_plus: BlurLaw = DEFAULT_BLUR_PLUS

    def __post_init__(self):
        if self.a_plus < 0 or self.a_minus < 0:
            raise ValueError("influx means must be non-negative")
        if not (0 <= self.l_plus <= 1 and 0 <= self.l_minus <= 1):
            raise ValueError("loss probabilities must lie in [0, 1]")
        skew_shift_probability(self.skew)  # raises for a skew outside [1, 4]

    def to_json(self) -> dict:
        blur = {"minus": BlurLaw.to_json(self.blur_minus), "plus": BlurLaw.to_json(self.blur_plus)}
        return {**{k: getattr(self, k) for k in (*_RATES, "skew")}, "blur": blur}

    @classmethod
    def from_json(cls, obj: Mapping) -> "NoiseModelParams":
        """The four rates, and skew and per-mode blur laws where given; ValueError names what is malformed."""
        kwargs = {k: obj[k] for k in (*_RATES, "skew") if k in obj}
        wrong = [k for k, v in kwargs.items() if not is_number(v)]
        if wrong:
            raise ValueError(f"noise config: {', '.join(wrong)} must be a number")
        blur = obj.get("blur", {})
        try:
            kwargs.update({f"blur_{m}": BlurLaw(**blur[m]) for m in ("minus", "plus") if m in blur})
            return cls(**kwargs)
        except TypeError as exc:  # a missing rate, or an unknown key of a blur law
            raise ValueError(f"noise config: {exc}") from None


# Best-fit rates of the reference dataset; handy defaults for simulation.
REFERENCE_PARAMS = NoiseModelParams(a_plus=0.0551, a_minus=0.0218, l_plus=4.2e-4, l_minus=0.011)


def _normalize(grid: np.ndarray) -> tuple[np.ndarray, float]:
    """The grid scaled to unit mass, and the mass it had before."""
    total = grid.sum()
    if total <= 0:
        raise ValueError("stage removed all probability mass")
    return grid / total, total


def apply_rotation(dist: TwoModeDistribution, theta: float) -> TwoModeDistribution:
    """Rotate every fixed-N anti-diagonal by the pulse angle theta.

    Each populated input multiplies only its own kernel row (one row per even
    N for the pair source).  The total-number marginal is unchanged except
    for anti-diagonals that do not fit the grid completely (N > n_max), whose
    off-grid output mass goes to the tail.  Odd-N input mass is legal (noise
    upstream of the pulse would create it) and uses the half-integer spin.
    """
    n_max = dist.n_max
    out = np.zeros_like(dist.grid)
    for n_total in range(2 * n_max + 1):
        idx = _antidiagonal_indices(n_total, n_max)
        vec = dist.grid[idx, n_total - idx]
        populated = vec > 0
        if populated.any():
            out[idx, n_total - idx] = (vec[populated] @ _kernel(n_total, float(theta), idx[populated]))[idx]
    grid, total = _normalize(out)
    return TwoModeDistribution(grid=grid, n_max=n_max, tail_mass=dist.tail_mass + max(0.0, 1.0 - total))


@lru_cache(maxsize=8)
def _tables(size: int) -> tuple[np.ndarray, ...]:
    """Read-only index grids (m, k) of a size x size matrix, n! for n < size and C(k, m) at [m, k]."""
    tables = (*np.indices((size, size)), np.array([math.factorial(n) for n in range(size)], dtype=float),
              np.array([[math.comb(k, m) for k in range(size)] for m in range(size)], dtype=float))
    for t in tables:
        t.flags.writeable = False
    return tables


def _influx_matrix(a: float, size: int) -> np.ndarray:
    """P[m, k] = Poisson(m - k; a): the chance that k atoms become m after influx."""
    m, k, factorials, _ = _tables(size)
    added = np.maximum(m - k, 0)
    return np.where(m >= k, a**added * math.exp(-a) / factorials[added], 0.0)


def _influx_derivative(p: np.ndarray) -> np.ndarray:
    """dP/da[m, k] = P[m-1, k] - P[m, k]: the Poisson pmf's slope in its mean."""
    d = -p
    d[1:] += p[:-1]
    return d


def _per_mode(matrix, slope, r_plus: float, r_minus: float, grid: np.ndarray, jac: bool = False) -> np.ndarray:
    """M(r+) grid M(r-)^T on the last two axes of ``grid``, with M = ``matrix`` and dM/dr = ``slope``.

    With ``jac``, ``grid[0]`` is the grid and ``grid[1:]`` its derivatives in
    earlier rates; the derivatives of ``grid[0]``'s image in r+ and r- follow.
    """
    size = grid.shape[-1]
    mp, mm = matrix(r_plus, size), matrix(r_minus, size)
    out = mp @ grid @ mm.T
    if not jac:
        return out
    return np.concatenate([out, [slope(mp) @ grid[0] @ mm.T, mp @ grid[0] @ slope(mm).T]])


def convolve_poisson_influx(grid: np.ndarray, a_plus: float, a_minus: float, jac: bool = False) -> np.ndarray:
    """Add independent Poisson counts to each mode (``jac`` as in :func:`_per_mode`); overflow leaves the grid."""
    if a_plus < 0 or a_minus < 0:
        raise ValueError("influx means must be non-negative")
    return _per_mode(_influx_matrix, _influx_derivative, a_plus, a_minus, grid, jac)


def _loss_matrix(l: float, size: int) -> np.ndarray:
    """B[m, k] = Binomial(m; k, 1 - l): the chance that m of k atoms survive.

    The coefficient C(k, m) is the exact integer (0 for m > k): exp of
    log-gammas would put 1e-14 errors into the column sums at 40 atoms.
    """
    m, k, _, comb = _tables(size)
    return comb * (1 - l) ** np.minimum(m, k) * l ** np.maximum(k - m, 0)


def _loss_derivative(b: np.ndarray) -> np.ndarray:
    """dB/dl: column k is k (B[:, k-1] - B[:, k-1] shifted down one row)."""
    d = np.zeros_like(b)
    d[:, 1:] = b[:, :-1]
    d[1:, 1:] -= b[:-1, :-1]
    return d * np.arange(len(b))


def convolve_binomial_loss(grid: np.ndarray, l_plus: float, l_minus: float, jac: bool = False) -> np.ndarray:
    """Each atom survives with probability 1 - l per mode (``jac`` as in :func:`_per_mode`); mass is kept."""
    if not (0 <= l_plus <= 1 and 0 <= l_minus <= 1):
        raise ValueError("loss probabilities must lie in [0, 1]")
    return _per_mode(_loss_matrix, _loss_derivative, l_plus, l_minus, grid, jac)


def apply_calibration_skew(grid: np.ndarray, skew: float) -> np.ndarray:
    """Single-count miscalibration: minus over-counted, plus under-counted.

    Two independent coins per shot, each with probability
    :func:`skew_shift_probability`; shifts that would leave the grid are
    clamped in place so probability is conserved exactly.
    """
    q = skew_shift_probability(skew)
    # minus coin: n_minus -> n_minus + 1, clamped at the top edge
    tmp = (1 - q) * grid
    shifted = q * grid
    tmp[..., :, 1:] += shifted[..., :, :-1]
    tmp[..., :, -1] += shifted[..., :, -1]
    # plus coin: n_plus -> n_plus - 1, clamped at the bottom edge
    out = (1 - q) * tmp
    shifted = q * tmp
    out[..., :-1, :] += shifted[..., 1:, :]
    out[..., 0, :] += shifted[..., 0, :]
    return out


@lru_cache(maxsize=64)
def _blur_matrix(n_max: int, sigma0: float, c1: float) -> np.ndarray:
    """Column-stochastic reassignment matrix B[m, n] = P(count m | true n).

    Gaussian of width sigma_n centred on n, integrated over the unit
    quantization interval of m (:meth:`BlurLaw.masses`); the first and last
    intervals are open so each column sums to one exactly.
    """
    b = BlurLaw(sigma0, c1).masses([-math.inf, *np.arange(n_max) + 0.5, math.inf], n_max + 1)[0]
    b.flags.writeable = False
    return b


def apply_detection_blur(
    grid: np.ndarray, blur_minus: BlurLaw = DEFAULT_BLUR_MINUS, blur_plus: BlurLaw = DEFAULT_BLUR_PLUS
) -> np.ndarray:
    """Reassign true counts to detected counts through the Gaussian peak overlap: B+ grid B-^T."""
    n_max = grid.shape[-1] - 1
    return blur_plus.matrix(n_max) @ grid @ blur_minus.matrix(n_max).T


def _noise_forward(grid: np.ndarray, x, params: NoiseModelParams, jac: bool = False):
    """Influx, loss, skew and blur on a raw grid at the rates x = (a+, a-, l+, l-).

    Only the skew and blur of ``params`` are read.  Returns the detected grid
    p, the mass the stages pushed off the grid and, with ``jac``, the
    derivatives dp/dx stacked on a leading axis of length 4 (else None).
    The stages map the grid stacked on its derivatives raw, and their image
    U is normalized once: p = U / sum(U), dp = (dU - p sum(dU)) / sum(U).
    """
    u = convolve_binomial_loss(convolve_poisson_influx(grid[None], x[0], x[1], jac), x[2], x[3], jac)
    u = apply_detection_blur(apply_calibration_skew(u, params.skew), params.blur_minus, params.blur_plus)
    p, total = _normalize(u[0])
    dp = (u[1:] - p * u[1:].sum(axis=(1, 2))[:, None, None]) / total if jac else None
    return p, max(0.0, 1.0 - total), dp


def predict(dist_ideal: TwoModeDistribution, theta: float, params: NoiseModelParams) -> TwoModeDistribution:
    """Full channel: rotation by theta, then the four noise stages in order."""
    rotated = apply_rotation(dist_ideal, theta)
    grid, leak, _ = _noise_forward(rotated.grid, [getattr(params, k) for k in _RATES], params)
    return TwoModeDistribution(grid=grid, n_max=rotated.n_max, tail_mass=rotated.tail_mass + leak)


def empirical_grid(n_plus, n_minus, n_max: int) -> TwoModeDistribution:
    """Relative frequencies of joint outcomes, odd totals included; CapacityError counts the shots off the grid."""
    shots = np.array([n_plus, n_minus])
    off = int(np.count_nonzero(((shots < 0) | (shots > n_max)).any(axis=0)))
    if off:
        raise CapacityError(f"{off} of {shots.shape[1]} shots lie off the grid 0..n_max={n_max}")
    grid = np.zeros((n_max + 1, n_max + 1))
    np.add.at(grid, tuple(shots), 1.0)
    return TwoModeDistribution(grid=grid / grid.sum(), n_max=n_max)


def _hellinger_residual(rotated: np.ndarray, emp: np.ndarray, params: NoiseModelParams):
    """The function of the rates x that returns sqrt(p(x)) - sqrt(q) over the raveled grid and its Jacobian.

    Half the squared residual norm is the squared Hellinger distance.  The
    factor 1/(2 sqrt(p)) of d sqrt(p) is set to 0 on bins where p vanishes.
    """
    sqrt_q = np.sqrt(emp.ravel())

    def residual(x):
        p, _, dp = _noise_forward(rotated, x, params, jac=True)
        sqrt_p = np.sqrt(p.ravel())
        half_inv = np.divide(0.5, sqrt_p, out=np.zeros_like(sqrt_p), where=sqrt_p > 0)
        return sqrt_p - sqrt_q, dp.reshape(len(dp), -1).T * half_inv[:, None]

    return residual


@dataclass(frozen=True)
class ChannelFit:
    """Per-angle best-fit rates of one solve each.

    ``objectives`` holds each angle's least-squares cost, the squared
    Hellinger distance; ``nfev`` its model evaluations, each a residual with
    its Jacobian; ``status`` the :func:`homsim.stats.least_squares` status of
    its solve, 0 when the solve hit its evaluation cap.
    """

    per_theta: dict
    objectives: dict
    nfev: dict
    status: dict
    converged: bool


def fit(
    params0: NoiseModelParams,
    data: Mapping[float, ShotTable],
    source: TwoModeDistribution,
    bounds=None,
    budget: int = 200,
) -> ChannelFit:
    """Fit the four free rates to counting data, one fit per rotation angle.

    The objective is the squared Hellinger distance 1/2 |sqrt(p(x)) - sqrt(q)|^2
    between the predicted grid p and the empirical grid q (normalized over
    all outcomes, odd N included): a least-squares problem in four rates
    with box ``bounds`` (Beran, Ann. Statist. 5, 445 (1977)).  Each angle is
    one :func:`homsim.stats.least_squares` solve with the analytic Jacobian
    of the noise stages, from the rates of ``params0`` clipped into the
    bounds.  ``budget`` caps the model evaluations of that solve, each one
    noise pass that yields the residual and its Jacobian.  The rotated source
    is computed once per angle.  Raises CapacityError if a shot lies off the
    source's grid, and :class:`ConvergenceError` carrying the whole fit if
    the solve of any angle hit its cap.
    """
    if not data:
        raise ValueError("need at least one dataset")
    if bounds is None:
        hi_a = max(0.3, 4 * max(params0.a_plus, params0.a_minus))
        hi_l = min(1.0, max(0.1, 4 * max(params0.l_plus, params0.l_minus)))  # a loss rate is a probability
        bounds = [(0.0, hi_a), (0.0, hi_a), (0.0, hi_l), (0.0, hi_l)]
    lo, hi = np.asarray(bounds, dtype=float).T
    x0 = np.clip([getattr(params0, k) for k in _RATES], lo, hi)

    per_theta, objectives, nfev, status = {}, {}, {}, {}
    for theta, shots in sorted(data.items()):
        emp = empirical_grid(shots.n_plus, shots.n_minus, source.n_max).grid
        residual = _hellinger_residual(apply_rotation(source, theta).grid, emp, params0)
        res = stats.least_squares(residual, x0, lo, hi, max_nfev=budget)
        per_theta[theta] = replace(params0, **dict(zip(_RATES, map(float, res.x))))
        objectives[theta], nfev[theta], status[theta] = res.cost, res.nfev, res.status

    converged = all(s > 0 for s in status.values())
    fit_result = ChannelFit(per_theta=per_theta, objectives=objectives, nfev=nfev, status=status, converged=converged)
    if not converged:
        stuck = ", ".join(f"{t:.6g}" for t, s in status.items() if s <= 0)
        raise ConvergenceError(f"noise fit reached its cap of {budget} evaluations per angle without converging "
                               f"at theta = {stuck}", best=fit_result)
    return fit_result
