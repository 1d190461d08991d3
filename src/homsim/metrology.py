"""State-quality and sensitivity estimators for number-resolved shot data.

Everything here consumes either fixed-N probability vectors over the
imbalance J_z or raw (N_plus, N_minus) shot tables.  The sensitivity route
is the statistical-distance one: squared Hellinger distances between
distributions at nearby rotation angles grow as (F/8)(dtheta)^2, so a fit of
that parabola estimates the classical Fisher information F without choosing
an estimator.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from . import stats
from .fock import CollectiveMoments, FixedNDistribution, TwoModeDistribution

# Default probe grid of the small-rotation interferometer sequences (rad).
SMALL_ROTATION_ANGLES = (0.0, 0.14, 0.20, 0.28, 0.35)

# The largest probe angle sits beyond the first node of the 14-atom signal,
# where the quartic expansion of d^2 stops being valid; dropping it restores
# a well-posed fit window for that atom number.
DEFAULT_EXCLUSIONS: Mapping[int, tuple[float, ...]] = {14: (0.35,)}


def read_csv_columns(path, names, dtype=float) -> list[np.ndarray]:
    """The columns called ``names`` of a CSV file with one header line, in that order."""
    with open(path) as fh:
        header = [h.strip() for h in fh.readline().split(",")]
        missing = [n for n in names if n not in header]
        if missing:
            raise ValueError(f"{path}: no column {', '.join(missing)} in header {header}")
        repeated = [n for n in names if header.count(n) > 1]
        if repeated:
            raise ValueError(f"{path}: column {', '.join(repeated)} appears more than once in header {header}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty body is reported below
            data = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=dtype)
    if len(data) == 0 or data.shape[1] != len(header):
        found = f"rows of {data.shape[1]}" if len(data) else "no data rows"
        raise ValueError(f"{path}: a header of {len(header)} columns but {found}")
    return [np.ascontiguousarray(data[:, header.index(n)]) for n in names]


def is_number(v) -> bool:
    """Whether a value read from JSON is a number a float holds: not a boolean, NaN, infinity or a larger integer."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def write_csv(path, header, rows) -> None:
    """Write ``rows`` under one header line to a CSV file, creating its directory if needed."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


@dataclass(frozen=True)
class ShotTable:
    """Per-shot detected occupations of the two side modes.

    ``theta`` labels the rotation angle of the sequence that generated the
    data, None for unlabeled tables; its ``stats.angle_key`` lies within those of 0 and pi.
    """

    n_plus: np.ndarray
    n_minus: np.ndarray
    theta: float | None = None

    def __post_init__(self):
        np_ = np.asarray(self.n_plus, dtype=int)
        nm = np.asarray(self.n_minus, dtype=int)
        if np_.shape != nm.shape or np_.ndim != 1:
            raise ValueError("n_plus and n_minus must be 1-d arrays of equal length")
        if (np_ < 0).any() or (nm < 0).any():
            raise ValueError("occupations must be non-negative")
        if self.theta is not None and not 0.0 <= stats.angle_key(self.theta) <= stats.angle_key(math.pi):
            raise ValueError("theta must lie in [0, pi]")
        object.__setattr__(self, "n_plus", np_)
        object.__setattr__(self, "n_minus", nm)

    @property
    def n_total(self) -> np.ndarray:
        return self.n_plus + self.n_minus

    def to_csv(self, path) -> None:
        write_csv(path, ["N_plus", "N_minus"], zip(self.n_plus.tolist(), self.n_minus.tolist()))

    @classmethod
    def from_csv(cls, path, theta: float | None = None) -> "ShotTable":
        n_plus, n_minus = read_csv_columns(path, ("N_plus", "N_minus"), dtype=int)
        return cls(n_plus=n_plus, n_minus=n_minus, theta=theta)

    @classmethod
    def sample(cls, dist: TwoModeDistribution, n_shots: int, seed: int = 0, theta: float | None = None) -> "ShotTable":
        """Draw shots from a two-mode grid; shot order is randomized."""
        if n_shots < 1:
            raise ValueError("n_shots must be positive")
        rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
        flat = dist.grid.ravel()
        counts = rng.multinomial(n_shots, flat / flat.sum())
        idx = np.repeat(np.arange(flat.size), counts)
        idx = rng.permutation(idx)
        n_plus, n_minus = np.unravel_index(idx, dist.grid.shape)
        return cls(n_plus=n_plus, n_minus=n_minus, theta=theta)


def empirical_distribution(shots: ShotTable, n_total: int) -> FixedNDistribution:
    """Relative J_z frequencies within the fixed-N subspace, sample size kept."""
    mask = shots.n_total == n_total
    count = int(mask.sum())
    if count == 0:
        raise ValueError(f"no shots with total occupation {n_total}")
    hist = np.bincount(shots.n_plus[mask], minlength=n_total + 1).astype(float)
    return FixedNDistribution(n_total=n_total, probs=hist / count, n_shots=count)


def _check_same_n(p: FixedNDistribution, q: FixedNDistribution):
    if p.n_total != q.n_total:
        raise ValueError("distributions live in different fixed-N subspaces")


def fidelity(p: FixedNDistribution, q: FixedNDistribution) -> float:
    """Squared Bhattacharyya overlap of two J_z distributions."""
    _check_same_n(p, q)
    return float(np.sum(np.sqrt(p.probs * q.probs)) ** 2)


def hellinger_sq(p: FixedNDistribution, q: FixedNDistribution) -> float:
    _check_same_n(p, q)
    return float(_hell2(p.probs, q.probs))


def _hell2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared Hellinger distance over the last axis; leading axes are a stack."""
    return 0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2, axis=-1)


def jxjy2_estimate(post_hom: CollectiveMoments):
    """<J_x^2 + J_y^2> inferred from the moments of the J_z histogram taken after pi/2 coupling.

    The beam-splitter pulse maps J_x onto the measured J_z; the state's
    exchange symmetry makes the J_y moment equal to the J_x one, hence the
    factor two.  The moments may be stacked.
    """
    return 2.0 * post_hom.jz2


@dataclass(frozen=True)
class GeneralizedSqueezing:
    linear: float
    db: float


def generalized_squeezing(var_jz: float, jxjy2: float, n_total: int) -> GeneralizedSqueezing:
    """Number-squeezing figure normalized by the transverse spin length.

    xi^2 = (N-1) Var(J_z) / (<J_x^2+J_y^2> - N/2); below one (negative dB)
    certifies entanglement-grade correlations.  A vanishing variance is
    reported with a -inf dB sentinel.
    """
    if var_jz < 0:
        raise ValueError("variance must be non-negative")
    denom = jxjy2 - n_total / 2.0
    if denom <= 0:
        raise ValueError("transverse spin length too short: <Jx^2+Jy^2> must exceed N/2")
    linear = (n_total - 1) * var_jz / denom
    db = 10.0 * math.log10(linear) if linear > 0 else float("-inf")
    return GeneralizedSqueezing(linear=float(linear), db=db)


@dataclass(frozen=True)
class FisherFit:
    """Fisher information extracted from one Hellinger-distance parabola."""

    fisher: float
    stderr: float
    intercept: float


def fit_fisher(diffs, d2, sigma=None, quartic: bool = False) -> FisherFit:
    """Fit d^2 = (F/8) x^2 + b, optionally minus (F^2/256 - F/192) x^4.

    ``diffs`` are signed angle differences theta1 - theta2; ``sigma`` are
    per-point uncertainties (unweighted if omitted).  The intercept b soaks
    up the finite-sampling bias of measured, resampled d^2 values, so a
    (0, d^2 > 0) self-comparison point is legitimate input.  F is clamped to
    zero from below; the uncertainty is left untouched by the clamp.

    The fit is solved exactly, without a start point: b is linear and is
    eliminated by weighted centering, which leaves a cost that is quadratic
    (closed form) or quartic in F.  In the quartic case every stationary
    point is a real root of a cubic and the one of least cost is taken.
    Raises ``stats.FitError`` when the data do not determine F.
    """
    x = np.asarray(diffs, dtype=float)
    y = np.asarray(d2, dtype=float)
    if len(x) != len(y) or len(x) < 3:
        raise ValueError("need at least three (diff, d2) points")
    w = np.ones_like(y) if sigma is None else np.asarray(sigma, dtype=float) ** -2.0
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
        raise stats.FitError("non-finite Fisher fit input")

    def centered(v):
        return v - math.fsum(w * v) / math.fsum(w)

    # model(F) = F u + F^2 v + b
    u = x**2 / 8.0 + (x**4 / 192.0 if quartic else 0.0)
    v = -(x**4) / 256.0 if quartic else np.zeros_like(x)
    uc, vc, yc = centered(u), centered(v), centered(y)

    def dot(a, c):
        return math.fsum(w * a * c)

    suu, suv, svv, syu, syv = dot(uc, uc), dot(uc, vc), dot(vc, vc), dot(yc, uc), dot(yc, vc)
    if suu <= 0.0:
        raise stats.FitError("degenerate Fisher fit: the differences do not determine F")
    if not quartic:
        f = syu / suu
    else:
        # d cost / dF = 0:  2 Svv F^3 + 3 Suv F^2 + (Suu - 2 Syv) F - Syu = 0
        coef = np.array([2.0 * svv, 3.0 * suv, suu - 2.0 * syv, -syu])
        cand = []
        for root in np.roots(coef):
            if abs(root.imag) > 1e-6 * max(1.0, abs(root.real)):
                continue
            f = float(root.real)
            for _ in range(3):  # Newton polish, so F does not hinge on LAPACK round-off
                slope = np.polyval(np.polyder(coef), f)
                step = np.polyval(coef, f) / slope if slope else 0.0
                if not abs(step) <= 1e-8 * max(1.0, abs(f)):
                    break
                f -= step
            cand.append((math.fsum(w * (f * uc + f * f * vc - yc) ** 2), f))
        if not cand:
            raise stats.FitError("quartic Fisher fit: no real stationary point")
        f = min(cand)[1]
    b = math.fsum(w * (y - f * u - f * f * v)) / math.fsum(w)
    chi2 = math.fsum(w * (f * u + f * f * v + b - y) ** 2)
    # covariance of (F, b) from the analytic Jacobian; the F entry of the
    # inverse normal matrix is 1 / sum w (dm/dF - weighted mean)^2
    grad = uc + 2.0 * f * vc
    info = dot(grad, grad)
    stderr = math.sqrt(chi2 / (len(y) - 2) / info) if info > 0 else float("nan")
    return FisherFit(fisher=max(float(f), 0.0), stderr=stderr, intercept=float(b))


def aggregate_fisher(fits) -> tuple[float, float]:
    """Weighted mean of per-angle Fisher values with w = (F / dF)^2.

    Entries whose uncertainty is non-finite or non-positive carry no usable
    weight and are skipped.
    """
    fs = np.array([f.fisher for f in fits], dtype=float)
    dfs = np.array([f.stderr for f in fits], dtype=float)
    ok = np.isfinite(dfs) & (dfs > 0)
    if not ok.any():
        raise ValueError("no aggregatable entries")
    fs, dfs = fs[ok], dfs[ok]
    w = (fs / dfs) ** 2
    if w.sum() <= 0:
        raise ValueError("all entries have zero weight")
    fbar = float(np.sum(w * fs) / np.sum(w))
    dfbar = float(np.sqrt(np.sum((w * dfs) ** 2)) / np.sum(w))
    return fbar, dfbar


@dataclass(frozen=True)
class ScalingFit:
    """Fit of F_N = r (N^s / 2 + N) across atom numbers."""

    r: float
    s: float
    r_err: float
    s_err: float

    def predict(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        return self.r * (n**self.s / 2.0 + n)


# Exponent range searched by ``fit_scaling`` and the number of grid points
# (spacing 0.05) on which sign changes of the cost's slope are bracketed.
SCALING_EXPONENT_RANGE = (-2.0, 6.0)
_SCALING_GRID_POINTS = 161


def _bisect(f, a, b):
    """A point x in [a, b] where f turns from <= 0 to > 0, to within 1e-15 + 4 eps |x|."""
    for _ in range(200):  # 46 halvings reach the tolerance from a grid step of 0.05
        mid = 0.5 * (a + b)
        if b - a <= 1e-15 + 4.0 * np.finfo(float).eps * abs(mid):
            return mid
        value = f(mid)
        if math.isnan(value):
            break
        a, b = (mid, b) if value <= 0.0 else (a, mid)
    raise stats.FitError("scaling fit: root search did not converge")


def fit_scaling(n_values, fbar, dfbar=None) -> ScalingFit:
    """Weighted fit of the aggregated Fisher information versus atom number.

    The amplitude r is linear for a given exponent s and is eliminated, so
    the fit reduces to minimizing a cost in s alone.  Its minima are
    bracketed by sign changes of the slope on a grid over
    ``SCALING_EXPONENT_RANGE`` and bisected on compensated sums, which keeps
    s reproducible to round-off; of several minima the one of least cost is
    taken.  The covariance comes from the analytic Jacobian scaled by the
    reduced chi-square.  Raises ``stats.FitError`` when no minimum is
    bracketed, a bisection fails, or the cost at an end of the range is lower.
    """
    n = np.asarray(n_values, dtype=float)
    f = np.asarray(fbar, dtype=float)
    if len(n) < 3:
        raise ValueError("need at least three atom numbers")
    w = np.ones_like(f) if dfbar is None else np.asarray(dfbar, dtype=float) ** -2.0
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(w)) and np.all(n > 0)):
        raise stats.FitError("scaling fit needs finite values at positive atom numbers")
    log_n = np.log(n)

    def profile(s):
        """Optimal r, its residuals f - r h and the model's s-derivative h_s."""
        h = n**s / 2.0 + n
        r = math.fsum(w * h * f) / math.fsum(w * h * h)
        return r, f - r * h, n**s * log_n / 2.0

    def slope(s):
        """Half the derivative of the profiled cost with respect to s."""
        r, resid, h_s = profile(s)
        return -r * math.fsum(w * h_s * resid)

    def cost(s):
        return math.fsum(w * profile(s)[1] ** 2)

    grid = np.linspace(*SCALING_EXPONENT_RANGE, _SCALING_GRID_POINTS)
    d = [slope(t) for t in grid]
    minima = []
    for i in range(len(grid) - 1):
        if d[i] <= 0.0 < d[i + 1]:  # the cost stops falling and starts rising
            minima.append(_bisect(slope, grid[i], grid[i + 1]))
    if not minima:
        raise stats.FitError(f"scaling fit: no cost minimum bracketed in s over {SCALING_EXPONENT_RANGE}")
    s = min(minima, key=cost)
    if min(cost(grid[0]), cost(grid[-1])) < cost(s):
        raise stats.FitError(f"scaling fit: the optimum exponent lies outside {SCALING_EXPONENT_RANGE}")
    r, resid, h_s = profile(s)
    jr, js = n**s / 2.0 + n, r * h_s
    jtj = np.array([[math.fsum(w * jr * jr), math.fsum(w * jr * js)],
                    [math.fsum(w * jr * js), math.fsum(w * js * js)]])
    det = jtj[0, 0] * jtj[1, 1] - jtj[0, 1] ** 2
    if not det > 0.0:
        raise stats.FitError("degenerate scaling fit: singular normal matrix")
    chi2_red = math.fsum(w * resid**2) / (len(f) - 2)
    cov = np.array([[jtj[1, 1], -jtj[0, 1]], [-jtj[0, 1], jtj[0, 0]]]) / det * chi2_red
    return ScalingFit(
        r=float(r),
        s=float(s),
        r_err=float(math.sqrt(cov[0, 0])),
        s_err=float(math.sqrt(cov[1, 1])),
    )


@dataclass
class FisherEstimate:
    """Full statistical-distance analysis: per-angle fits, per-N averages, scaling."""

    per_theta: dict = field(default_factory=dict)  # N -> {theta1: FisherFit}
    aggregated: dict = field(default_factory=dict)  # N -> (fbar, dfbar)
    scaling: ScalingFit | None = None
    quartic: bool = True
    exclusions: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "quartic": self.quartic,
            "exclusions": {str(k): list(v) for k, v in self.exclusions.items()},
            "per_theta": {
                str(n): {
                    f"{t:.6g}": {"F": e.fisher, "F_err": e.stderr, "intercept": e.intercept}
                    for t, e in sorted(fits.items())
                }
                for n, fits in sorted(self.per_theta.items())
            },
            "aggregated": {str(n): {"F": v[0], "F_err": v[1]} for n, v in sorted(self.aggregated.items())},
            "scaling": None if self.scaling is None else asdict(self.scaling),
        }


def _angles_for(n_total: int, angles, exclusions) -> list[float]:
    dropped = {stats.angle_key(d) for d in exclusions.get(n_total, ())} if exclusions else set()
    return [a for a in angles if stats.angle_key(a) not in dropped]


def _run_pipeline(per_n, quartic, exclusions) -> FisherEstimate:
    """Fit row i of each symmetric d^2 matrix against x = angles[i] - angles; average per N; fit the N-scaling.

    ``per_n[N] = (angles, d2, spread)``, ``spread`` None for exact input.  A
    spread of at most 1e-12 is unresolved (e.g. d^2 pinned at 0 or 1 when the
    supports coincide as deltas or are disjoint); such a point takes the
    smallest resolved spread of its row, so it cannot outweigh the measured
    points.  A row with no point resolved is fitted unweighted.
    """
    est = FisherEstimate(quartic=quartic, exclusions=dict(exclusions) if exclusions else {})
    for n_total in sorted(per_n):
        angles, d2, spread = per_n[n_total]
        fits = {}
        for i, t1 in enumerate(angles):
            resolved = [] if spread is None else spread[i][spread[i] > 1e-12]
            sigma = np.maximum(spread[i], resolved.min()) if len(resolved) else None
            fits[t1] = fit_fisher(t1 - np.asarray(angles), d2[i], sigma=sigma, quartic=quartic)
        est.per_theta[n_total] = fits
        est.aggregated[n_total] = aggregate_fisher(fits.values())
    if len(est.aggregated) >= 3:  # filled in ascending N
        fbar, dfbar = zip(*est.aggregated.values())
        est.scaling = fit_scaling(list(est.aggregated), fbar, dfbar)
    return est


def fisher_from_distributions(
    dists: Mapping[int, Mapping[float, np.ndarray]],
    angles=SMALL_ROTATION_ANGLES,
    quartic: bool = True,
    exclusions: Mapping[int, tuple] | None = None,
) -> FisherEstimate:
    """Run the full Hellinger pipeline on exact per-(N, theta) J_z distributions.

    ``dists[N][theta]`` is a probability vector over J_z at fixed N.  Every
    probe angle serves once as the reference theta1 and is compared against
    the whole grid including itself; per-angle Fisher values are averaged
    with w = (F/dF)^2 and the N-scaling law fitted to the averages.
    """
    per_n = {}
    for n, by_theta in dists.items():
        kept = _angles_for(n, angles, exclusions)
        p = np.array([by_theta[t] for t in kept])
        per_n[n] = (kept, _hell2(p[:, None], p[None]), None)
    return _run_pipeline(per_n, quartic, exclusions)


def resampled_hellinger(p: FixedNDistribution, q: FixedNDistribution, plan: stats.ResamplePlan) -> tuple[float, float]:
    """Mean and spread of d^2 over resamples of ``p`` and ``q``, drawn as :func:`fisher_from_shots` draws theta = 0.

    The mean is biased upward by sampling noise (strictly positive even for
    p = q); downstream fits absorb that through their free intercept.
    """
    _check_same_n(p, q)
    d2 = _hell2(stats.resample_histogram(p, plan, 0.0, side=0), stats.resample_histogram(q, plan, 0.0, side=1))
    return float(d2.mean()), float(d2.std(ddof=1)) if len(d2) > 1 else 0.0


def fisher_from_shots(
    tables: Mapping[float, ShotTable],
    n_values,
    plan: stats.ResamplePlan,
    quartic: bool = True,
    exclusions: Mapping[int, tuple] | None = None,
) -> FisherEstimate:
    """Sampled-data pipeline: resampled mean d^2 per angle pair, spread as weight.

    Each histogram kept at N is resampled twice by ``stats.resample_histogram``
    at its angle, once as the first side of a pair and once as the second; the
    first side is the stack ``analyze`` draws of that histogram.  The pair
    theta_i <= theta_j takes the mean and spread of d^2 between the first stack
    of i and the second of j, mirrored to (j, i) so the input to the parabola
    fits is symmetric like the exact pipeline's.
    """
    per_n = {}
    for n in n_values:
        kept = _angles_for(n, sorted(tables), exclusions)
        hists = {t: empirical_distribution(tables[t], n) for t in kept}
        first, second = (np.array([stats.resample_histogram(hists[t], plan, t, side) for t in kept]) for side in (0, 1))
        d2, spread = np.zeros((2, len(kept), len(kept)))
        for i in range(len(kept)):
            s = _hell2(first[i], second[i:])  # theta_i against every theta_j >= theta_i
            d2[i, i:] = d2[i:, i] = s.mean(axis=1)
            spread[i, i:] = spread[i:, i] = s.std(axis=1, ddof=1) if plan.n_samples > 1 else 0.0
        per_n[n] = (kept, d2, spread)
    return _run_pipeline(per_n, quartic, exclusions)
