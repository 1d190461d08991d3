"""Per-mode camera-count signals: synthesis, calibration, and quantization.

The detector sees one scalar fluorescence signal per mode and shot.  A signal
is modelled as

    s = n * g + b + drift(shot) + kappa * s0 + Gaussian(0, sigma_n * g)

with ``g`` counts per atom, ``b`` the zero-atom offset, a slow drift of the
background level, optical crosstalk proportional to the companion-mode signal
``s0``, and a per-occupation Gaussian width sigma_n^2 = sigma0^2 + c1^2 * n in
atom units.  :func:`calibrate` inverts this chain on each side mode in the
order crosstalk -> drift -> fit of the law to the peak histogram, after
which signals quantize to the nearest-peak integer occupation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stats
from .channel import DEFAULT_BLUR_MINUS, DEFAULT_BLUR_PLUS, BlurLaw
from .metrology import read_csv_columns


class CalibrationError(ValueError):
    """Signal data insufficient or inconsistent for the requested correction."""


@dataclass(frozen=True)
class DetectorCalibration(BlurLaw):
    """Result of the histogram fit for one mode: its blur law, with the fit's errors and peak heights.

    Widths are kept in atom units; peak n sits at ``b + n * g`` counts and has
    rms width ``sigma(n) * g`` counts.  Quantization intervals are the
    midpoints between adjacent peaks, extended indefinitely beyond the last
    fitted peak by the even spacing.  ``peak_heights`` are the fitted events of each peak.
    """

    n_max_fit: int = 12
    peak_heights: np.ndarray | None = None
    g_err: float = float("nan")
    b_err: float = float("nan")
    sigma0_err: float = float("nan")
    c1_err: float = float("nan")

    def to_json(self) -> dict:
        """The mode object of ``calibration.json``, a missing or non-finite value as null; ``blur`` holds the law."""
        out = {k: getattr(self, k) for k in ("g", "b", "sigma0", "c1", "n_max_fit")}
        for k in ("g_err", "b_err", "sigma0_err", "c1_err", "peak_heights"):
            v = np.asarray(getattr(self, k), dtype=float)  # None reads as NaN
            out[k] = np.where(np.isfinite(v), v, None).tolist()
        return {**out, "detection_fidelity_12": detection_fidelity(12, self), "blur": super().to_json()}


# Reference calibrations of the modelled experiment: the channel's blur laws
# with an arbitrary offset b (only differences of peak positions are physical).
DEFAULT_CALIBRATION_MINUS = DetectorCalibration(**{**vars(DEFAULT_BLUR_MINUS), "b": 250.0})
DEFAULT_CALIBRATION_PLUS = DetectorCalibration(**{**vars(DEFAULT_BLUR_PLUS), "b": 250.0})
DEFAULT_CROSSTALK = {"minus": 1.48e-3, "plus": 1.76e-3}


@dataclass(frozen=True)
class SignalTable:
    """Raw per-shot scalar signals of both side modes.

    ``s_zero`` is the companion signal of the central mode, needed only as
    the crosstalk regressor.  Acquisition indices must increase strictly.
    The corrections act on one mode's array at a time.
    """

    shot_index: np.ndarray
    s_minus: np.ndarray
    s_zero: np.ndarray
    s_plus: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.shot_index)
        if len(idx) > 1 and not np.all(np.diff(idx) > 0):
            raise ValueError("acquisition indices must be strictly increasing")
        for name in ("s_minus", "s_zero", "s_plus"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")

    @classmethod
    def from_csv(cls, path) -> "SignalTable":
        shot_index, s_minus, s_zero, s_plus = read_csv_columns(path, ("shot_index", "s_minus", "s_zero", "s_plus"))
        bad = shot_index[~(np.isfinite(shot_index) & (shot_index == np.floor(shot_index)))]
        if len(bad):
            raise ValueError(f"{path}: column shot_index holds {float(bad[0])}, not an integer")
        return cls(shot_index=shot_index.astype(int), s_minus=s_minus, s_zero=s_zero, s_plus=s_plus)


@dataclass(frozen=True)
class DriftSpec:
    """Slow background-level trajectory, peak-to-peak bounded.

    The default period puts two full cycles across a 26712-shot run, slow
    enough that a 400-shot correction window sees a nearly constant level.
    """

    peak_to_peak: float = 370.0
    period: float = 13356.0

    def offsets(self, indices: np.ndarray) -> np.ndarray:
        i = np.asarray(indices, dtype=float)
        return 0.5 * self.peak_to_peak * np.sin(2 * np.pi * i / self.period)


# The coordinates of the signal stream under the master seed (stats.stream_key): four, where a shot table has
# one and a resample stack three.
SIGNAL_STREAM = (0, 0, 0, 1)
# Shot-to-shot mean and spread of the central-mode signal, the crosstalk source.
COMPANION_MEAN = 2.0e5
COMPANION_SPREAD = 3.0e4


def synthesize_signals(
    shots,
    drift: DriftSpec = DriftSpec(),
    crosstalk: dict | None = None,
    seed: int = 0,
) -> SignalTable:
    """Forward model: integer occupations to raw camera counts.

    ``shots`` needs ``n_minus`` and ``n_plus`` integer arrays.  This is the
    inverse of the calibration chain and exists for round-trip validation;
    real data enters through :class:`SignalTable` CSV files instead.
    """
    crosstalk = crosstalk if crosstalk is not None else dict(DEFAULT_CROSSTALK)
    rng = np.random.default_rng(np.random.Philox(key=stats.stream_key(seed, *SIGNAL_STREAM)))
    m = len(shots.n_minus)
    idx = np.arange(m)
    s_zero = rng.normal(COMPANION_MEAN, COMPANION_SPREAD, size=m)
    offsets = drift.offsets(idx)

    def one_mode(n, calib, kappa):
        n = np.asarray(n)
        noise = rng.normal(0.0, calib.sigma(n) * calib.g)
        return calib.b + n * calib.g + offsets + kappa * s_zero + noise

    return SignalTable(
        shot_index=idx,
        s_minus=one_mode(shots.n_minus, DEFAULT_CALIBRATION_MINUS, crosstalk["minus"]),
        s_zero=s_zero,
        s_plus=one_mode(shots.n_plus, DEFAULT_CALIBRATION_PLUS, crosstalk["plus"]),
    )


def _peaks(x: np.ndarray, distance: int) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima of x at least ``distance`` bins apart, and their prominences.

    The peaks of ``scipy.signal.find_peaks(x, distance=distance,
    prominence=0)``, in the same order: a flat top counts once, at its middle;
    of two maxima closer than ``distance`` the lower goes (the order of
    ``np.argsort`` breaks ties); a prominence is the height above the higher
    of the lowest points on either side before the signal rises above the peak.
    """
    edge = np.flatnonzero(np.diff(x)) + 1
    start = np.concatenate(([0], edge))
    end = np.concatenate((edge, [len(x)])) - 1
    level = x[start]  # one entry per flat run; neighbouring runs differ
    top = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = (start[top] + end[top]) // 2

    keep = np.ones(len(peaks), dtype=bool)
    for j in np.argsort(x[peaks])[::-1]:
        if keep[j]:
            near = np.abs(peaks - peaks[j]) < distance
            near[j] = False
            keep[near] = False
    peaks = peaks[keep]

    xx = np.append(x, np.inf)  # a higher bin past the last for every peak, and a bound reduceat takes
    higher = xx > x[peaks, None]  # one row per peak
    right = higher & (np.arange(len(xx)) > peaks[:, None])
    left = (higher & ~right)[:, ::-1]  # reversed, so argmax finds the nearest higher bin here as on the right
    left_start = np.where(left.any(axis=1), len(xx) - left.argmax(axis=1), 0)
    mins = np.minimum.reduceat(xx, np.column_stack([left_start, peaks + 1, peaks, right.argmax(axis=1)]).ravel())
    return peaks, x[peaks] - np.maximum(mins[0::4], mins[2::4])  # minima over [left_start, p] and [p, next higher bin)


def _order_stats(values: np.ndarray, percents=None) -> np.ndarray:
    """np.percentile(values, percents), or np.median(values) as a 1-element array, bit for bit.

    Both partition at numpy's points, so NaN (any NaN gives NaN) and the sign
    of a zero agree too, without the numpy.ma import numpy's two make.
    """
    n = len(values)
    if percents is None:  # the middle two summed from +0.0, as np.mean sums
        lo, hi, kth = [(n - 1) // 2], [n // 2], {-1}
    else:  # linear; from v = n - 1 on numpy takes index -1 with weight v + 1
        v = (n - 1) * (np.asarray(percents, dtype=float) / 100)
        lo = np.where(v >= n - 1, -1, np.floor(v)).astype(int)
        hi, kth = np.where(lo < 0, -1, lo + 1), {0, -1}
    part = np.partition(np.asarray(values, dtype=float), sorted(kth.union(lo, hi)))
    a, b = part[lo], part[hi]
    if percents is None:
        out = (0.0 + a + b) / 2
    else:
        t = v - lo
        out = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    return np.where(np.isnan(part[-1]), np.nan, out)


def _coarse_scale(values: np.ndarray) -> tuple[float, float]:
    """First-pass (g, b): peak spacing and zero-peak location of the histogram.

    A candidate peak must clear a Poisson-aware prominence floor, five
    standard errors of its smoothed bin count, so counting fluctuations on
    top of a broad cluster never register as structure.  The median spacing
    of the survivors estimates g; the lowest-signal survivor estimates b.
    """
    lo, hi = _order_stats(values, [0.1, 99.9])
    span = hi - lo
    if span <= 0:
        raise CalibrationError("signal histogram has no spread")
    nbins = max(200, min(2000, int(len(values) / 15)))
    counts, edges = np.histogram(values, bins=nbins, range=(lo - 0.02 * span, hi + 0.02 * span))
    centers = 0.5 * (edges[:-1] + edges[1:])
    binw = edges[1] - edges[0]
    smooth = np.convolve(counts, np.ones(3) / 3.0, mode="same")
    peaks, prominence = _peaks(smooth, distance=max(3, nbins // 60))
    floor = np.maximum(5.0 * np.sqrt(smooth[peaks] / 3.0 + 1.0), 0.02 * smooth.max())
    peaks = peaks[prominence >= floor]
    if len(peaks) < 2:
        raise CalibrationError("histogram does not resolve at least two peaks")
    g0 = float(_order_stats(np.diff(peaks))[0] * binw)
    b0 = float(centers[peaks[0]])
    if g0 <= 0:
        raise CalibrationError("non-positive coarse peak spacing")
    return g0, b0


def _zero_cluster_mask(values: np.ndarray, g0: float, b0: float) -> np.ndarray:
    return values < b0 + 0.5 * g0


def _fit_cluster_slope(x: np.ndarray, y: np.ndarray) -> float:
    # one clipping pass guards against stray occupied shots inside the window
    for _ in range(2):
        kappa, icept = np.polyfit(x, y, 1)
        resid = y - (kappa * x + icept)
        keep = np.abs(resid) < 3 * resid.std()
        if keep.all():
            break
        x, y = x[keep], y[keep]
    return float(kappa)


def correct_crosstalk(s: np.ndarray, s_zero: np.ndarray) -> tuple[np.ndarray, float]:
    """Remove the companion-signal leakage from one side mode's signal; returns it and kappa.

    Fits a line through (s0, s) over the zero-atom cluster and subtracts
    kappa * s0 everywhere; the intercept (the zero-atom level) is left in
    place for the later fits.  Selecting the cluster on the raw signal
    truncates the highest-crosstalk shots and biases the slope low, so a
    second pass rebuilds the mask from the once-corrected signal, which is
    independent of the regressor, and refits on the raw values.
    """
    g0, b0 = _coarse_scale(s)
    mask = _zero_cluster_mask(s, g0, b0)
    if mask.sum() < 100:
        raise CalibrationError(f"only {int(mask.sum())} zero-atom shots; need >= 100")
    kappa = _fit_cluster_slope(s_zero[mask], s[mask])
    resel = s - kappa * (s_zero - s_zero[mask].mean())
    g1, b1 = _coarse_scale(resel)
    mask = _zero_cluster_mask(resel, g1, b1)
    if mask.sum() >= 100:
        kappa = _fit_cluster_slope(s_zero[mask], s[mask])
    return s - kappa * s_zero, float(kappa)


DRIFT_WINDOW = 400  # shots per drift-correction window


@dataclass(frozen=True)
class DriftCorrection:
    starts: np.ndarray
    centers: np.ndarray
    corrections: np.ndarray
    center_stderr: np.ndarray


def correct_drift(s: np.ndarray) -> tuple[np.ndarray, DriftCorrection]:
    """Track the zero-atom peak of one mode's signal across acquisition windows and level it.

    Each window's zero-atom cluster is summarised by a Gaussian (its fitted
    center is the clipped sample mean); the median center across windows is
    taken as the reference level so that, absent drift, corrections scatter
    around zero and the global offset b survives for the histogram fit.
    """
    if len(s) < DRIFT_WINDOW:
        raise CalibrationError(f"need at least {DRIFT_WINDOW} shots, got {len(s)}")
    starts = np.arange(0, len(s), DRIFT_WINDOW)
    g0, b0 = _coarse_scale(s)
    centers, errs = [], []
    for k, start in enumerate(starts):
        chunk = s[start : start + DRIFT_WINDOW]
        zeros = chunk[_zero_cluster_mask(chunk, g0, b0)]
        if len(zeros) < 10:
            raise CalibrationError(f"window {k} has no resolvable zero-atom peak")
        mu, sd = zeros.mean(), zeros.std()
        clipped = zeros[np.abs(zeros - mu) < 3 * sd] if sd > 0 else zeros
        centers.append(clipped.mean())
        errs.append(clipped.std(ddof=1) / math.sqrt(len(clipped)) if len(clipped) > 1 else 0.0)
    centers = np.array(centers)
    corrections = centers - _order_stats(centers)[0]
    return s - np.repeat(corrections, DRIFT_WINDOW)[: len(s)], DriftCorrection(
        starts=starts, centers=centers, corrections=corrections, center_stderr=np.array(errs))


def _comb_histogram(values: np.ndarray, g: float, b: float, n_max_fit: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin edges and counts from 3/4 of a spacing below peak 0 to 3/4 above the last, 12 bins per peak."""
    lo = b - 0.75 * g
    hi = b + (n_max_fit + 0.75) * g
    # 12 bins per peak: (hi - lo) / (g / 12) without its round-off
    counts, edges = np.histogram(values[(values >= lo) & (values <= hi)], bins=12 * n_max_fit + 18, range=(lo, hi))
    return edges, counts


def _projected_comb(p, edges, y, weights, n_max_fit):
    """The comb S h, its Jacobian d(S h)/dp, and its heights h >= 0 fitted to ``y`` at ``weights`` W.

    p = (g, b, sigma0^2, c1^2), and S holds each bin's peak masses (:meth:`channel.BlurLaw.masses`) under the trial
    law BlurLaw(sqrt(sigma0^2), sqrt(c1^2), g, b): peak n at b + n g with rms sigma_n g, sigma_n^2 = sigma0^2 + c1^2 n.
    d(S h) = dS h + S dh, with dh = (A^T A)^-1 (dS^T W (y - S h) - A^T sqrt(W) dS h) and A = sqrt(W) S over the
    positive heights (Golub & Pereyra).
    dS is the difference over each bin's edges of phi(z) dz/dp, with phi the normal density: dz/db = -1 / (sigma_n g),
    dz/dg = (n + z sigma_n) dz/db, dz/d(sigma0^2) = -z / (2 sigma_n^2) and dz/d(c1^2) = n dz/d(sigma0^2).
    """
    n = np.arange(n_max_fit + 1)
    law = BlurLaw(math.sqrt(p[2]), math.sqrt(p[3]), p[0], p[1])
    sw, sigmas = np.sqrt(weights), law.sigma(n)
    s, z = law.masses(edges, n_max_fit + 1)
    h = stats.nnls(sw[:, None] * s, sw * y)
    d_b = -np.exp(-0.5 * z**2) / (math.sqrt(2 * math.pi) * sigmas * p[0])  # phi(z) dz/db at each edge
    d_sq = 0.5 * d_b * z * p[0] / sigmas
    ds = np.diff([d_b * (n + z * sigmas), d_b, d_sq, d_sq * n], axis=1)  # dS/dp, one (bin, peak) matrix per p
    ds_h = (ds @ h).T
    ds_resid = (weights * (y - s @ h) @ ds).T
    a = sw[:, None] * s[:, h > 0]
    dh = np.zeros_like(ds_resid)
    dh[h > 0] = np.linalg.solve(a.T @ a, ds_resid[h > 0] - a.T @ (sw[:, None] * ds_h))
    return s @ h, ds_h + s @ dh, h


def fit_histogram(values: np.ndarray) -> DetectorCalibration:
    """Fit the detector law to a signal histogram: the comb of per-occupation Gaussian peaks, integrated over each bin.

    Peak n sits at b + n g with rms sigma_n g, sigma_n^2 = sigma0^2 + c1^2 n, and each bin holds the peak's mass
    between its edges, so the bin width biases no width (as Sheppard's correction would have to undo at bin
    centres).  Bins are weighted by the inverse of the number of detection events in the peak they belong to, so
    sparse high-occupation peaks are not drowned out.  The peak heights enter the comb linearly and are projected out
    (variable projection; Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): for each trial (g, b, sigma0^2,
    c1^2) they are the weighted non-negative least-squares solution, so one search covers the four law parameters.
    The search and the covariance use the exact Jacobian of this projected model (Kaufman, BIT 15, 49 (1975)).  The
    squared widths stay regular where c1 reaches 0; sigma0, c1 and their errors follow by the delta method.
    """
    values = np.asarray(values, dtype=float)
    g0, b0 = _coarse_scale(values)
    occ = np.maximum(0, np.round((values - b0) / g0)).astype(int)
    counts_per_peak = np.bincount(occ)
    eligible = np.nonzero(counts_per_peak >= 25)[0]
    n_max_fit = max(2, min(int(eligible.max()) if len(eligible) else 1, 30))

    edges, y = _comb_histogram(values, g0, b0, n_max_fit)
    x = 0.5 * (edges[:-1] + edges[1:])

    # inverse-per-peak-event weights for each bin
    bin_peak = np.clip(np.round((x - b0) / g0), 0, n_max_fit).astype(int)
    events = np.array([max(counts_per_peak[n] if n < len(counts_per_peak) else 0, 1) for n in range(n_max_fit + 1)])
    weights = 1.0 / events[bin_peak]

    # (g, b, sigma0^2, c1^2) from sigma0 = 0.15 and c1 = 0.02; sigma0 stays in [0.02, 1.5], c1 in [0, 1.5]
    lower, upper = [0.5 * g0, b0 - g0, 0.02**2, 0.0], [1.5 * g0, b0 + g0, 1.5**2, 1.5**2]
    p, cov = stats.weighted_least_squares(lambda _, pp: _projected_comb(pp, edges, y, weights, n_max_fit)[:2],
                                          x, y, [g0, b0, 0.15**2, 0.02**2], weights=weights, bounds=(lower, upper))
    # the n_max_fit + 1 projected heights were fitted too: take them off the degrees of freedom
    err = np.sqrt(np.diag(cov) * (len(y) - len(p)) / (len(y) - len(p) - (n_max_fit + 1)))
    sigma0, c1 = math.sqrt(p[2]), math.sqrt(p[3])
    return DetectorCalibration(
        g=float(p[0]), b=float(p[1]), sigma0=sigma0, c1=c1, n_max_fit=n_max_fit,
        peak_heights=_projected_comb(p, edges, y, weights, n_max_fit)[2], g_err=float(err[0]), b_err=float(err[1]),
        # delta method, err(sqrt v) = err(v) / (2 sqrt v); at c1 = 0, c1 is known to within sqrt(err(c1^2))
        sigma0_err=float(err[2] / (2 * sigma0)), c1_err=float(err[3] / (2 * c1) if c1 > 0 else math.sqrt(err[3])))


def calibrate(raw: SignalTable) -> dict:
    """Each side mode's chain, ``{mode: (signal, kappa, drift, calibration)}``, or a CalibrationError or
    ``stats.FitError`` naming the mode."""
    chains = {}
    for mode in ("minus", "plus"):
        try:
            signal, kappa = correct_crosstalk(getattr(raw, f"s_{mode}"), raw.s_zero)
            signal, drift = correct_drift(signal)
            chains[mode] = signal, kappa, drift, fit_histogram(signal)
        except (CalibrationError, stats.FitError) as exc:
            raise type(exc)(f"mode {mode}: {exc}") from None
    return chains


def histogram_table(values: np.ndarray, calib: DetectorCalibration):
    """Binned signal histogram and each bin's content under the fitted comb, for plotting."""
    edges, counts = _comb_histogram(np.asarray(values, dtype=float), calib.g, calib.b, calib.n_max_fit)
    return 0.5 * (edges[:-1] + edges[1:]), counts, calib.masses(edges, calib.n_max_fit + 1)[0] @ calib.peak_heights


def quantize_mode(values: np.ndarray, calib: DetectorCalibration) -> np.ndarray:
    """Nearest-peak integer occupations; exact midpoints break to the lower peak."""
    x = (np.asarray(values, dtype=float) - calib.b) / calib.g
    return np.maximum(0, np.ceil(x - 0.5)).astype(int)


def detection_fidelity(n: int, calib: BlurLaw) -> float:
    """Chance of counting exactly n atoms when n are present: P(n | n) of the channel's blur matrix.

    The matrix runs to count n + 1, so only the interval below count 0 is
    open, as :func:`quantize_mode` clamps every signal below the first
    midpoint to 0.
    """
    if n < 0:
        raise ValueError("occupation must be non-negative")
    return float(calib.matrix(n + 1)[n, n])
