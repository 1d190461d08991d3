"""Independent reference computations and output checks for the benchmark.

Nothing here imports homsim.  Each quantity is derived from its definition
by a route of its own: moments straight from shot counts, the arcsine law
from exact integer binomials, the spin-variance boundary from a dense scan
of lambda_min((Jz - z)^2 - mu Jx), the scaling exponent from a brute-force
scan of the weighted cost, the rotation kernel from a matrix exponential,
and the camera signals from the forward model in the detector docstring.
A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize_scalar
from scipy.special import ndtr

# ---------------------------------------------------------------------------
# shot tables and their moments


def read_shots(path) -> tuple[np.ndarray, np.ndarray]:
    """(n_plus, n_minus) integer columns of an ``N_plus,N_minus`` CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    return data[:, 0], data[:, 1]


def arcsine(n_total: int) -> np.ndarray:
    """Twin beams |n, n> after a balanced coupler: P(n_plus = 2k) from integer binomials."""
    n = n_total // 2
    out = np.zeros(n_total + 1)
    for k in range(n + 1):
        out[2 * k] = math.comb(2 * k, k) * math.comb(2 * n - 2 * k, n - k) / 4**n
    return out


def moments(n_plus: np.ndarray, n_minus: np.ndarray, n_total: int) -> dict:
    """Fixed-N moments of one shot table, from its count histogram.

    ``zero_var`` is exact: it is true only when every shot of this N has the
    same n_plus, which is the one case in which Var(Jz) vanishes.
    """
    sel = n_plus[(n_plus + n_minus) == n_total]
    if len(sel) == 0:
        raise ValueError(f"no shots at N={n_total}")
    counts = np.bincount(sel, minlength=n_total + 1).astype(float)
    p = counts / len(sel)
    jz = np.arange(n_total + 1) - n_total / 2.0
    sign = np.where((n_total - np.arange(n_total + 1)) % 2 == 0, 1.0, -1.0)
    mean = math.fsum(p * jz)
    jz2 = math.fsum(p * jz * jz)
    return {
        "shots": len(sel),
        "probs": p,
        "mean_jz": mean,
        "jz2": jz2,
        "var_jz": jz2 - mean * mean,
        "zero_var": bool(np.all(sel == sel[0])),
        "parity": math.fsum(p * sign),
        "jxjy2": 2.0 * jz2,  # after pi/2, Jx is measured and Jy carries the same moment
    }


def fidelity(p: np.ndarray, q: np.ndarray) -> float:
    return math.fsum(np.sqrt(p * q)) ** 2


# ---------------------------------------------------------------------------
# exact minimal-variance boundary of spin-j states


def _spin_ops(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    jx = np.zeros((two_j + 1, two_j + 1))
    off = 0.5 * np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jx[np.arange(two_j), np.arange(1, two_j + 1)] = off
    jx[np.arange(1, two_j + 1), np.arange(two_j)] = off
    return m, jx


def _lam_min(m: np.ndarray, jx: np.ndarray, mu: float, z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    mats = np.broadcast_to(-mu * jx, (len(z),) + jx.shape).copy()
    idx = np.arange(len(m))
    mats[:, idx, idx] = (m[None, :] - z[:, None]) ** 2
    return np.linalg.eigvalsh(mats)[:, 0]


def min_energy(two_j: int, mu: float, z_points: int = 257) -> float:
    """min over states of Var(Jz) - mu <Jx> = min_z lambda_min((Jz - z)^2 - mu Jx).

    Var(Jz) = min_z <(Jz - z)^2>, so the two minimizations commute.  The
    z-dependence is even, so [0, j] is scanned densely and the best grid
    point refined by a bounded scalar search.
    """
    m, jx = _spin_ops(two_j)
    j = two_j / 2.0
    zs = np.linspace(0.0, j, z_points)
    lam = _lam_min(m, jx, mu, zs)
    i = int(np.argmin(lam))
    lo, hi = zs[max(i - 1, 0)], zs[min(i + 1, z_points - 1)]
    res = minimize_scalar(lambda z: float(_lam_min(m, jx, mu, z)[0]), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12})
    return min(float(lam[i]), float(res.fun))


def boundary(j: float, x: float) -> float:
    """F_j(x): minimal Var(Jz)/j over spin-j states with <Jx>/j = x.

    The boundary is the convex envelope sup_mu [c(mu)/j + mu x] of the
    supporting lines c(mu) = :func:`min_energy`; the supremum is a maximum of
    a concave function of mu, found over log(mu).
    """
    two_j = int(round(2 * j))
    if two_j < 1 or not 0.0 <= x <= 1.0:
        raise ValueError("need j >= 1/2 and x in [0, 1]")
    if x == 0.0:
        return 0.0

    def neg(t):
        mu = math.exp(t)
        return -(min_energy(two_j, mu) / j + mu * x)

    res = minimize_scalar(neg, bounds=(-14.0, 12.0), method="bounded", options={"xatol": 1e-9})
    return max(0.0, -float(res.fun))


# ---------------------------------------------------------------------------
# depth criteria re-evaluated from their inequalities

# The variance criterion compares Var(Jz) with jmax * F_j.  homsim's solver
# sits up to 5.5e-3 above the exact F_j (at 2j = 9), so a verdict that
# differs from the exact one is accepted only within this distance of it.
BOUNDARY_TOL = 6e-3
_EXACT_TOL = 1e-9


def _block_spread(n: int) -> float:
    v = (n / 2.0) * (n / 2.0 + 1.0)
    return v if n % 2 == 0 else v - 0.25


def variance_margins(n: int, jxjy2: float, var: float, k_min: int = 1) -> dict:
    """k -> (margin, tol) for k_min <= k < n; the k-producible bound is violated when margin < 0.

    A margin of +inf marks a block size where neither bound applies.
    """
    jmax = n / 2.0
    out = {}
    if k_min <= 1:
        out[1] = ((n - 1) * var - jxjy2 + n / 2.0, _EXACT_TOL * n * n)
    for k in range(max(k_min, 2), n):
        margin = math.inf
        num = jxjy2 - jmax * (k / 2.0 + 1.0)
        den = jmax * (jmax - k / 2.0)
        args = []
        if den > 0 and num > 0:
            args.append(math.sqrt(num / den))
        blocks = n // k
        num2 = jxjy2 - blocks * _block_spread(k) - _block_spread(n - blocks * k)
        if num2 > 0:
            args.append(math.sqrt(num2) / jmax)
        for arg in args:
            margin = min(margin, -math.inf if arg >= 1.0 else var - jmax * boundary(k / 2.0, arg))
        out[k] = (margin, jmax * BOUNDARY_TOL)
    return out


def parity_margins(n: int, jxjy2: float, parity_z: float) -> dict:
    jmax = n / 2.0
    return {k: (jmax * (jmax + 1) - jxjy2 - k * (n - k) / 2.0 * abs(parity_z), _EXACT_TOL * n * n)
            for k in range(math.ceil(n / 2), n)}


def check_depth(depth: int, margins: dict) -> list[str]:
    """Depth d claims block size d - 1 violated and no larger one.

    Accepted when d - 1 is violated or within tolerance of its bound, and
    every larger block size is satisfied or within tolerance of its bound.
    """
    problems = []
    k = depth - 1
    if k >= 1 and not (k in margins and margins[k][0] < margins[k][1]):
        problems.append(f"depth {depth}: block size {k} is not shown to violate its bound")
    for kk, (margin, tol) in margins.items():
        if kk > k and margin < -tol:
            problems.append(f"depth {depth}: block size {kk} violates its bound by {-margin:.3g}")
    return problems


# ---------------------------------------------------------------------------
# Fisher scaling


def scaling_scan(n_values, fbar, dfbar, lo: float = -2.0, hi: float = 6.0, levels: int = 6) -> float:
    """Exponent s minimizing sum w (F_N - r h_s(N))^2, h_s = N^s/2 + N, w = dF^-2.

    r is profiled out at each s; the cost is scanned on nested grids, each
    zooming in on the best point of the previous one.
    """
    n = np.asarray(n_values, dtype=float)
    f = np.asarray(fbar, dtype=float)
    w = np.asarray(dfbar, dtype=float) ** -2.0
    for _ in range(levels):
        s = np.linspace(lo, hi, 2001)[:, None]
        h = n**s / 2.0 + n
        r = (w * h * f).sum(axis=1, keepdims=True) / (w * h * h).sum(axis=1, keepdims=True)
        cost = (w * (f - r * h) ** 2).sum(axis=1)
        best = int(np.argmin(cost))
        step = float(s[1, 0] - s[0, 0])
        lo, hi = float(s[best, 0]) - step, float(s[best, 0]) + step
    return float(s[best, 0])


# ---------------------------------------------------------------------------
# channel forward model and its Hellinger objective


def _rotation_row(n_total: int, theta: float) -> np.ndarray:
    """|<Jz_out| exp(-i theta Jx) |Jz_in = 0>|^2, indexed by n_plus."""
    if n_total == 0:
        return np.ones(1)
    m, jx = _spin_ops(n_total)
    u = expm(-1j * theta * jx)
    # _spin_ops orders m from +j down; reverse so index k means n_plus = k
    return np.abs(u[::-1, ::-1][:, n_total // 2]) ** 2


# The reference noise model: default source and grid, generating rates, and
# the fixed calibration skew and per-mode (sigma0, c1) blur laws.
XI = math.asinh(math.sqrt(3.75))  # 7.5 atoms per shot on average
N_MAX = 20
REFERENCE_RATES = {"a_plus": 0.0551, "a_minus": 0.0218, "l_plus": 4.2e-4, "l_minus": 0.011}
SKEW = 1.052
BLUR = {"plus": (0.168, 0.027), "minus": (0.1466, 0.0114)}


def reference_channel(theta: float, rates: dict) -> np.ndarray:
    """Normalized detected grid [n_plus, n_minus] of the six-stage channel.

    Source, rotation, influx, loss, skew and blur, with the four free
    ``rates`` (a_plus, a_minus, l_plus, l_minus).  Every stage is linear, so
    renormalizing once at the end equals renormalizing after each stage.
    """
    n_max = N_MAX
    size = n_max + 1
    ratio = math.tanh(XI) ** 2
    pairs = ratio ** np.arange(size)
    grid = np.zeros((size, size))
    for n in range(size):  # rotate each anti-diagonal n_plus + n_minus = 2n
        row = _rotation_row(2 * n, theta)
        keep = np.arange(max(0, 2 * n - n_max), min(2 * n, n_max) + 1)
        grid[keep, 2 * n - keep] += pairs[n] * row[keep]

    k = np.arange(size)

    def influx(a):
        pmf = np.array([math.exp(i * math.log(a) - a - math.lgamma(i + 1)) if a > 0 else float(i == 0)
                        for i in range(size)])
        diff = k[:, None] - k[None, :]
        return np.where(diff >= 0, pmf[np.clip(diff, 0, None)], 0.0)

    def loss(l):
        out = np.zeros((size, size))
        for n in range(size):
            for m in range(n + 1):
                out[m, n] = math.comb(n, m) * (1 - l) ** m * l ** (n - m)
        return out

    def blur_matrix(sigma0, c1):
        sig = np.sqrt(sigma0**2 + c1**2 * k)
        edges = np.arange(size + 1) - 0.5
        cdf = ndtr((edges[:, None] - k[None, :]) / sig[None, :])
        cdf[0], cdf[-1] = 0.0, 1.0
        return np.diff(cdf, axis=0)

    grid = influx(rates["a_plus"]) @ grid @ influx(rates["a_minus"]).T
    grid = loss(rates["l_plus"]) @ grid @ loss(rates["l_minus"]).T
    q = math.sqrt(SKEW) - 1.0
    shifted = np.zeros_like(grid)  # minus over-counted by one, clamped at the top
    shifted[:, 1:] = grid[:, :-1]
    shifted[:, -1] += grid[:, -1]
    grid = (1 - q) * grid + q * shifted
    shifted = np.zeros_like(grid)  # plus under-counted by one, clamped at zero
    shifted[:-1] = grid[1:]
    shifted[0] += grid[0]
    grid = (1 - q) * grid + q * shifted
    grid = blur_matrix(*BLUR["plus"]) @ grid @ blur_matrix(*BLUR["minus"]).T
    return grid / grid.sum()


def empirical_grid(n_plus, n_minus, n_max: int) -> np.ndarray:
    grid = np.zeros((n_max + 1, n_max + 1))
    np.add.at(grid, (np.minimum(n_plus, n_max), np.minimum(n_minus, n_max)), 1.0)
    return grid / grid.sum()


def hellinger_sq(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * math.fsum(((np.sqrt(p) - np.sqrt(q)) ** 2).ravel())


# ---------------------------------------------------------------------------
# camera signals: s = n g + b + drift(shot) + kappa s0 + N(0, sigma_n g)

INJECTED = {
    "minus": {"g": 975.8, "b": 250.0, "sigma0": 0.1466, "c1": 0.0114, "kappa": 1.48e-3},
    "plus": {"g": 832.5, "b": 250.0, "sigma0": 0.168, "c1": 0.027, "kappa": 1.76e-3},
}
DRIFT_PEAK_TO_PEAK = 370.0
DRIFT_PERIOD = 13356.0  # two cycles over one 26,712-shot run
COMPANION_MEAN, COMPANION_SPREAD = 2.0e5, 3.0e4


def synthesize(n_plus: np.ndarray, n_minus: np.ndarray, seed: int) -> dict:
    """Raw per-shot signals of both modes and the companion (crosstalk) signal."""
    rng = np.random.default_rng(seed)
    shots = len(n_plus)
    idx = np.arange(shots)
    s_zero = rng.normal(COMPANION_MEAN, COMPANION_SPREAD, size=shots)
    drift = 0.5 * DRIFT_PEAK_TO_PEAK * np.sin(2 * np.pi * idx / DRIFT_PERIOD)
    out = {"shot_index": idx, "s_zero": s_zero}
    for mode, n in (("minus", n_minus), ("plus", n_plus)):
        c = INJECTED[mode]
        width = np.sqrt(c["sigma0"] ** 2 + c["c1"] ** 2 * n) * c["g"]
        out[f"s_{mode}"] = n * c["g"] + c["b"] + drift + c["kappa"] * s_zero + rng.normal(0.0, width)
    return out


def write_signals(path, signals: dict) -> None:
    cols = np.column_stack([signals["shot_index"], signals["s_minus"], signals["s_zero"], signals["s_plus"]])
    np.savetxt(path, cols, delimiter=",", fmt=["%d", "%.6f", "%.6f", "%.6f"],
               header="shot_index,s_minus,s_zero,s_plus", comments="")


def requantize(signal: np.ndarray, s_zero: np.ndarray, kappa: float, starts, corrections, g: float, b: float) -> np.ndarray:
    """Occupations from raw signals with reported crosstalk, drift and peak comb."""
    window = np.searchsorted(np.asarray(starts), np.arange(len(signal)), side="right") - 1
    level = signal - kappa * s_zero - np.asarray(corrections)[window]
    return np.maximum(0, np.ceil((level - b) / g - 0.5)).astype(int)


def ideal_recovery(n: np.ndarray, sigma0: float, c1: float) -> float:
    """Share of shots a perfectly calibrated nearest-peak detector gets right.

    Peak n is read correctly when its Gaussian noise stays within half an
    atom of it; nothing lies below the zero peak.
    """
    z = 0.5 / np.sqrt(sigma0**2 + c1**2 * n)
    return float(np.mean(np.where(n == 0, ndtr(z), 1.0 - 2.0 * ndtr(-z))))
