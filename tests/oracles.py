"""Independent reference implementations used only by the tests.

Each function here derives its answer through a different route than the
package (factorial sums instead of eigendecompositions, explicit enumeration
instead of matrix convolution, Bloch-vector algebra instead of state
vectors), so agreement is evidence rather than tautology.
"""

import math
from math import lgamma

import numpy as np
from scipy.special import comb, eval_legendre
from scipy.stats import binom, norm, poisson

from homsim.entanglement import CollectiveData
from homsim.fock import DomainError, FixedNDistribution

NORM_ATOL = 1e-12


def validate(dist, atol: float = NORM_ATOL) -> None:
    """Raise ValueError unless a two-mode grid or a fixed-N distribution is non-negative and sums to one."""
    p = dist.grid if hasattr(dist, "grid") else dist.probs
    if np.any(p < 0):
        raise ValueError("negative probability")
    if abs(p.sum() - 1.0) > atol:
        raise ValueError(f"not normalized: sum={p.sum()!r}")


def ideal_twin_fock_data(n_total: int) -> CollectiveData:
    """Moments of the perfect balanced Fock state |N/2, N/2>, in closed form."""
    if n_total % 2:
        raise DomainError("balanced Fock state needs even N")
    j = n_total / 2.0
    sign = -1.0 if (n_total // 2) % 2 else 1.0
    return CollectiveData(
        n_total=n_total, jxjy2=j * (j + 1), var_jz=0.0,
        parity_z=sign, parity_x=1.0, parity_y=1.0,
    )


def wigner_d_factorial(j2: int, m2p: int, m2: int, beta: float) -> float:
    """Rotation matrix element d^j_{m',m}(beta) via the explicit factorial sum.

    Arguments are doubled (2j, 2m', 2m) so half-integers stay exact.
    """
    j = j2 / 2.0
    mp = m2p / 2.0
    m = m2 / 2.0
    pref = 0.5 * (lgamma(j + mp + 1) + lgamma(j - mp + 1) + lgamma(j + m + 1) + lgamma(j - m + 1))
    kmin = max(0, int(round(m - mp)))
    kmax = int(round(min(j + m, j - mp)))
    c = math.cos(beta / 2)
    s = math.sin(beta / 2)
    tot = 0.0
    for k in range(kmin, kmax + 1):
        sign = (-1.0) ** (mp - m + k)
        denom = lgamma(j + m - k + 1) + lgamma(k + 1) + lgamma(j - mp - k + 1) + lgamma(mp - m + k + 1)
        ce = 2 * j + m - mp - 2 * k
        se = mp - m + 2 * k
        term = sign * math.exp(pref - denom)
        if ce != 0:
            term *= c**ce
        if se != 0:
            term *= s**se
        tot += term
    return tot


def kernel_factorial(n_total: int, theta: float) -> np.ndarray:
    """Full |d|^2 transition matrix indexed by n_plus, via factorial sums."""
    n = n_total
    out = np.zeros((n + 1, n + 1))
    for i_in in range(n + 1):
        for i_out in range(n + 1):
            out[i_in, i_out] = wigner_d_factorial(n, 2 * i_out - n, 2 * i_in - n, theta) ** 2
    return out


def twin_balanced_legendre(n_total: int, theta: float) -> float:
    """P(n_plus = N/2) of the twin-Fock output at theta: d^j_00(theta) = P_j(cos theta), squared, with j = N/2."""
    return float(eval_legendre(n_total // 2, math.cos(theta)) ** 2)


def twin_parity_legendre(n_total: int, theta: float) -> float:
    """Occupation parity of the twin-Fock output at theta: (-1)^j P_j(cos 2 theta), with j = N/2."""
    j = n_total // 2
    return float((-1) ** j * eval_legendre(j, math.cos(2 * theta)))


def arcsine_row(n_total: int) -> np.ndarray:
    """Balanced-coupler output of |n>|n> from the closed-form binomial products."""
    n = n_total // 2
    row = np.zeros(n_total + 1)
    for k in range(n + 1):
        row[2 * k] = comb(2 * k, k, exact=True) * comb(2 * n - 2 * k, n - k, exact=True) * 0.25**n
    return row


def holland_burnett(n_total: int) -> FixedNDistribution:
    """Closed-form oracle of ``fock.twin_fock_output(n_total, pi/2)``: the discrete arcsine distribution.

    Only even output differences are populated; the central binomial
    products are exact in double precision.
    """
    if n_total % 2 != 0:
        raise DomainError("holland_burnett requires an even total atom number")
    n = n_total // 2
    probs = np.zeros(n_total + 1)
    for k in range(n + 1):
        probs[2 * k] = math.comb(2 * k, k) * math.comb(2 * n - 2 * k, n - k) * 0.25**n
    return FixedNDistribution(n_total=n_total, probs=probs)


def tmsv_weights_direct(xi: float, n_pairs: int) -> tuple[np.ndarray, float]:
    """Geometric pair-number weights up to n_pairs and the exact truncated tail."""
    r = math.tanh(xi) ** 2
    w = r ** np.arange(n_pairs + 1) * (1 - r)
    return w / w.sum(), r ** (n_pairs + 1)


def influx_enumerated(grid: np.ndarray, a: float, axis: int) -> tuple[np.ndarray, float]:
    """Independent Poisson atom gain along one axis by explicit shifting."""
    size = grid.shape[axis]
    out = np.zeros_like(grid)
    lost = 0.0
    pk = poisson.pmf(np.arange(4 * size), a)
    it = np.ndindex(grid.shape)
    for idx in it:
        for k, p in enumerate(pk):
            tgt = list(idx)
            tgt[axis] += k
            if tgt[axis] < size:
                out[tuple(tgt)] += p * grid[idx]
            else:
                lost += p * grid[idx]
    return out, lost


def loss_enumerated(grid: np.ndarray, rate: float, axis: int) -> np.ndarray:
    """Per-atom binomial survival along one axis by explicit enumeration."""
    size = grid.shape[axis]
    out = np.zeros_like(grid)
    for idx in np.ndindex(grid.shape):
        k = idx[axis]
        for m in range(k + 1):
            tgt = list(idx)
            tgt[axis] = m
            out[tuple(tgt)] += binom.pmf(m, k, 1 - rate) * grid[idx]
    return out


def skew_enumerated(grid: np.ndarray, skew: float) -> np.ndarray:
    """Two sequential misassignment coins, one per mode, by outcome enumeration.

    The minus coin moves one count up the minus axis, the plus coin one count
    down the plus axis; both saturate at the grid edge.
    """
    q = math.sqrt(skew) - 1.0
    out = np.zeros_like(grid)
    top = grid.shape[1] - 1
    for (ip, im), mass in np.ndenumerate(grid):
        for hit_m, pm in ((0, 1 - q), (1, q)):
            im2 = min(im + hit_m, top)
            for hit_p, pp in ((0, 1 - q), (1, q)):
                ip2 = max(ip - hit_p, 0)
                out[ip2, im2] += pm * pp * mass
    return out


def blur_column_quadrature(n: int, sigma0: float, c1: float, n_max: int) -> np.ndarray:
    """Gaussian read-out smearing of occupation n via direct cdf differences."""
    s = math.sqrt(sigma0**2 + c1**2 * n)
    edges = np.arange(n_max + 2) - 0.5
    cdf = norm.cdf(edges, loc=n, scale=s)
    cdf[0] = 0.0
    cdf[-1] = 1.0
    return np.diff(cdf)


def boundary_half(x: float) -> float:
    """Closed form of the minimal-variance boundary for j = 1/2."""
    return x**2 / 2.0


def boundary_one(x: float) -> float:
    """Closed form of the minimal-variance boundary for j = 1."""
    return (1.0 - math.sqrt(max(1.0 - x**2, 0.0))) / 2.0


def _spin_hamiltonians(two_j: int, mu: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Jz - z)^2 - mu Jx for broadcast mu and z, with Jx = (J+ + J-)/2, basis m = -j..j."""
    j = two_j / 2.0
    m = np.arange(-two_j, two_j + 1, 2) / 2.0
    j_plus = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)  # <m+1|J+|m>
    jx = (j_plus + j_plus.T) / 2.0
    mu, z = np.broadcast_arrays(mu, z)
    h = np.eye(two_j + 1) * ((m - z[..., None]) ** 2)[..., None, :] - mu[..., None, None] * jx
    return h, m


def min_energy(two_j: int, mu) -> np.ndarray:
    """min over spin-j states of Var(Jz) - mu <Jx>, for each mu.

    Var(Jz) = min_z <(Jz - z)^2>, so this is min_z lambda_min((Jz - z)^2 - mu Jx),
    even in z.  Dense scan of z in [0, j] at spacing 1/8, then 12 steps of a
    safeguarded Newton search for a zero of the slope between the best scan
    point's neighbours, with the exact derivatives of the lowest level
    (Hellmann-Feynman slope, second-order perturbation curvature); a step
    that leaves the slope-sign bracket is replaced by bisection.  Every
    evaluated level is a value of the objective, so the result is the
    smallest level seen.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    j = two_j / 2.0
    zs = np.linspace(0.0, j, int(8 * j) + 1)
    h, _ = _spin_hamiltonians(two_j, mu[:, None], zs[None, :])
    levels = np.linalg.eigvalsh(h)[..., 0]
    best = levels.min(axis=1)
    z = zs[levels.argmin(axis=1)]
    lo, hi = np.maximum(z - 0.125, 0.0), np.minimum(z + 0.125, j)
    for _ in range(12):
        h, m = _spin_hamiltonians(two_j, mu, z)
        e, v = np.linalg.eigh(h)
        best = np.minimum(best, e[:, 0])
        jz_n0 = np.einsum("bkn,k,bk->bn", v, m, v[:, :, 0])  # <n|Jz|0>
        slope = np.where(z > 0, 2.0 * (z - jz_n0[:, 0]), 0.0)  # exactly 0 at z = 0 by symmetry
        curv = 2.0 - 8.0 * np.sum(jz_n0[:, 1:] ** 2 / (e[:, 1:] - e[:, :1]), axis=1)
        lo, hi = np.where(slope <= 0, z, lo), np.where(slope > 0, z, hi)
        newton = z - slope / np.where(curv > 0, curv, np.nan)
        inside = (newton > lo) & (newton < hi)
        z = np.where(inside, newton, 0.5 * (lo + hi))
    return best


def parity_depth_k(n: int, jxjy2: float, parity_z: float):
    """Largest block size k >= N/2 beaten by the parity inequality, or None: one row, scalar loop."""
    jmax = n / 2.0
    best = None
    for k in range(math.ceil(n / 2), n):
        if jxjy2 + k * (n - k) / 2.0 * abs(parity_z) > jmax * (jmax + 1):
            best = k
    return best


def _pair_spread(n: int) -> float:
    v = (n / 2.0) * (n / 2.0 + 1.0)
    return v if n % 2 == 0 else v - 0.25


def variance_depth_k(n: int, jxjy2: float, var_jz: float, boundary) -> tuple[int, list]:
    """Largest block size beaten by the variance criterion and the clamped k: one row, scalar loop.

    ``boundary(j, x)`` is the minimal-variance boundary F_j(x), called once
    per scalar argument.
    """
    jmax = n / 2.0
    best, clamped = 0, []
    for k in range(1, n):
        violated = False
        applicable = False
        if k == 1:
            applicable = True
            violated = (n - 1) * var_jz - jxjy2 + n / 2.0 < 0
        else:
            num = jxjy2 - jmax * (k / 2.0 + 1.0)
            den = jmax * (jmax - k / 2.0)
            if den > 0 and num > 0:
                applicable = True
                arg = math.sqrt(num / den)
                violated = True if arg >= 1.0 else var_jz < jmax * boundary(k / 2.0, arg)
            blocks = n // k
            x_bound = blocks * _pair_spread(k) + _pair_spread(n - blocks * k)
            num2 = jxjy2 - x_bound
            if num2 > 0:
                applicable = True
                arg2 = math.sqrt(num2) / jmax
                violated = violated or (True if arg2 >= 1.0 else var_jz < jmax * boundary(k / 2.0, arg2))
        if violated:
            best = k
        elif not applicable and k > 1:
            clamped.append(k)
    return best, clamped


def fisher_fit_scan(diffs, d2, quartic: bool, f_max: float = 400.0, levels: int = 5) -> float:
    """Global minimizer in F >= 0 of the unweighted Hellinger-parabola cost.

    Brute force instead of algebra: the intercept is profiled out at each F
    by its least-squares value (the mean residual), and the cost is scanned
    on nested grids, each zooming in on the previous best point.
    """
    x = np.asarray(diffs, dtype=float)
    y = np.asarray(d2, dtype=float)
    lo, hi = 0.0, f_max
    for _ in range(levels):
        f = np.linspace(lo, hi, 2001)[:, None]
        model = f / 8.0 * x**2
        if quartic:
            model = model - (f**2 / 256.0 - f / 192.0) * x**4
        resid = model - y
        cost = np.sum((resid - resid.mean(axis=1, keepdims=True)) ** 2, axis=1)
        best = int(np.argmin(cost))
        step = float(f[1, 0] - f[0, 0])
        lo, hi = max(float(f[best, 0]) - step, 0.0), float(f[best, 0]) + step
    return float(f[best, 0])


def product_state_moments(bloch: np.ndarray) -> dict:
    """Exact collective moments of a pure product state of qubits.

    ``bloch`` has shape (n_atoms, 3) with unit rows (x_i, y_i, z_i).  Single
    -particle Pauli moments determine everything: squared collective spins
    need only pairwise products, and product parities factorize.
    """
    x, y, z = bloch[:, 0], bloch[:, 1], bloch[:, 2]
    n = len(bloch)
    sx, sy, sz = x.sum(), y.sum(), z.sum()
    jz = 0.5 * sz
    jz2 = 0.25 * (n + sz**2 - np.sum(z**2))
    jxjy2 = 0.25 * (2 * n + sx**2 - np.sum(x**2) + sy**2 - np.sum(y**2))
    return {
        "n_total": n,
        "mean_jz": float(jz),
        "jz2": float(jz2),
        "var_jz": float(jz2 - jz**2),
        "jxjy2": float(jxjy2),
        "parity_x": float(np.prod(x)),
        "parity_y": float(np.prod(y)),
        "parity_z": float(np.prod(z)),
    }


def random_bloch(rng: np.random.Generator, n_states: int, n_atoms: int) -> np.ndarray:
    """Uniformly random unit vectors, shape (n_states, n_atoms, 3)."""
    v = rng.normal(size=(n_states, n_atoms, 3))
    return v / np.linalg.norm(v, axis=2, keepdims=True)
