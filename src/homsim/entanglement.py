"""Entanglement witnesses and depth criteria for collective-spin data.

Inputs are a handful of collective moments per atom number N: the J_z
variance of the unrotated state, <J_x^2 + J_y^2> inferred after a pi/2
coupling pulse, and product parities <sigma_i^(xN)>.  From these the module
certifies entanglement (parity-sum and indefinite-N variance witnesses) and
lower-bounds the entanglement depth by two routes: a parity-assisted
inequality valid for partitions with k >= N/2, and a variance criterion
built on the minimal-variance boundary F_j of spin-j states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import stats
from .fock import CollectiveMoments, DomainError, FixedNDistribution, collective_moments, moments
from .metrology import jxjy2_estimate

MAX_BOUNDARY_DIM = 64  # largest (2j+1) the boundary solver will diagonalize


@dataclass(frozen=True)
class CollectiveData:
    """Collective moments of one fixed-N dataset.

    ``parity_y`` defaults to ``parity_x``: the x and y product parities of an
    exchange-symmetric state with indefinite phase are equal, and only one is
    measured.
    """

    n_total: int
    jxjy2: float
    var_jz: float
    parity_z: float = 0.0
    parity_x: float = 0.0
    parity_y: float | None = None
    mean_jz: float = 0.0

    def __post_init__(self):
        if self.n_total < 2:
            raise ValueError("need at least two atoms")
        if self.var_jz < 0:
            raise ValueError("variance must be non-negative")
        if self.jxjy2 < 0:
            raise ValueError("<Jx^2+Jy^2> must be non-negative")
        for name in ("parity_z", "parity_x", "parity_y"):
            v = getattr(self, name)
            if v is not None and abs(v) > 1 + 1e-9:
                raise ValueError(f"{name} outside [-1, 1]")
        if self.parity_y is None:
            object.__setattr__(self, "parity_y", self.parity_x)

    @property
    def jz2(self) -> float:
        return self.var_jz + self.mean_jz**2

    @property
    def symmetry_J(self) -> float:
        return symmetry_parameter(self)

    def to_json(self) -> dict:
        return {
            "n_total": self.n_total,
            "jxjy2": self.jxjy2,
            "var_jz": self.var_jz,
            "parity_z": self.parity_z,
            "parity_x": self.parity_x,
            "parity_y": self.parity_y,
            "mean_jz": self.mean_jz,
        }

    @classmethod
    def from_json(cls, row: dict) -> "CollectiveData":
        return cls(**{k: row[k] for k in row if k in cls.__dataclass_fields__})


def ideal_twin_fock_data(n_total: int) -> CollectiveData:
    """Moments of the perfect balanced Fock state |N/2, N/2>."""
    if n_total % 2:
        raise DomainError("balanced Fock state needs even N")
    j = n_total / 2.0
    sign = -1.0 if (n_total // 2) % 2 else 1.0
    return CollectiveData(
        n_total=n_total, jxjy2=j * (j + 1), var_jz=0.0,
        parity_z=sign, parity_x=1.0, parity_y=1.0,
    )


def collective_rows(n_total: int, m0: CollectiveMoments, mh: CollectiveMoments) -> list[CollectiveData]:
    """Witness inputs from the moments of the two measured J_z histograms.

    The unrotated histogram (m0) supplies Var(J_z) and the z product parity;
    the post-pi/2 histogram (mh) supplies <Jx^2+Jy^2> and the x parity (J_x
    has been mapped onto the measured axis).  Stacked moments give one row
    per resample, single-histogram moments a list of one.
    """
    cols = (jxjy2_estimate(mh), m0.var_jz, m0.parity, mh.parity, m0.mean_jz)
    return [
        CollectiveData(n_total=n_total, jxjy2=jxjy2, var_jz=var, parity_z=pz, parity_x=px, mean_jz=mean)
        for jxjy2, var, pz, px, mean in zip(*(np.atleast_1d(c).tolist() for c in cols))
    ]


def collective_from_distributions(p_unrotated: FixedNDistribution, post_hom: FixedNDistribution) -> CollectiveData:
    """:func:`collective_rows` of the two histograms themselves."""
    if p_unrotated.n_total != post_hom.n_total:
        raise ValueError("histograms belong to different N")
    return collective_rows(p_unrotated.n_total, collective_moments(p_unrotated), collective_moments(post_hom))[0]


@dataclass(frozen=True)
class WitnessResult:
    value: float
    entangled: bool
    threshold: float
    per_n: dict = field(default_factory=dict)


def parity_witness_xyz(data: CollectiveData) -> WitnessResult:
    """Sum of the three product-parity magnitudes; above one needs entanglement."""
    value = abs(data.parity_x) + abs(data.parity_y) + abs(data.parity_z)
    return WitnessResult(value=float(value), entangled=bool(value > 1.0), threshold=1.0)


def symmetry_parameter(data: CollectiveData) -> float:
    """Fraction of the maximal symmetric-subspace transverse spread, 1 = fully symmetric."""
    n = data.n_total
    return float(data.jxjy2 / (n * (n + 2) / 4.0))


# ---------------------------------------------------------------------------
# minimal-variance boundary of spin-j states


_STACK_ENTRIES = 1 << 16  # matrix entries per stacked eigvalsh call (512 KB)


def _line_offsets(two_j: int, mus: np.ndarray) -> np.ndarray:
    """Exact min over spin-j states of Var(Jz) - mu <Jx>, for each mu.

    Var(Jz) = min_z <(Jz - z)^2>, so this is min_z f(z), f(z) the lowest
    eigenvalue of the tridiagonal (Jz - z)^2 - mu Jx, even in z.  f is scanned
    at z = 0 and at each eigenvalue m > 0 of Jz (the minimizers as mu -> 0);
    golden sections refine each mu's best node.  f - z^2 is concave (lowest
    eigenvalue of an operator affine in z), so f'' <= 2: z within 1e-6 of the
    minimizer puts f within 1e-12 of the minimum.
    """
    dim, j = two_j + 1, two_j / 2.0
    m = j - np.arange(dim)
    jx_off = -0.5 * np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    chunk = max(1, _STACK_ENTRIES // dim**2)

    def lam(mu, z):  # paired (mu, z); stacks are capped so memory stays flat in 2j
        out = np.empty(len(mu))
        for s in range(0, len(mu), chunk):
            h = np.zeros((len(mu[s:s + chunk]), dim * dim))
            h[:, 1::dim + 1] = h[:, dim::dim + 1] = mu[s:s + chunk, None] * jx_off
            h[:, ::dim + 1] = (m - z[s:s + chunk, None]) ** 2
            out[s:s + chunk] = np.linalg.eigvalsh(h.reshape(-1, dim, dim))[:, 0]
        return out

    nodes = np.append(0.0, m[m > 0][::-1])
    grid = lam(np.repeat(mus, len(nodes)), np.tile(nodes, len(mus))).reshape(len(mus), -1)
    i = np.argmin(grid, axis=1)
    lo, hi = nodes[np.maximum(i - 1, 0)], nodes[np.minimum(i + 1, len(nodes) - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = lam(mus, a), lam(mus, b)
    for _ in range(31):  # bracket width <= 2 g^31 < 1e-6
        left = fa < fb  # the minimum lies in [lo, b]
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
        a, b = np.where(left, hi - g * (hi - lo), b), np.where(left, a, lo + g * (hi - lo))
        new = lam(mus, np.where(left, a, b))
        fa, fb = np.where(left, new, fb), np.where(left, fa, new)
    return np.minimum(grid.min(axis=1), np.minimum(fa, fb))


@lru_cache(maxsize=None)
def _boundary_lines(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Supporting lines v >= c(mu)/j + mu x of the boundary, mu on a log grid.

    Their upper envelope is the boundary; a huge-mu line through the coherent
    state along x (Var = j/2 at x = 1) closes it exactly at the right end.
    """
    mus = np.logspace(-3, 3, 512)
    return np.append(mus, 1e9), np.append(_line_offsets(two_j, mus) / (two_j / 2.0), 0.5 - 1e9)


def sm_boundary(j: float, x: float) -> float:
    """Minimal Var(J_z)/j over spin-j states with <J_x>/j = x.

    Convex, zero at x = 0, one half at x = 1.  Evaluated as the upper
    envelope of cached supporting lines with exact offsets (:func:`_line_offsets`).
    """
    two_j = int(round(2 * j))
    if two_j < 1 or abs(2 * j - two_j) > 1e-12:
        raise DomainError("j must be a positive half-integer")
    if two_j + 1 > MAX_BOUNDARY_DIM:
        raise DomainError(f"spin too large: 2j+1 must stay <= {MAX_BOUNDARY_DIM}")
    if not 0.0 <= x <= 1.0:
        raise DomainError("normalized mean spin must lie in [0, 1]")
    slopes, offsets = _boundary_lines(two_j)
    return float(max(0.0, np.max(offsets + slopes * x)))


# ---------------------------------------------------------------------------
# depth criteria


@dataclass(frozen=True)
class DepthResult:
    """Certified lower bound on the entanglement depth.

    ``method`` records which route certified the bound: "parity",
    "variance", or "fallback" when the parity route found no violation and
    deferred to the variance route.  ``clamped_k`` lists block sizes whose
    square-root argument was negative (criterion not applicable there).
    ``samples`` optionally carries per-resample depths.
    """

    depth: int
    method: str
    n_total: int
    clamped_k: tuple = ()
    samples: np.ndarray | None = None
    confidence_level: float | None = None

    def to_json(self) -> dict:
        out = {
            "depth": self.depth,
            "method": self.method,
            "n_total": self.n_total,
            "clamped_k": list(self.clamped_k),
            "confidence_level": self.confidence_level,
        }
        if self.samples is not None:
            out["n_samples"] = int(len(self.samples))
        return out


def _parity_depth_k(data: CollectiveData) -> int | None:
    n = data.n_total
    jmax = n / 2.0
    best = None
    for k in range(math.ceil(n / 2), n):
        if data.jxjy2 + k * (n - k) / 2.0 * abs(data.parity_z) > jmax * (jmax + 1):
            best = k
    return best


def depth_parity(data: CollectiveData) -> DepthResult:
    """Depth from the parity-assisted spread inequality, valid for k >= N/2.

    The largest block size k whose k-producible bound is beaten certifies
    depth k+1.  States below the inequality for every admissible k fall back
    to the variance criterion.
    """
    if data.n_total % 2:
        raise DomainError("parity criterion defined for even N")
    k = _parity_depth_k(data)
    if k is None:
        fb = depth_variance(data)
        return DepthResult(
            depth=fb.depth, method="fallback", n_total=data.n_total, clamped_k=fb.clamped_k
        )
    return DepthResult(depth=k + 1, method="parity", n_total=data.n_total)


def _pair_spread(n: int) -> float:
    # max <Jx^2+Jy^2> of an n-atom block; odd blocks lose the quarter
    v = (n / 2.0) * (n / 2.0 + 1.0)
    return v if n % 2 == 0 else v - 0.25


def _variance_depth_k(data: CollectiveData) -> tuple[int, list]:
    n = data.n_total
    jmax = n / 2.0
    best, clamped = 0, []
    for k in range(1, n):
        violated = False
        applicable = False
        if k == 1:
            applicable = True
            violated = (n - 1) * data.var_jz - data.jxjy2 + n / 2.0 < 0
        else:
            num = data.jxjy2 - jmax * (k / 2.0 + 1.0)
            den = jmax * (jmax - k / 2.0)
            if den > 0 and num > 0:
                applicable = True
                arg = math.sqrt(num / den)
                violated = True if arg >= 1.0 else data.var_jz < jmax * sm_boundary(k / 2.0, arg)
            blocks = n // k
            x_bound = blocks * _pair_spread(k) + _pair_spread(n - blocks * k)
            num2 = data.jxjy2 - x_bound
            if num2 > 0:
                applicable = True
                arg2 = math.sqrt(num2) / jmax
                violated = violated or (True if arg2 >= 1.0 else data.var_jz < jmax * sm_boundary(k / 2.0, arg2))
        if violated:
            best = k
        elif not applicable and k > 1:
            clamped.append(k)
    return best, clamped


def depth_variance(data: CollectiveData) -> DepthResult:
    """Depth from low J_z variance at large transverse spread.

    Two k-producibility bounds are checked per block size (a boundary-curve
    one and a block-decomposition one) and the stronger verdict kept.
    Square-root arguments at or above one mean the measured spread already
    exceeds anything k-producible: trivially violated.  Negative arguments
    make the criterion inapplicable at that k (recorded, not certified).
    """
    best, clamped = _variance_depth_k(data)
    return DepthResult(
        depth=best + 1, method="variance", n_total=data.n_total, clamped_k=tuple(clamped)
    )


def depth_with_resampling(
    p_unrotated: FixedNDistribution,
    post_hom: FixedNDistribution,
    method: str = "parity",
    plan: stats.ResamplePlan | None = None,
    level: float = 0.68,
) -> DepthResult:
    """Depth at a confidence level via multinomial resampling of both histograms.

    Each resample rebuilds the collective moments and re-runs the chosen
    criterion; the reported depth is the largest one reached by at least
    ``level`` of the samples.
    """
    if method not in ("parity", "variance"):
        raise ValueError("method must be 'parity' or 'variance'")
    plan = plan if plan is not None else stats.ResamplePlan()
    if p_unrotated.n_shots is None or post_hom.n_shots is None:
        raise ValueError("resampling needs the original sample sizes")
    n = p_unrotated.n_total
    p0s = stats.multinomial_resample(p_unrotated.probs, p_unrotated.n_shots, plan)
    phs = stats.multinomial_resample(
        post_hom.probs, post_hom.n_shots, stats.ResamplePlan(plan.n_samples, plan.seed + 1)
    )
    depths = np.empty(plan.n_samples, dtype=int)
    for i, sample in enumerate(collective_rows(n, moments(p0s), moments(phs))):
        if method == "parity":
            k = _parity_depth_k(sample)
            depths[i] = (k + 1) if k is not None else _variance_depth_k(sample)[0] + 1
        else:
            depths[i] = _variance_depth_k(sample)[0] + 1
    return DepthResult(
        depth=stats.depth_confidence(depths, level=level),
        method=method,
        n_total=n,
        samples=depths,
        confidence_level=level,
    )


def witness_indefinite_n(rows, weights=None) -> WitnessResult:
    """Variance witness averaged over an indefinite atom number.

    Negative values are impossible for separable states regardless of the
    N-distribution; the per-N contribution of a perfect balanced Fock state
    is -N/(4(N-1)).  ``weights`` are relative frequencies of each N
    (uniform if omitted).
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no data rows")
    if weights is None:
        w = np.full(len(rows), 1.0 / len(rows))
    else:
        w = np.asarray(weights, dtype=float)
        if len(w) != len(rows) or (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be non-negative and match rows")
        w = w / w.sum()
    per_n = {}
    for row in rows:
        n = row.n_total
        if n < 2:
            raise ValueError("witness undefined for N < 2")
        per_n[n] = row.jz2 / n - row.jxjy2 / (n * (n - 1)) + 0.5 / (n - 1)
    value = float(np.sum(w * np.array([per_n[r.n_total] for r in rows])))
    return WitnessResult(value=value, entangled=bool(value < 0.0), threshold=0.0, per_n=per_n)
