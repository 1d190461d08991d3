"""Entanglement witnesses and depth criteria for collective-spin data.

Inputs are a handful of collective moments per atom number N: the J_z
variance of the unrotated state, <J_x^2 + J_y^2> inferred after a pi/2
coupling pulse, and product parities <sigma_i^(xN)>.  From these the module
certifies entanglement (parity-sum and indefinite-N variance witnesses) and
lower-bounds the entanglement depth by two routes: a parity-assisted
inequality valid for partitions with k >= N/2, and a variance criterion
built on the minimal-variance boundary F_j of spin-j states.  Both routes run
in one array routine over rows of moments: a point estimate is one row, and
:func:`depth_with_resampling` returns both depths from one resample draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import stats
from .fock import CollectiveMoments, DomainError, FixedNDistribution, collective_moments, moments
from .metrology import jxjy2_estimate

MAX_BOUNDARY_DIM = 64  # largest (2j+1) in the boundary table


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
        """Fraction of the maximal symmetric-subspace transverse spread, 1 = fully symmetric."""
        return float(self.jxjy2 / (self.n_total * (self.n_total + 2) / 4.0))

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


def collective_data(n_total: int, m0: CollectiveMoments, mh: CollectiveMoments) -> CollectiveData:
    """Witness inputs from the moments of the two measured J_z histograms.

    The unrotated histogram (m0) supplies Var(J_z) and the z product parity;
    the post-pi/2 histogram (mh) supplies <Jx^2+Jy^2> and the x parity (J_x
    has been mapped onto the measured axis).
    """
    return CollectiveData(
        n_total=n_total, jxjy2=float(jxjy2_estimate(mh)), var_jz=float(m0.var_jz),
        parity_z=float(m0.parity), parity_x=float(mh.parity), mean_jz=float(m0.mean_jz),
    )


def collective_from_distributions(p_unrotated: FixedNDistribution, post_hom: FixedNDistribution) -> CollectiveData:
    """:func:`collective_data` of the two histograms themselves."""
    if p_unrotated.n_total != post_hom.n_total:
        raise ValueError("histograms belong to different N")
    return collective_data(p_unrotated.n_total, collective_moments(p_unrotated), collective_moments(post_hom))


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


# ---------------------------------------------------------------------------
# minimal-variance boundary of spin-j states


_STACK_ENTRIES = 1 << 16  # array entries per envelope chunk (512 KB)
BOUNDARY_TABLE = Path(__file__).with_name("boundary_lines.npy")


@lru_cache(maxsize=None)
def _boundary_lines(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Supporting lines v >= c(mu)/j + mu x of the boundary, mu on a log grid.

    c(mu) is the exact min over spin-j states of Var(Jz) - mu <Jx>.  The grid
    (row 0) and the offsets c(mu)/j (row 2j) are read from a table that
    ``scripts/boundary_table.py`` solves once and writes.  Their upper envelope
    is the boundary; a huge-mu line through the coherent state along x
    (Var = j/2 at x = 1) closes it exactly at the right end.
    """
    table = np.load(BOUNDARY_TABLE, mmap_mode="r", allow_pickle=False)
    return np.append(table[0], 1e9), np.append(table[two_j], 0.5 - 1e9)


def sm_boundary(j: float, x):
    """Minimal Var(J_z)/j over spin-j states with <J_x>/j = x, elementwise in x.

    Convex, zero at x = 0, one half at x = 1.  Evaluated as the upper
    envelope of tabulated supporting lines with exact offsets (:func:`_boundary_lines`),
    in row chunks so that memory stays flat in the size of ``x``.  A scalar
    ``x`` gives a float.
    """
    two_j = int(round(2 * j))
    if two_j < 1 or abs(2 * j - two_j) > 1e-12:
        raise DomainError("j must be a positive half-integer")
    if two_j + 1 > MAX_BOUNDARY_DIM:
        raise DomainError(f"spin too large: 2j+1 must stay <= {MAX_BOUNDARY_DIM}")
    x = np.asarray(x, dtype=float)
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise DomainError("normalized mean spin must lie in [0, 1]")
    slopes, offsets = _boundary_lines(two_j)
    flat = x.ravel()
    out = np.empty(len(flat))
    chunk = max(1, _STACK_ENTRIES // len(slopes))
    for s in range(0, len(flat), chunk):
        out[s:s + chunk] = np.max(offsets + slopes * flat[s:s + chunk, None], axis=1)
    out = np.maximum(out, 0.0).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


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


def _pair_spread(n: int) -> float:
    # max <Jx^2+Jy^2> of an n-atom block; odd blocks lose the quarter
    v = (n / 2.0) * (n / 2.0 + 1.0)
    return v if n % 2 == 0 else v - 0.25


def _criteria(n: int, jxjy2, var_jz, parity_z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both depth criteria at atom number ``n``, one entry per row of moments.

    Returns the largest block size k beaten by the parity inequality (-1 if
    none), the largest beaten by the variance criterion (0 if none), and
    whether any variance bound applies at each k >= 2 (column k - 2).  Only
    block sizes are looped over; each boundary is evaluated at most once per
    (k, bound), on the rows it decides: those not yet beaten whose
    square-root argument lies below one.
    """
    jxjy2, var_jz, parity_z = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (jxjy2, var_jz, parity_z))
    jmax = n / 2.0
    parity_k = np.full(len(jxjy2), -1)
    for k in range(math.ceil(n / 2), n):
        parity_k[jxjy2 + k * (n - k) / 2.0 * np.abs(parity_z) > jmax * (jmax + 1)] = k

    variance_k = np.where((n - 1) * var_jz - jxjy2 + n / 2.0 < 0, 1, 0)
    applies = np.zeros((len(jxjy2), n - 2), dtype=bool)
    for k in range(2, n):
        blocks = n // k
        # the boundary bound, then the block-decomposition one; jmax - k/2 > 0 as k < n
        num1 = jxjy2 - jmax * (k / 2.0 + 1.0)
        num2 = jxjy2 - (blocks * _pair_spread(k) + _pair_spread(n - blocks * k))
        violated = np.zeros(len(jxjy2), dtype=bool)
        for num, arg in ((num1, np.sqrt(np.maximum(num1, 0.0) / (jmax * (jmax - k / 2.0)))),
                         (num2, np.sqrt(np.maximum(num2, 0.0)) / jmax)):
            violated |= (num > 0) & (arg >= 1.0)
            below = (num > 0) & (arg < 1.0) & ~violated  # the boundary only where it decides
            if below.any():
                violated[below] = var_jz[below] < jmax * sm_boundary(k / 2.0, arg[below])
            applies[:, k - 2] |= num > 0
        variance_k[violated] = k
    return parity_k, variance_k, applies


def _point_criteria(data: CollectiveData) -> tuple[int, int, tuple]:
    """:func:`_criteria` of one row, with the clamped (inapplicable) block sizes."""
    parity_k, variance_k, applies = _criteria(data.n_total, data.jxjy2, data.var_jz, data.parity_z)
    return int(parity_k[0]), int(variance_k[0]), tuple((np.flatnonzero(~applies[0]) + 2).tolist())


def depth_parity(data: CollectiveData) -> DepthResult:
    """Depth from the parity-assisted spread inequality, valid for k >= N/2.

    The largest block size k whose k-producible bound is beaten certifies
    depth k+1.  States below the inequality for every admissible k fall back
    to the variance criterion.
    """
    if data.n_total % 2:
        raise DomainError("parity criterion defined for even N")
    parity_k, variance_k, clamped = _point_criteria(data)
    if parity_k < 0:
        return DepthResult(depth=variance_k + 1, method="fallback", n_total=data.n_total, clamped_k=clamped)
    return DepthResult(depth=parity_k + 1, method="parity", n_total=data.n_total)


def depth_variance(data: CollectiveData) -> DepthResult:
    """Depth from low J_z variance at large transverse spread.

    Two k-producibility bounds are checked per block size (a boundary-curve
    one and a block-decomposition one) and the stronger verdict kept.
    Square-root arguments at or above one mean the measured spread already
    exceeds anything k-producible: trivially violated.  Negative arguments
    make the criterion inapplicable at that k (recorded, not certified).
    """
    _, variance_k, clamped = _point_criteria(data)
    return DepthResult(depth=variance_k + 1, method="variance", n_total=data.n_total, clamped_k=clamped)


def depth_with_resampling(
    p_unrotated: FixedNDistribution,
    post_hom: FixedNDistribution,
    plan: stats.ResamplePlan,
    level: float = 0.68,
) -> tuple[DepthResult, DepthResult]:
    """Parity and variance depths at a confidence level, from one resample draw.

    Both histograms are resampled once (:func:`stats.resample_pair`) and both
    criteria run on the whole stack of moments; the parity route falls back
    to the variance one per sample, as :func:`depth_parity` does.  Each
    reported depth is the largest one reached by at least ``level`` of the
    samples.  Returns ``(parity, variance)``.
    """
    n = p_unrotated.n_total
    if post_hom.n_total != n:
        raise ValueError("histograms belong to different N")
    if n < 2:
        raise ValueError("need at least two atoms")
    if n % 2:
        raise DomainError("parity criterion defined for even N")
    m0, mh = (moments(s) for s in stats.resample_pair(p_unrotated, post_hom, plan))
    parity_k, variance_k, _ = _criteria(n, jxjy2_estimate(mh), m0.var_jz, m0.parity)
    variance = variance_k + 1
    parity = np.where(parity_k >= 0, parity_k + 1, variance)
    return tuple(
        DepthResult(depth=stats.depth_confidence(depths, level=level), method=method, n_total=n,
                    samples=depths, confidence_level=level)
        for method, depths in (("parity", parity), ("variance", variance))
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
