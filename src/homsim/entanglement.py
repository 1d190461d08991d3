"""Entanglement witnesses and depth criteria for collective-spin data.

Inputs are a handful of collective moments per atom number N: the J_z
variance of the unrotated state, <J_x^2 + J_y^2> inferred after a pi/2
coupling pulse, and product parities <sigma_i^(xN)>.  From these the module
certifies entanglement (parity-sum and indefinite-N variance witnesses) and
lower-bounds the entanglement depth by two routes: a parity-assisted
inequality valid for partitions with k >= N/2, and a variance criterion
built on the minimal-variance boundary F_j of spin-j states.  Both routes run
in one array routine over the rows of one record, :class:`CollectiveData`:
a point estimate is one row, and :func:`depth_with_resampling` returns both
depths from a stack of resampled moments.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import stats
from .fock import CollectiveMoments, DomainError
from .metrology import is_number, jxjy2_estimate

MAX_BOUNDARY_DIM = 64  # largest (2j+1) in the boundary table


@dataclass(frozen=True)
class CollectiveData:
    """Collective moments of one fixed-N dataset (floats) or of a stack of its resamples (arrays).

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
        if np.any(self.var_jz < 0):
            raise ValueError("variance must be non-negative")
        if np.any(self.jxjy2 < 0):
            raise ValueError("<Jx^2+Jy^2> must be non-negative")
        for name in ("parity_z", "parity_x", "parity_y"):
            v = getattr(self, name)
            if v is not None and np.any(np.abs(v) > 1 + 1e-9):
                raise ValueError(f"{name} outside [-1, 1]")
        if self.parity_y is None:
            object.__setattr__(self, "parity_y", self.parity_x)

    @property
    def jz2(self) -> float:
        return self.var_jz + self.mean_jz**2

    @property
    def symmetry_J(self) -> float:
        """Fraction of the maximal symmetric-subspace transverse spread, 1 = fully symmetric."""
        return self.jxjy2 / (self.n_total * (self.n_total + 2) / 4.0)

    @classmethod
    def from_json(cls, row: dict) -> "CollectiveData":
        """A row of stored moments; keys that are not fields are ignored."""
        if not isinstance(row, dict):
            raise ValueError(f"collective-moment row is not an object: {row!r}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in row]
        if missing:
            raise ValueError(f"collective-moment row lacks {', '.join(missing)}: {row}")
        values = {k: row[k] for k in row if k in cls.__dataclass_fields__}
        wrong = [k for k, v in values.items() if not (is_number(v) or k == "parity_y" and v is None)]
        if wrong:
            raise ValueError(f"collective-moment row has non-numeric {', '.join(wrong)}: {row}")
        if not isinstance(values["n_total"], int):
            raise ValueError(f"collective-moment row has a non-integer n_total: {row}")
        return cls(**values)


def collective_data(n_total: int, m0: CollectiveMoments, mh: CollectiveMoments) -> CollectiveData:
    """Witness and depth inputs from the moments of the two measured J_z histograms, or of stacks of their resamples.

    The unrotated histogram (m0) supplies Var(J_z) and the z product parity;
    the post-pi/2 histogram (mh) supplies <Jx^2+Jy^2> and the x parity (J_x
    has been mapped onto the measured axis).
    """
    return CollectiveData(n_total=n_total, jxjy2=jxjy2_estimate(mh), var_jz=m0.var_jz,
                          parity_z=m0.parity, parity_x=mh.parity, mean_jz=m0.mean_jz)


@dataclass(frozen=True)
class WitnessResult:
    value: float
    entangled: bool
    per_n: dict = field(default_factory=dict)


def parity_witness_xyz(data: CollectiveData) -> WitnessResult:
    """Sum of the three product-parity magnitudes; above one needs entanglement."""
    value = abs(data.parity_x) + abs(data.parity_y) + abs(data.parity_z)
    return WitnessResult(value=float(value), entangled=bool(value > 1.0))


# ---------------------------------------------------------------------------
# minimal-variance boundary of spin-j states


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


@lru_cache(maxsize=None)
def _envelope(two_j: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Indices of the lines ever on top, the x where each takes over, and a window width.

    A line taking over from the one before at or past where the next takes
    over from it is never on top; such lines go until the takeovers increase
    (260 of 513 stay at 2j = 1, all above).  A window spans a top line's
    neighbours and the hidden lines between, which round above both where
    many lines meet (near x = 1 at 2j = 1).
    """
    slopes, offsets = _boundary_lines(two_j)
    top = np.arange(len(slopes))
    while True:
        takeover = (offsets[top[:-1]] - offsets[top[1:]]) / (slopes[top[1:]] - slopes[top[:-1]])
        hidden = np.flatnonzero(takeover[1:] <= takeover[:-1]) + 1
        if not len(hidden):
            return top, takeover, int(np.max(top[2:] - top[:-2])) + 1
        top = np.delete(top, hidden)


def sm_boundary(j: float, x):
    """Minimal Var(J_z)/j over spin-j states with <J_x>/j = x, elementwise in x.

    Convex, zero at x = 0, one half at x = 1.  Evaluated as the upper
    envelope of tabulated supporting lines with exact offsets (:func:`_boundary_lines`),
    as the max over the window of lines around the one on top at each x
    (:func:`_envelope`; three lines, 252 at 2j = 1); it equals the max over
    all lines bit for bit.  A scalar ``x`` gives a float.
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
    top, takeover, window = _envelope(two_j)
    flat = x.ravel()
    first = top[np.maximum(np.searchsorted(takeover, flat) - 1, 0)]
    rows = np.minimum(first[:, None] + np.arange(window), len(slopes) - 1)
    out = np.maximum(np.max(offsets[rows] + slopes[rows] * flat[:, None], axis=1), 0.0).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# depth criteria


@dataclass(frozen=True)
class DepthResult:
    """Certified lower bound on the entanglement depth.

    ``method`` records which route certified the bound: "parity",
    "variance", or "fallback" when the parity route found no violation and
    deferred to the variance route.  ``clamped_k`` lists block sizes whose
    square-root argument was negative (criterion not applicable there),
    ``unevaluated_k`` those left uncertified as their boundary is beyond the table.
    """

    depth: int
    method: str
    n_total: int
    clamped_k: tuple = ()
    unevaluated_k: tuple = ()
    confidence_level: float | None = None


def _pair_spread(n: int) -> float:
    # max <Jx^2+Jy^2> of an n-atom block; odd blocks lose the quarter
    v = (n / 2.0) * (n / 2.0 + 1.0)
    return v if n % 2 == 0 else v - 0.25


def _criteria(data: CollectiveData) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both depth criteria, one entry per row of ``data``.

    Returns the largest block size k beaten by the parity inequality (-1 if
    none), the largest beaten by the variance criterion (0 if none), whether
    any variance bound applies at each k >= 2 (column k - 2), and whether a
    row needed a boundary beyond the table there, which leaves it unbeaten by
    that bound.  Only block sizes are looped over; each boundary is evaluated
    at most once per (k, bound), on the rows it decides: those not yet beaten
    whose square-root argument lies below one.
    """
    n, rows = data.n_total, (data.jxjy2, data.var_jz, data.parity_z)
    jxjy2, var_jz, parity_z = (np.atleast_1d(np.asarray(a, dtype=float)) for a in rows)
    jmax = n / 2.0
    parity_k = np.full(len(jxjy2), -1)
    for k in range(math.ceil(n / 2), n):
        parity_k[jxjy2 + k * (n - k) / 2.0 * np.abs(parity_z) > jmax * (jmax + 1)] = k

    variance_k = np.where((n - 1) * var_jz - jxjy2 + n / 2.0 < 0, 1, 0)
    applies = np.zeros((len(jxjy2), n - 2), dtype=bool)
    unevaluated = np.zeros_like(applies)
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
            if k + 1 > MAX_BOUNDARY_DIM:
                unevaluated[:, k - 2] |= below
            elif below.any():
                violated[below] = var_jz[below] < jmax * sm_boundary(k / 2.0, arg[below])
            applies[:, k - 2] |= num > 0
        variance_k[violated] = k
    return parity_k, variance_k, applies, unevaluated


def _depths(data: CollectiveData) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Each route's depth per row of ``data`` (k + 1 for the largest block size k beaten; the parity route
    takes the variance route's k where it beats none), where the parity route beat one, and the block sizes
    a DepthResult notes: row 0's clamped k and the k that any row left unevaluated."""
    parity_k, variance_k, applies, unevaluated = _criteria(data)
    notes = {name: tuple((np.flatnonzero(m) + 2).tolist())
             for name, m in (("clamped_k", ~applies[0]), ("unevaluated_k", unevaluated.any(axis=0)))}
    return np.where(parity_k >= 0, parity_k, variance_k) + 1, variance_k + 1, parity_k >= 0, notes


def depth_parity(data: CollectiveData) -> DepthResult:
    """Depth from the parity-assisted spread inequality, valid for k >= N/2.

    The largest block size k whose k-producible bound is beaten certifies
    depth k+1.  States below the inequality for every admissible k fall back
    to the variance criterion.
    """
    if data.n_total % 2:
        raise DomainError("parity criterion defined for even N")
    parity, _, certified, notes = _depths(data)
    method, notes = ("parity", {}) if certified[0] else ("fallback", notes)
    return DepthResult(depth=int(parity[0]), method=method, n_total=data.n_total, **notes)


def depth_variance(data: CollectiveData) -> DepthResult:
    """Depth from low J_z variance at large transverse spread.

    Two k-producibility bounds are checked per block size (a boundary-curve
    one and a block-decomposition one) and the stronger verdict kept.
    Square-root arguments at or above one mean the measured spread already
    exceeds anything k-producible: trivially violated.  Negative arguments
    make the criterion inapplicable at that k (recorded, not certified).
    """
    _, variance, _, notes = _depths(data)
    return DepthResult(depth=int(variance[0]), method="variance", n_total=data.n_total, **notes)


def depth_with_resampling(data: CollectiveData, level: float = 0.68) -> tuple[DepthResult, DepthResult]:
    """Parity and variance depths at a confidence level, from a stack of resampled moments.

    ``data`` is :func:`collective_data` of the moment stacks of matching
    resamples of the unrotated and the post-pi/2 histogram.  Both criteria
    run on the whole stack, the parity route falling back per sample as in
    :func:`depth_parity`.  Each reported depth is the largest one reached by
    at least ``level`` of the samples, and ``unevaluated_k`` holds every
    sample's.  Returns ``(parity, variance)``.
    """
    if data.n_total % 2:
        raise DomainError("parity criterion defined for even N")
    parity, variance, _, notes = _depths(data)
    return tuple(
        DepthResult(depth=stats.depth_confidence(depths, level=level), method=method, n_total=data.n_total,
                    unevaluated_k=notes["unevaluated_k"], confidence_level=level)
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
    w = np.ones(len(rows)) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (len(rows),) or not np.isfinite(w).all() or (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be finite, non-negative and one per row")
    w = w / w.sum()
    per_n = {}
    for row in rows:
        n = row.n_total
        if n < 2:
            raise ValueError("witness undefined for N < 2")
        if n in per_n:
            raise ValueError(f"atom number N = {n} appears in more than one row")
        per_n[n] = row.jz2 / n - row.jxjy2 / (n * (n - 1)) + 0.5 / (n - 1)
    value = float(np.sum(w * np.array(list(per_n.values()))))
    return WitnessResult(value=value, entangled=bool(value < 0.0), per_n=per_n)
