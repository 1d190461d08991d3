"""Exact two-mode Fock states, squeezed-vacuum sources, and the rotation kernel.

The two side modes are labelled ``+`` and ``-``.  Joint statistics live on an
``(n_max+1) x (n_max+1)`` probability grid indexed ``[n_plus, n_minus]``; the
statistics of a fixed total atom number ``N = n_plus + n_minus`` live on a
ladder indexed by ``Jz = (n_plus - n_minus)/2``.

Amplitudes never leave this module.  A mode coupling (beam-splitter pulse) is
represented by rows of the matrix of squared rotation amplitudes of the
collective spin ``j = N/2``, one row per populated input; only those
probabilities are observable here, so the axis phase convention of the pulse
is irrelevant and rotations about x and y give the identical kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class CapacityError(ValueError):
    """Requested occupation does not fit on the configured grid."""


class DomainError(ValueError):
    """Argument outside the physically meaningful range."""


@dataclass(frozen=True)
class TwoModeDistribution:
    """Joint probability grid over occupations of the two side modes.

    grid[n_plus, n_minus] is the probability of detecting that pair of
    occupations.  ``tail_mass`` accumulates probability that fell off the
    grid during construction or propagation; the grid itself is always
    renormalized, so the tail is a diagnostic, not missing mass.
    """

    grid: np.ndarray
    n_max: int
    tail_mass: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.shape != (self.n_max + 1, self.n_max + 1):
            raise ValueError(f"grid shape {g.shape} does not match n_max={self.n_max}")
        g = g.copy()
        g.flags.writeable = False
        object.__setattr__(self, "grid", g)

    def fixed_n(self, n_total: int) -> "FixedNDistribution":
        """Renormalized distribution on the anti-diagonal n_plus + n_minus = n_total, which must lie on the grid."""
        check_capacity(n_total, self.n_max)  # above n_max, renormalizing the on-grid part would misstate the slice
        idx = np.arange(n_total + 1)
        probs = self.grid[idx, n_total - idx]
        s = probs.sum()
        if s <= 0:
            raise ValueError(f"no probability mass at N={n_total}")
        return FixedNDistribution(n_total=n_total, probs=probs / s)


def check_capacity(n_total: int, n_max: int) -> None:
    """Raise CapacityError unless the anti-diagonal n_plus + n_minus = n_total lies on the 0..n_max grid."""
    if not 0 <= n_total <= n_max:
        raise CapacityError(f"N={n_total} outside 0..n_max={n_max}: part of its anti-diagonal is off the grid")


def _antidiagonal_indices(n_total: int, n_max: int) -> np.ndarray:
    """n_plus values that keep both occupations on an n_max grid."""
    return np.arange(max(0, n_total - n_max), min(n_total, n_max) + 1)


@dataclass(frozen=True)
class FixedNDistribution:
    """Probabilities over Jz = (n_plus - n_minus)/2 at fixed total atom number.

    ``probs[k]`` belongs to Jz = k - N/2, i.e. to n_plus = k.  Odd totals are
    representable (noise produces them) but carry half-integer Jz; ideal
    pair-created sources only ever populate even N.  ``n_shots`` preserves the
    sample size when the distribution came from counting data.
    """

    n_total: int
    probs: np.ndarray
    n_shots: int | None = None

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.n_total + 1,):
            raise ValueError(f"probs length {p.shape} does not match N={self.n_total}")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class SqueezedSource:
    """Pair-creating source; xi is the dimensionless squeezing parameter.

    The pair-number distribution decays geometrically with ratio tanh(xi)^2.
    ``xi_jitter`` adds an optional shot-to-shot Gaussian spread of xi, the
    minimal one-parameter departure from a plain geometric decay (off by
    default).  The coupling-rate and pulse-time product that would realize a
    given xi in hardware is deliberately not modelled here.
    """

    xi: float
    xi_jitter: float = 0.0

    def __post_init__(self):
        if self.xi < 0:
            raise DomainError("xi must be non-negative")
        if self.xi_jitter < 0:
            raise DomainError("xi_jitter must be non-negative")


@dataclass(frozen=True)
class CollectiveMoments:
    """Jz moments of one histogram (floats) or of a stack of them (arrays)."""

    mean_jz: float
    jz2: float
    var_jz: float
    parity: float


def tmsv_distribution(source: SqueezedSource, n_max: int) -> TwoModeDistribution:
    """Two-mode squeezed vacuum truncated to the grid diagonal.

    p(n, n) is proportional to tanh(xi)^(2n)/cosh(xi)^2 and renormalized over
    n <= n_max; the discarded geometric tail is reported as ``tail_mass``.
    With jitter the result is a 32-node Gauss-Hermite average over xi values,
    clipped at xi >= 0.
    """
    if source.xi_jitter > 0:
        nodes, weights = np.polynomial.hermite.hermgauss(32)
        weights = weights / np.sqrt(np.pi)
        xis = np.clip(source.xi + np.sqrt(2.0) * source.xi_jitter * nodes, 0.0, None)
    else:
        xis = np.array([source.xi])
        weights = np.array([1.0])

    diag = np.zeros(n_max + 1)
    tail = 0.0
    n = np.arange(n_max + 1)
    for xi, w in zip(xis, weights):
        ratio = np.tanh(xi) ** 2
        p = ratio**n
        p /= p.sum()
        diag += w * p
        tail += w * ratio ** (n_max + 1)
    diag /= diag.sum()  # quadrature weights sum to 1 only asymptotically

    grid = np.zeros((n_max + 1, n_max + 1))
    grid[n, n] = diag
    return TwoModeDistribution(grid=grid, n_max=n_max, tail_mass=float(tail))


@lru_cache(maxsize=None)
def _eigensystem(n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenvalues w and eigenvectors V of Jx for spin j = N/2, in the Jz basis."""
    j = n_total / 2.0
    m = np.arange(n_total + 1) - j
    off = 0.5 * np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w.flags.writeable = v.flags.writeable = False
    return w, v


def _kernel(n_total: int, theta: float, rows) -> np.ndarray:
    """Rows ``rows`` (input Jz) of |<Jz_out| exp(-i theta Jx) |Jz_in>|^2 for collective spin j = N/2.

    Index k is Jz = k - N/2.  Row k of the propagator is (V[k] e^{-i theta w}) V^T,
    from the eigensystem of Jx computed once per N for every angle; all N + 1
    rows form a symmetric, doubly stochastic matrix.  Valid for odd N as well
    (half-integer j), which the noise pipeline needs.
    """
    w, v = _eigensystem(n_total)
    u = (v[rows] * np.exp(-1j * theta * w)) @ v.T
    return np.clip(np.abs(u) ** 2, 0.0, 1.0)


def twin_fock_output(n_total: int, theta: float) -> FixedNDistribution:
    """Exact output of a twin input (Jz_in = 0) after a theta pulse: at pi/2, the discrete arcsine law."""
    if n_total % 2 != 0 or n_total < 0 or not 0.0 <= theta <= np.pi:
        raise DomainError("twin_fock_output needs an even total atom number >= 0 and theta in [0, pi]")
    row = _kernel(n_total, float(theta), n_total // 2)
    return FixedNDistribution(n_total=n_total, probs=row / row.sum())


def moments(probs) -> CollectiveMoments:
    """Mean, second moment, variance of Jz, and the occupation parity.

    ``probs[..., k]`` belongs to Jz = k - N/2; leading axes are a stack
    (e.g. resamples) and each field has their shape.  The parity of a
    fixed-N outcome is (-1)^(N/2 - Jz) = (-1)^(N - n_plus), an integer power
    for odd totals too.  Round-off is kept inside the physical range: the
    variance is clamped at zero and the parity clipped to [-1, 1].  Every
    row is reduced by the same pairwise sum, so a stacked row gives the same
    bits as the row on its own.
    """
    p = np.asarray(probs, dtype=float)
    n_total = p.shape[-1] - 1
    jz = np.arange(n_total + 1) - n_total / 2.0
    signs = np.where((n_total - np.arange(n_total + 1)) % 2 == 0, 1.0, -1.0)
    mean = (p * jz).sum(axis=-1)
    jz2 = (p * jz**2).sum(axis=-1)
    return CollectiveMoments(
        mean_jz=mean,
        jz2=jz2,
        var_jz=np.maximum(jz2 - mean**2, 0.0),
        parity=np.clip((p * signs).sum(axis=-1), -1.0, 1.0),
    )


def collective_moments(dist: FixedNDistribution) -> CollectiveMoments:
    """:func:`moments` of one distribution, as plain floats."""
    m = moments(dist.probs)
    return CollectiveMoments(*(float(v) for v in (m.mean_jz, m.jz2, m.var_jz, m.parity)))

