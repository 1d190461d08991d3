#!/usr/bin/env python3
"""Regenerate the table of supporting lines of the minimal-variance boundary.

The minimal Var(J_z)/j over spin-j states with <J_x>/j = x (Sorensen &
Molmer, PRL 86, 4431 (2001)) is the upper envelope of the lines
c(mu)/j + mu x, c(mu) = min over spin-j states of Var(J_z) - mu <J_x>.
``homsim.entanglement`` evaluates that envelope from a table written by this
script, one float64 array of shape (MAX_BOUNDARY_DIM, 512): row 0 is the mu
grid, row 2j holds c(mu)/j for 2j = 1 .. MAX_BOUNDARY_DIM - 1.  The offsets
depend only on 2j and the grid, so they are solved once, here, and shipped.

    python3 scripts/boundary_table.py          # rewrites src/homsim/boundary_lines.npy

It takes about two minutes on two cores; most of it goes to 2j near the cap.
"""

import argparse
import math

import numpy as np

from homsim import entanglement

MUS = np.logspace(-3, 3, 512)
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


def offsets(two_j: int) -> np.ndarray:
    """Row 2j of the table: c(mu)/j on :data:`MUS`."""
    return _line_offsets(two_j, MUS) / (two_j / 2.0)


def table() -> np.ndarray:
    """The whole table: the mu grid, then one row per 2j up to the cap."""
    return np.stack([MUS] + [offsets(two_j) for two_j in range(1, entanglement.MAX_BOUNDARY_DIM)])


def main() -> None:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    np.save(entanglement.BOUNDARY_TABLE, table(), allow_pickle=False)


if __name__ == "__main__":
    main()
