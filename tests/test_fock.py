import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsim import channel, cli, fock

import oracles


def test_tmsv_weights_match_geometric_series():
    src = fock.SqueezedSource(xi=0.9)
    d = fock.tmsv_distribution(src, n_max=14)
    w, tail = oracles.tmsv_weights_direct(0.9, 14)
    np.testing.assert_allclose(np.diagonal(d.grid), w, atol=1e-12)
    assert d.grid[1, 0] == 0.0  # pairs only, off-diagonal stays empty
    assert d.tail_mass == pytest.approx(tail, rel=1e-12)


def test_tmsv_mean_pairs_closed_form():
    def mean_pairs(d):
        return float(np.arange(d.n_max + 1) @ np.diagonal(d.grid))

    # on a grid whose tail is below 1e-18 the mean pair number is sinh(xi)^2
    assert mean_pairs(fock.tmsv_distribution(fock.SqueezedSource(xi=1.0), n_max=80)) == pytest.approx(
        1.3810978455418155, abs=1e-14)
    src = fock.SqueezedSource(xi=math.asinh(math.sqrt(7.5 / 2.0)))
    assert mean_pairs(fock.tmsv_distribution(src, n_max=200)) == pytest.approx(3.75, abs=1e-12)
    d = fock.tmsv_distribution(src, n_max=20)
    # truncation pushes the mean below 2 * 3.75 by the tail weight
    total = 2 * mean_pairs(d)
    assert 7.0 < total < 7.5
    assert 0.004 < d.tail_mass < 0.008


def test_tmsv_jitter_matches_dense_average():
    src = fock.SqueezedSource(xi=0.8, xi_jitter=0.1)
    d = fock.tmsv_distribution(src, n_max=12)
    # dense Gaussian average over the pair-amplitude as the reference
    xs = np.linspace(0.8 - 6 * 0.1, 0.8 + 6 * 0.1, 4001)
    pdf = np.exp(-0.5 * ((xs - 0.8) / 0.1) ** 2)
    pdf /= pdf.sum()
    acc = np.zeros(13)
    for x, p in zip(xs, pdf):
        w, _ = oracles.tmsv_weights_direct(max(x, 0.0), 12)
        acc += p * w
    np.testing.assert_allclose(np.diagonal(d.grid), acc, atol=5e-7)


@pytest.mark.parametrize("n_total", range(2, 17, 2))
@pytest.mark.parametrize("theta", [0.1, 0.321, math.pi / 4, math.pi / 2, math.pi])
def test_rotation_kernel_matches_factorial_route(n_total, theta):
    ours = fock._kernel(n_total, theta, np.arange(n_total + 1))
    ref = oracles.kernel_factorial(n_total, theta)
    assert np.abs(ours - ref).max() < 1e-10


# The factorial sums alternate in sign and lose precision as N grows (the
# kernel itself stays within 4e-15 of a 60-digit reference for every N <= 40),
# so each range of N gets its own bound, a few times the largest difference seen.
FACTORIAL_ROUTE_BOUNDS = ((range(0, 17), 2e-13), (range(17, 31), 2e-11), (range(31, 41), 1e-9))


@pytest.mark.parametrize("totals, bound", FACTORIAL_ROUTE_BOUNDS)
def test_kernel_matches_factorial_route_for_every_total(totals, bound):
    # odd totals too: the noise pipeline rotates them with half-integer spin
    for n_total in totals:
        for theta in (0.321, math.pi / 2, 2.5):
            ours = fock._kernel(n_total, theta, np.arange(n_total + 1))
            assert np.abs(ours - oracles.kernel_factorial(n_total, theta)).max() < bound


def test_rotation_kernel_is_doubly_stochastic():
    k = fock._kernel(10, 0.7, np.arange(11))
    np.testing.assert_allclose(k.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(k.sum(axis=1), 1.0, atol=1e-12)
    assert k.min() >= 0.0


def test_rotation_kernel_identity_at_zero():
    np.testing.assert_allclose(fock._kernel(6, 0.0, np.arange(7)), np.eye(7), atol=1e-14)


def test_rotation_kernel_domain_checks():
    with pytest.raises(fock.DomainError):
        fock.twin_fock_output(5, 0.1)
    with pytest.raises(fock.DomainError):
        fock.twin_fock_output(4, -0.1)
    with pytest.raises(fock.DomainError):
        fock.twin_fock_output(4, 3.2)


def counted_eigh(monkeypatch) -> list:
    """Empty the eigensystem cache; the returned list then gets the size of every matrix np.linalg.eigh is given."""
    fock._eigensystem.cache_clear()
    sizes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: sizes.append(len(a)) or eigh(a, *args, **kwargs))
    return sizes


def test_rotation_diagonalizes_once_per_populated_total(monkeypatch):
    sizes = counted_eigh(monkeypatch)
    cfg = cli.RunConfig()
    source = fock.tmsv_distribution(cfg.source(), n_max=cfg.n_max)
    for theta in (0.0, 0.2, math.pi / 2):
        channel.apply_rotation(source, theta)
    assert sorted(sizes) == list(range(1, 2 * cfg.n_max + 2, 2))  # N = 0, 2, ..., 40, one eigh each


def test_rotation_asks_for_one_row_per_populated_total(monkeypatch):
    requested, kernel = [], fock._kernel

    def spy(n_total, theta, *rows):
        requested.append((n_total, *(list(r) for r in rows)))
        return kernel(n_total, theta, *rows)

    monkeypatch.setattr(channel, "_kernel", spy)
    cfg = cli.RunConfig()
    channel.apply_rotation(fock.tmsv_distribution(cfg.source(), n_max=cfg.n_max), 0.2)
    # the pair source populates only (N/2, N/2), at every even N up to 2 n_max
    assert requested == [(n, [n // 2]) for n in range(0, 2 * cfg.n_max + 1, 2)]


def test_twin_fock_output_diagonalizes_once_per_total(monkeypatch):
    sizes = counted_eigh(monkeypatch)
    for n_total in range(2, 13, 2):
        for theta in np.linspace(0.0, math.pi, 5):
            fock.twin_fock_output(n_total, theta)
    assert sorted(sizes) == [3, 5, 7, 9, 11, 13]


def test_cached_eigensystem_is_read_only():
    w, v = fock._eigensystem(6)
    with pytest.raises(ValueError):
        w[0] = 0.0
    with pytest.raises(ValueError):
        v[0, 0] = 0.0


@pytest.mark.parametrize("n_total", range(2, 17, 2))
def test_holland_burnett_matches_both_oracles(n_total):
    closed = oracles.holland_burnett(n_total).probs
    assert np.abs(closed - oracles.arcsine_row(n_total)).max() < 1e-12
    assert np.abs(closed - oracles.kernel_factorial(n_total, math.pi / 2)[n_total // 2]).max() < 1e-10


def test_holland_burnett_small_cases():
    np.testing.assert_allclose(oracles.holland_burnett(2).probs, [0.5, 0.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(
        oracles.holland_burnett(6).probs,
        [0.3125, 0.0, 0.1875, 0.0, 0.1875, 0.0, 0.3125],
        atol=1e-15,
    )


@pytest.mark.parametrize("n_total", [2, 6, 12])
def test_holland_burnett_second_moment(n_total):
    m = fock.collective_moments(oracles.holland_burnett(n_total))
    assert 2 * m.jz2 == pytest.approx((n_total / 2) * (n_total / 2 + 1), abs=1e-12)
    assert m.mean_jz == pytest.approx(0.0, abs=1e-12)
    assert m.parity == pytest.approx(1.0, abs=1e-12)


def test_twin_fock_output_equals_holland_burnett_at_half_pi():
    for n in (2, 8, 14):
        np.testing.assert_allclose(
            fock.twin_fock_output(n, math.pi / 2).probs,
            oracles.holland_burnett(n).probs,
            atol=1e-12,
        )


def test_collective_moments_delta():
    d = fock.FixedNDistribution(n_total=4, probs=np.array([0, 0, 1.0, 0, 0]))
    m = fock.collective_moments(d)
    assert m.mean_jz == 0.0
    assert m.var_jz == 0.0
    assert m.parity == 1.0


def test_fixed_n_slices_and_errors():
    grid = np.zeros((7, 7))
    grid[2, 2] = 1.0  # two atoms in each mode
    d = fock.TwoModeDistribution(grid=grid, n_max=6)
    sub = d.fixed_n(4)
    assert sub.n_total == 4
    assert sub.probs[2] == 1.0
    with pytest.raises(fock.CapacityError):
        d.fixed_n(13)
    with pytest.raises(fock.CapacityError, match="N=8 outside 0..n_max=6"):
        d.fixed_n(8)  # on a 6-atom grid (8, 0) and (0, 8) are cut off
    with pytest.raises(ValueError):
        d.fixed_n(3)  # no mass at odd totals


def test_distribution_validation_catches_bad_grids():
    bad = np.zeros((5, 5))
    bad[0, 0] = 0.7
    with pytest.raises(ValueError):
        oracles.validate(fock.TwoModeDistribution(grid=bad, n_max=4))
    with pytest.raises(ValueError):
        oracles.validate(fock.FixedNDistribution(n_total=2, probs=np.array([0.5, 0.5, 0.5])))


@settings(max_examples=40, deadline=None)
@given(
    n_total=st.integers(min_value=1, max_value=10).map(lambda k: 2 * k),
    theta=st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
)
def test_kernel_rows_are_distributions(n_total, theta):
    k = fock._kernel(n_total, theta, np.arange(n_total + 1))
    assert np.all(k >= 0)
    np.testing.assert_allclose(k.sum(axis=1), 1.0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8))
def test_collective_moments_bounds(weights):
    probs = np.asarray(weights) / np.sum(weights)
    n = len(probs) - 1
    m = fock.collective_moments(fock.FixedNDistribution(n_total=n, probs=probs))
    assert -1.0 - 1e-12 <= m.parity <= 1.0 + 1e-12
    assert m.var_jz >= -1e-12
    assert abs(m.mean_jz) <= n / 2 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n_total=st.integers(min_value=1, max_value=14),
    rows=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_moments_of_a_stack_equal_the_rows(n_total, rows, seed):
    # multinomial frequencies, as the resampling paths produce them
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_total + 1))
    stack = rng.multinomial(200, probs, size=rows) / 200
    stacked = fock.moments(stack)
    for i, row in enumerate(stack):
        one = fock.moments(row)
        for name in ("mean_jz", "jz2", "var_jz", "parity"):
            assert getattr(stacked, name)[i] == getattr(one, name)  # same bits
        jz = [k - n_total / 2 for k in range(n_total + 1)]
        mean = sum(p * z for p, z in zip(row, jz))
        jz2 = sum(p * z * z for p, z in zip(row, jz))
        parity = sum(p * (-1) ** (n_total - k) for k, p in enumerate(row))
        assert one.mean_jz == pytest.approx(mean, abs=1e-12)
        assert one.jz2 == pytest.approx(jz2, abs=1e-12)
        assert one.var_jz == pytest.approx(max(jz2 - mean**2, 0.0), abs=1e-12)
        assert one.parity == pytest.approx(parity, abs=1e-12)
