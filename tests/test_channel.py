"""Stage-by-stage channel checks against the enumeration oracles."""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, norm, poisson

import oracles
from homsim import channel, cli, fock, metrology, stats

REF = channel.REFERENCE_PARAMS
BENCH = Path(__file__).resolve().parents[1] / "bench"


def random_dist(seed: int, n_max: int = 8, fit_grid: bool = False) -> fock.TwoModeDistribution:
    rng = np.random.default_rng(seed)
    grid = rng.random((n_max + 1, n_max + 1))
    if fit_grid:
        # keep mass only on anti-diagonals that fit the grid completely
        i, j = np.indices(grid.shape)
        grid[i + j > n_max] = 0.0
    grid /= grid.sum()
    return fock.TwoModeDistribution(grid=grid, n_max=n_max)


def test_params_reject_bad_values():
    with pytest.raises(ValueError):
        replace(REF, a_plus=-0.1)
    with pytest.raises(ValueError):
        replace(REF, l_minus=1.3)
    with pytest.raises(ValueError):
        replace(REF, skew=0.0)
    for skew in (0.9, 4.5):  # sqrt(skew) - 1 outside [0, 1]
        with pytest.raises(ValueError, match="skew"):
            replace(REF, skew=skew)


def test_params_json_round_trip():
    p = replace(REF, blur_plus=channel.BlurLaw(sigma0=0.2, c1=0.03, g=900.0, b=12.0))
    q = channel.NoiseModelParams.from_json(p.to_json())
    assert q == p
    # defaults fill in when blur/skew are omitted
    bare = channel.NoiseModelParams.from_json(
        {"a_plus": 0.1, "a_minus": 0.2, "l_plus": 0.01, "l_minus": 0.02}
    )
    assert bare.skew == 1.052
    assert bare.blur_minus == channel.DEFAULT_BLUR_MINUS


def test_skew_shift_probability_frozen_value():
    assert channel.skew_shift_probability(1.052) == pytest.approx(0.02567051239664675, abs=1e-16)
    assert channel.skew_shift_probability(1.0) == 0.0


def test_rotation_preserves_total_number_marginal():
    d = random_dist(0, fit_grid=True)
    out = channel.apply_rotation(d, 0.7)
    i, j = np.indices(d.grid.shape)

    def marginal(dist):  # P(N), summed over the anti-diagonals i + j = N
        return np.bincount((i + j).ravel(), weights=dist.grid.ravel())

    np.testing.assert_allclose(marginal(out), marginal(d), atol=1e-12)
    assert out.tail_mass == pytest.approx(d.tail_mass, abs=1e-12)


def test_rotation_at_zero_is_identity():
    d = random_dist(1)
    out = channel.apply_rotation(d, 0.0)
    np.testing.assert_allclose(out.grid, d.grid, atol=1e-12)


@pytest.mark.parametrize("theta", [0.321, math.pi / 2, 2.5])
def test_rotation_matches_factorial_kernel_on_a_dense_grid(theta):
    # every entry is populated, so every anti-diagonal, odd and off-grid ones included, uses all its rows
    d = random_dist(5)
    ref = np.zeros_like(d.grid)
    for n_total in range(2 * d.n_max + 1):
        idx = np.arange(max(0, n_total - d.n_max), min(n_total, d.n_max) + 1)
        full = np.zeros(n_total + 1)
        full[idx] = d.grid[idx, n_total - idx]
        ref[idx, n_total - idx] = (full @ oracles.kernel_factorial(n_total, theta))[idx]
    out = channel.apply_rotation(d, theta)
    np.testing.assert_allclose(out.grid, ref / ref.sum(), atol=1e-13)
    assert out.tail_mass == pytest.approx(1.0 - ref.sum(), abs=1e-13)


def test_rotation_overflow_goes_to_tail():
    # all mass at (n_max, n_max): the anti-diagonal extends off-grid, so the
    # rotation must leak probability into the tail
    n_max = 4
    grid = np.zeros((n_max + 1, n_max + 1))
    grid[n_max, n_max] = 1.0
    d = fock.TwoModeDistribution(grid=grid, n_max=n_max)
    out = channel.apply_rotation(d, math.pi / 2)
    assert out.tail_mass > 0.1
    oracles.validate(out)


def test_influx_matches_enumeration():
    d = random_dist(2)
    out = channel.convolve_poisson_influx(d.grid, 0.3, 0.12)
    ref, lost_p = oracles.influx_enumerated(d.grid, 0.3, 0)
    ref, lost_m = oracles.influx_enumerated(ref, 0.12, 1)
    np.testing.assert_allclose(out, ref, atol=1e-12)
    np.testing.assert_allclose(out / out.sum(), ref / ref.sum(), atol=1e-12)
    # what the stage pushes off the grid is the tail: 1 - output mass
    assert 1.0 - out.sum() == pytest.approx(1.0 - ref.sum(), abs=1e-10)


def test_influx_single_atom_probability():
    # delta at (0, 0): one added atom in the plus mode has the bare Poisson weight
    grid = np.zeros((21, 21))
    grid[0, 0] = 1.0
    out = channel.convolve_poisson_influx(grid, 0.0551, 0.0)
    assert out[1, 0] == pytest.approx(0.05214611677981971, abs=1e-15)
    assert out[0, 1] == 0.0


def test_influx_rejects_negative_mean():
    with pytest.raises(ValueError):
        channel.convolve_poisson_influx(random_dist(3).grid, -0.1, 0.0)


def test_loss_matches_enumeration():
    d = random_dist(4)
    out = channel.convolve_binomial_loss(d.grid, 0.08, 0.15)
    ref = oracles.loss_enumerated(d.grid, 0.08, 0)
    ref = oracles.loss_enumerated(ref, 0.15, 1)
    np.testing.assert_allclose(out, ref, atol=1e-12)
    # loss never pushes mass off the grid
    assert out.sum() == pytest.approx(d.grid.sum(), abs=1e-12)


def test_loss_small_case_exact():
    grid = np.zeros((3, 3))
    grid[1, 1] = 1.0
    out = channel.convolve_binomial_loss(grid, 0.2, 0.2)
    assert out[0, 0] == pytest.approx(0.04, abs=1e-15)
    assert out[1, 1] == pytest.approx(0.64, abs=1e-15)


def test_loss_rejects_rate_outside_unit_interval():
    with pytest.raises(ValueError):
        channel.convolve_binomial_loss(random_dist(5).grid, 1.2, 0.0)


def test_skew_matches_enumeration_including_edges():
    # mass parked on every edge exercises both clamps
    d = random_dist(6, n_max=5)
    out = channel.apply_calibration_skew(d.grid, 1.052)
    ref = oracles.skew_enumerated(d.grid, 1.052)
    np.testing.assert_allclose(out, ref, atol=1e-14)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_skew_of_one_is_identity():
    d = random_dist(7)
    out = channel.apply_calibration_skew(d.grid, 1.0)
    np.testing.assert_allclose(out, d.grid, atol=0)


def test_blur_columns_match_quadrature():
    b = channel._blur_matrix(12, 0.1466, 0.0114)
    for n in (0, 1, 5, 12):
        np.testing.assert_allclose(b[:, n], oracles.blur_column_quadrature(n, 0.1466, 0.0114, 12), atol=1e-14)
    np.testing.assert_allclose(b.sum(axis=0), 1.0, atol=1e-14)


@pytest.mark.parametrize("size", [21, 41])
@pytest.mark.parametrize("l", [0.0, 4.2e-4, 0.011, 0.1, 1.0])
def test_loss_matrix_matches_binomial_pmf(size, l):
    b = channel._loss_matrix(l, size)
    ref = np.zeros((size, size))
    for k in range(size):
        ref[: k + 1, k] = binom.pmf(np.arange(k + 1), k, 1.0 - l)
    np.testing.assert_allclose(b, ref, rtol=0, atol=1e-14)
    assert b.min() >= 0.0
    np.testing.assert_allclose(b.sum(axis=0), 1.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("size", [21, 41])
@pytest.mark.parametrize("a", [0.0, 0.0218, 0.0551, 0.3])
def test_influx_matrix_matches_poisson_pmf(size, a):
    p = channel._influx_matrix(a, size)
    m, k = np.indices((size, size))
    ref = np.where(m >= k, poisson.pmf(m - k, a), 0.0)
    np.testing.assert_allclose(p, ref, rtol=0, atol=1e-14)
    assert p.min() >= 0.0


@pytest.mark.parametrize("size", [21, 41])
def test_noise_matrices_are_exact_at_the_edge_rates(size):
    m, k = np.indices((size, size))
    np.testing.assert_array_equal(channel._influx_matrix(0.0, size), poisson.pmf(m - k, 0.0))
    for l in (0.0, 1.0):
        np.testing.assert_array_equal(channel._loss_matrix(l, size), binom.pmf(m, k, 1.0 - l))
    np.testing.assert_array_equal(channel._loss_matrix(0.0, size), np.eye(size))
    np.testing.assert_array_equal(channel._loss_matrix(1.0, size)[0], np.ones(size))


@pytest.mark.parametrize("n_max, sigma0, c1", [(20, 0.1466, 0.0114), (20, 0.168, 0.027), (40, 0.3, 0.1)])
def test_blur_matrix_matches_normal_cdf_differences(n_max, sigma0, c1):
    b = channel._blur_matrix(n_max, sigma0, c1)
    n = np.arange(n_max + 1)
    cdf = norm.cdf(np.arange(n_max + 2)[:, None] - 0.5, n, channel.BlurLaw(sigma0, c1).sigma(n))
    cdf[0], cdf[-1] = 0.0, 1.0
    np.testing.assert_allclose(b, np.diff(cdf, axis=0), rtol=0, atol=1e-14)
    assert b.min() >= 0.0


def _blur_matrix_quadrature(law: channel.BlurLaw, n_max: int) -> np.ndarray:
    return np.column_stack([oracles.blur_column_quadrature(n, law.sigma0, law.c1, n_max) for n in range(n_max + 1)])


def test_predict_equals_manual_stage_composition():
    # the reference composes the enumeration and quadrature oracles, renormalizing after each stage
    d = random_dist(8, n_max=10, fit_grid=True)
    rotated = channel.apply_rotation(d, 0.4)
    stages = [lambda g: oracles.influx_enumerated(oracles.influx_enumerated(g, REF.a_plus, 0)[0], REF.a_minus, 1)[0],
              lambda g: oracles.loss_enumerated(oracles.loss_enumerated(g, REF.l_plus, 0), REF.l_minus, 1),
              lambda g: oracles.skew_enumerated(g, REF.skew),
              lambda g: _blur_matrix_quadrature(REF.blur_plus, 10) @ g @ _blur_matrix_quadrature(REF.blur_minus, 10).T]
    manual, tail = rotated.grid, rotated.tail_mass
    for stage in stages:
        manual = stage(manual)
        tail += max(0.0, 1.0 - manual.sum())
        manual = manual / manual.sum()
    auto = channel.predict(d, 0.4, REF)
    np.testing.assert_allclose(auto.grid, manual, atol=1e-15)  # they agree to 1e-17 here
    assert auto.tail_mass == pytest.approx(tail, abs=1e-15)  # and to 1.1e-16


def test_predicted_hom_parities_frozen():
    src = fock.tmsv_distribution(fock.SqueezedSource(xi=math.asinh(math.sqrt(3.75))), n_max=20)
    out = channel.predict(src, math.pi / 2, REF)
    expected = {
        2: 0.9903007176600431,
        4: 0.9883211466702966,
        6: 0.9864943806641837,
        8: 0.984714639840875,
        10: 0.9829535083314374,
        12: 0.9811997200977143,
    }
    for n, want in expected.items():
        probs = out.fixed_n(n).probs
        signs = (-1.0) ** (n - np.arange(n + 1))
        assert probs @ signs == pytest.approx(want, abs=1e-12)


def test_tail_mass_never_decreases_through_stages():
    src = fock.tmsv_distribution(fock.SqueezedSource(xi=1.2), n_max=12)
    rotated = channel.apply_rotation(src, 1.0)
    assert rotated.tail_mass >= src.tail_mass - 1e-15
    oracles.validate(rotated)
    stages = [lambda g: channel.convolve_poisson_influx(g, 0.1, 0.05),
              lambda g: channel.convolve_binomial_loss(g, 0.01, 0.02),
              lambda g: channel.apply_calibration_skew(g, 1.052),
              lambda g: channel.apply_detection_blur(g)]
    cur = rotated.grid
    for stage in stages:
        nxt = stage(cur)
        # the stages do not renormalize: the tail grows by the mass the grid loses
        assert 1.0 - nxt.sum() >= 1.0 - cur.sum() - 1e-15
        oracles.validate(fock.TwoModeDistribution(grid=nxt / nxt.sum(), n_max=12))
        cur = nxt


def test_noise_stages_map_a_stack_slice_by_slice():
    stack = np.stack([random_dist(seed).grid for seed in (10, 11)])
    for stage in (lambda g: channel.convolve_poisson_influx(g, 0.1, 0.05),
                  lambda g: channel.convolve_binomial_loss(g, 0.01, 0.02),
                  lambda g: channel.apply_calibration_skew(g, 1.052),
                  lambda g: channel.apply_detection_blur(g)):
        out = stage(stack)
        for k in range(2):
            np.testing.assert_allclose(out[k], stage(stack[k]), rtol=0, atol=1e-16)


@pytest.mark.parametrize("jac", [False, True])
def test_noise_pass_runs_each_stage_once(monkeypatch, jac):
    calls = []
    for name in ("convolve_poisson_influx", "convolve_binomial_loss", "apply_calibration_skew", "apply_detection_blur"):
        def counted(*args, _real=getattr(channel, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(channel, name, counted)
    grid = channel.apply_rotation(random_dist(12, fit_grid=True), HOM).grid
    p, _, dp = channel._noise_forward(grid, [0.05, 0.02, 0.001, 0.01], REF, jac=jac)
    assert calls == ["convolve_poisson_influx", "convolve_binomial_loss", "apply_calibration_skew",
                     "apply_detection_blur"]
    assert (dp is not None) == jac


@pytest.mark.parametrize("theta", [0.0, 0.14, 0.35, math.pi / 2])
def test_noise_pass_normalizes_once(default_source, theta):
    # U composes the four public stages without normalizing; the pass divides it by its mass once, at the end
    grid = channel.apply_rotation(default_source, theta).grid
    u = channel.convolve_binomial_loss(channel.convolve_poisson_influx(grid, REF.a_plus, REF.a_minus),
                                       REF.l_plus, REF.l_minus)
    u = channel.apply_detection_blur(channel.apply_calibration_skew(u, REF.skew), REF.blur_minus, REF.blur_plus)
    p, leak, _ = channel._noise_forward(grid, [REF.a_plus, REF.a_minus, REF.l_plus, REF.l_minus], REF)
    assert np.array_equal(p, u / u.sum())
    assert leak == 1.0 - u.sum()


def test_empirical_grid_counts_and_rejects_off_grid_shots():
    d = channel.empirical_grid([0, 1, 4], [0, 2, 4], n_max=4)
    assert d.grid[0, 0] == pytest.approx(1 / 3)
    assert d.grid[1, 2] == pytest.approx(1 / 3)
    assert d.grid[4, 4] == pytest.approx(1 / 3)
    # clipping piled off-grid shots onto the edge, where the model, renormalized on its grid, puts no such pile
    with pytest.raises(fock.CapacityError, match=r"2 of 3 shots lie off the grid 0\.\.n_max=4"):
        channel.empirical_grid([0, 1, 7], [5, 2, 9], n_max=4)
    with pytest.raises(fock.CapacityError, match="2 of 3 shots"):
        channel.fit(REF, {0.0: metrology.ShotTable(n_plus=[0, 1, 7], n_minus=[5, 2, 9])}, random_dist(4, n_max=4))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=0.4),
    st.floats(min_value=0.0, max_value=0.3),
    st.floats(min_value=1.0, max_value=1.2),
)
def test_noise_stages_conserve_probability(seed, a, l, skew):
    d = random_dist(seed, n_max=6)
    influx = channel.convolve_poisson_influx(d.grid, a, a / 2)
    out = channel.convolve_binomial_loss(influx, l, l)
    out = channel.apply_calibration_skew(out, skew)
    out = channel.apply_detection_blur(out)
    # only the influx pushes mass off the grid; loss, skew and blur keep it
    assert -oracles.NORM_ATOL <= 1.0 - influx.sum() <= 1.0
    assert out.sum() == pytest.approx(influx.sum(), abs=oracles.NORM_ATOL)
    oracles.validate(fock.TwoModeDistribution(grid=out / out.sum(), n_max=6))
    assert np.all(out >= 0)


def _sampled_table(pred: fock.TwoModeDistribution, n_shots: int, seed: int) -> metrology.ShotTable:
    rng = np.random.default_rng(seed)
    flat = pred.grid.ravel()
    idx = rng.choice(flat.size, size=n_shots, p=flat / flat.sum())
    ip, im = np.unravel_index(idx, pred.grid.shape)
    return metrology.ShotTable(n_plus=ip, n_minus=im, theta=math.pi / 2)


SMOKE_TRUTH = channel.NoiseModelParams(a_plus=0.06, a_minus=0.02, l_plus=0.001, l_minus=0.012)
SMOKE_BOUNDS = [(0.0, 0.15), (0.0, 0.08), (0.0, 0.01), (0.0, 0.05)]
HOM = math.pi / 2


def _smoke_problem(n_shots: int) -> tuple[fock.TwoModeDistribution, metrology.ShotTable]:
    """An n_max = 10 source and a pi/2 table sampled from it through SMOKE_TRUTH."""
    src = fock.tmsv_distribution(fock.SqueezedSource(xi=0.9), n_max=10)
    return src, _sampled_table(channel.predict(src, HOM, SMOKE_TRUTH), n_shots, seed=3)


def _staged_objective(src: fock.TwoModeDistribution, tab: metrology.ShotTable):
    """Squared Hellinger distance of the rates x, through the public stage functions, each renormalized."""
    rotated = channel.apply_rotation(src, HOM)
    emp = channel.empirical_grid(tab.n_plus, tab.n_minus, src.n_max).grid.ravel()

    def objective(x):
        out = rotated.grid
        for stage in (lambda g: channel.convolve_poisson_influx(g, x[0], x[1]),
                      lambda g: channel.convolve_binomial_loss(g, x[2], x[3]),
                      lambda g: channel.apply_calibration_skew(g, SMOKE_TRUTH.skew),
                      lambda g: channel.apply_detection_blur(g, SMOKE_TRUTH.blur_minus, SMOKE_TRUTH.blur_plus)):
            out = stage(out)
            out = out / out.sum()
        return float(metrology._hell2(out.ravel(), emp))

    return objective


def test_fit_recovers_rates_smoke():
    truth = SMOKE_TRUTH
    src, tab = _smoke_problem(4000)
    res = channel.fit(truth, {math.pi / 2: tab}, src, bounds=SMOKE_BOUNDS, budget=60)
    assert res.converged
    best = res.per_theta[math.pi / 2]
    assert res.objectives[math.pi / 2] < 0.01
    assert abs(best.a_plus - truth.a_plus) < 0.02


def test_fit_not_above_de_oracle():
    src, tab = _smoke_problem(4000)
    res = channel.fit(SMOKE_TRUTH, {HOM: tab}, src, bounds=SMOKE_BOUNDS, budget=60)
    objective = _staged_objective(src, tab)
    best = res.per_theta[HOM]
    # the reported cost is the objective at the reported rates
    assert res.objectives[HOM] == pytest.approx(
        objective([best.a_plus, best.a_minus, best.l_plus, best.l_minus]), rel=0, abs=1e-15)
    assert res.status[HOM] > 0
    assert 0 < res.nfev[HOM] <= 60
    de = stats.differential_evolution(objective, SMOKE_BOUNDS, budget=60, seed=1)
    assert res.objectives[HOM] <= de.fun + 1e-12


def test_fit_is_one_solve_per_angle_from_the_clipped_rates(monkeypatch):
    calls = []
    real = stats.least_squares

    def recorder(fun, x0, *args, **kwargs):
        calls.append((np.array(x0), real(fun, x0, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(stats, "least_squares", recorder)
    src, tab = _smoke_problem(4000)
    params0 = replace(SMOKE_TRUTH, a_plus=0.5)  # above its bound of 0.15
    res = channel.fit(params0, {HOM: tab, 0.0: tab}, src, bounds=SMOKE_BOUNDS)
    assert len(calls) == 2
    clipped = np.clip([0.5, SMOKE_TRUTH.a_minus, SMOKE_TRUTH.l_plus, SMOKE_TRUTH.l_minus], *np.array(SMOKE_BOUNDS).T)
    for theta, (x0, solve) in zip([0.0, HOM], calls):
        np.testing.assert_array_equal(x0, clipped)
        best = res.per_theta[theta]
        assert [best.a_plus, best.a_minus, best.l_plus, best.l_minus] == list(solve.x)
        assert res.objectives[theta] == solve.cost
        assert res.nfev[theta] == solve.nfev


def test_fit_is_one_noise_pass_per_solver_evaluation(monkeypatch):
    src, tab = _smoke_problem(4000)
    forward, solve, passes, evaluations = channel._noise_forward, stats.least_squares, [], []

    def counting(*args, **kwargs):
        passes.append(1)
        return forward(*args, **kwargs)

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        evaluations.append(res.nfev)
        return res

    monkeypatch.setattr(channel, "_noise_forward", counting)
    monkeypatch.setattr(stats, "least_squares", recording)
    res = channel.fit(SMOKE_TRUTH, {HOM: tab, 0.0: tab}, src, bounds=SMOKE_BOUNDS)
    assert len(passes) == sum(evaluations) == sum(res.nfev.values())


# Differential evolution's optimum (stats.differential_evolution, budget 200,
# seed 0, on the squared Hellinger distance within fit's default bounds) on
# the seven pi/2 gate tables: the benchmark's fixed noise-fit table and the
# tables of simulate --seed 1..6.
GATE_DE_RATES = {
    "bench": [0.048031997095859834, 0.022121485704341304, 0.0, 0.0068188413166492],
    1: [0.0450810664014688, 0.024073795132897483, 0.0, 0.007947847733850136],
    2: [0.04348752163920364, 0.020118467577690712, 0.0, 0.00685691060529669],
    3: [0.047159579941204406, 0.009326826465006327, 0.0, 0.00963849415244209],
    4: [0.05626606343670553, 0.01287011821790514, 0.0, 0.01434230044400664],
    5: [0.04553520766076967, 0.012552920330620448, 0.0, 0.008427068625138454],
    6: [0.046944092779646625, 0.011660282222361925, 0.0, 0.010957004650570331],
}
DEFAULT_FIT_BOUNDS = [(0.0, 0.3), (0.0, 0.3), (0.0, 0.1), (0.0, 0.1)]  # fit's bounds around REFERENCE_PARAMS


@pytest.fixture(scope="module")
def default_source():
    cfg = cli.RunConfig()
    return fock.tmsv_distribution(cfg.source(), n_max=cfg.n_max)


@pytest.fixture(scope="module")
def gate_tables(default_source):
    spec = importlib.util.spec_from_file_location("bench_oracle", BENCH / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    # as bench/run.py draws its fixed table
    grid = oracle.reference_channel(HOM, oracle.REFERENCE_RATES)
    draws = np.random.default_rng(0).choice(grid.size, size=3816, p=grid.ravel())
    tables = {"bench": metrology.ShotTable(*np.unravel_index(draws, grid.shape), theta=HOM)}
    cfg = cli.RunConfig()
    pred = channel.predict(default_source, HOM, REF)
    for seed in range(1, 7):  # as simulate draws its pi/2 table
        angle_seed = stats.stream_key(seed, cfg.angles.index(HOM))
        tables[seed] = metrology.ShotTable.sample(pred, cfg.shots_per_angle, seed=angle_seed, theta=HOM)
    return tables


def _default_residual(source, theta, tab):
    emp = channel.empirical_grid(tab.n_plus, tab.n_minus, source.n_max).grid
    return channel._hellinger_residual(channel.apply_rotation(source, theta).grid, emp, REF)


@pytest.mark.parametrize("table", GATE_DE_RATES)
def test_fit_not_above_de_on_the_gate_tables(default_source, gate_tables, table):
    res = channel.fit(REF, {HOM: gate_tables[table]}, default_source)
    residual = _default_residual(default_source, HOM, gate_tables[table])
    de_cost = 0.5 * np.sum(residual(np.array(GATE_DE_RATES[table]))[0] ** 2)
    assert res.status[HOM] > 0
    assert res.objectives[HOM] <= de_cost


def test_gate_rates_are_the_de_optimum(default_source, gate_tables):
    # recomputed for the table where the fit sits closest to it (9e-13 below)
    residual = _default_residual(default_source, HOM, gate_tables[1])
    de = stats.differential_evolution(lambda x: 0.5 * np.sum(residual(x)[0] ** 2), DEFAULT_FIT_BOUNDS, budget=200, seed=0)
    np.testing.assert_allclose(de.x, GATE_DE_RATES[1], rtol=1e-6, atol=1e-12)
    assert channel.fit(REF, {HOM: gate_tables[1]}, default_source).objectives[HOM] <= de.fun


@pytest.mark.parametrize("seed", range(3))
def test_fit_cost_not_above_scipy_trf(default_source, seed):
    from scipy.optimize import least_squares

    for theta in (*metrology.SMALL_ROTATION_ANGLES, HOM, math.pi):
        tab = metrology.ShotTable.sample(channel.predict(default_source, theta, REF), 3816, seed=seed, theta=theta)
        res = channel.fit(REF, {theta: tab}, default_source)
        residual = _default_residual(default_source, theta, tab)
        x0 = [REF.a_plus, REF.a_minus, REF.l_plus, REF.l_minus]
        # scipy takes the residual and its Jacobian as two functions
        trf = least_squares(lambda x: residual(x)[0], x0, jac=lambda x: residual(x)[1],
                            bounds=np.array(DEFAULT_FIT_BOUNDS).T, method="trf", max_nfev=200)
        assert trf.success
        assert res.objectives[theta] <= trf.cost * (1 + 1e-9), theta


def _one_sided_slope(f, x, step):
    """Second-order forward difference (-3 f(x) + 4 f(x + h) - f(x + 2h)) / 2h."""
    return (-3 * f(x) + 4 * f(x + step) - f(x + 2 * step)) / (2 * np.linalg.norm(step))


@pytest.mark.parametrize("x", [[0.05, 0.03, 0.004, 0.02], [0.0, 0.0, 0.0, 0.0], [0.05, 0.0, 0.0, 0.02]])
def test_noise_jacobian_matches_finite_differences(x):
    # an interior point, then points on the lower bounds a = 0 and l = 0, where
    # the rates can only grow and the differences are one-sided
    src, tab = _smoke_problem(4000)
    emp = channel.empirical_grid(tab.n_plus, tab.n_minus, src.n_max).grid
    fun = channel._hellinger_residual(channel.apply_rotation(src, HOM).grid, emp, SMOKE_TRUTH)

    def residual(x):
        return fun(x)[0]

    x = np.array(x)
    jac = fun(x)[1]
    assert jac.shape == (emp.size, 4)
    h = 1e-6
    for i in range(4):
        step = h * np.eye(4)[i]
        if x[i] > h:
            slope, atol = (residual(x + step) - residual(x - step)) / (2 * h), 1e-8
        else:
            # the truncation error is larger here: up to 3e-8 at x = 0
            slope, atol = _one_sided_slope(residual, x, step), 3e-7
        np.testing.assert_allclose(jac[:, i], slope, rtol=0, atol=atol)


def test_fit_budget_exhaustion_raises_with_best():
    truth = SMOKE_TRUTH
    src, tab = _smoke_problem(500)
    with pytest.raises(channel.ConvergenceError) as err:
        channel.fit(truth, {math.pi / 2: tab}, src, bounds=SMOKE_BOUNDS, budget=1)
    assert isinstance(err.value, stats.FitError)
    assert isinstance(err.value.best, channel.ChannelFit)
    assert not err.value.best.converged


def test_default_box_keeps_loss_rates_probabilities(monkeypatch):
    # from l = 0.3 the box reached 4 x 0.3 = 1.2, where the noise pass returned "probabilities" of -210
    uppers = []
    real = stats.least_squares

    def recorder(fun, x0, lo, hi, **kwargs):
        uppers.append(np.array(hi))
        return real(fun, x0, lo, hi, **kwargs)

    monkeypatch.setattr(stats, "least_squares", recorder)
    src, tab = _smoke_problem(4000)
    for params0 in (replace(SMOKE_TRUTH, l_plus=0.3), REF):
        channel.fit(params0, {HOM: tab}, src)
    assert uppers[0][2:].tolist() == [1.0, 1.0]
    assert uppers[1].tolist() == [hi for _, hi in DEFAULT_FIT_BOUNDS]  # unchanged around REFERENCE_PARAMS


def test_fit_requires_data():
    with pytest.raises(ValueError):
        channel.fit(REF, {}, random_dist(9))
