"""Shot tables, distance measures, and the Fisher-information pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from homsim import channel, fock, metrology, stats


def ideal_dists(ns=range(2, 15, 2), angles=metrology.SMALL_ROTATION_ANGLES):
    return {n: {t: fock.twin_fock_output(n, t).probs for t in angles} for n in ns}


def test_shot_table_validation():
    with pytest.raises(ValueError):
        metrology.ShotTable(n_plus=np.array([1, -1]), n_minus=np.array([0, 0]))
    with pytest.raises(ValueError):
        metrology.ShotTable(n_plus=np.array([1]), n_minus=np.array([0, 0]))
    with pytest.raises(ValueError):
        metrology.ShotTable(n_plus=np.array([1]), n_minus=np.array([0]), theta=4.0)


def test_shot_table_derived_columns():
    tab = metrology.ShotTable(n_plus=np.array([3, 0]), n_minus=np.array([1, 2]), theta=0.2)
    np.testing.assert_array_equal(tab.n_total, [4, 2])


def test_shot_table_csv_round_trip(tmp_path):
    tab = metrology.ShotTable(n_plus=np.array([3, 0, 5]), n_minus=np.array([1, 2, 5]))
    path = tmp_path / "shots.csv"
    tab.to_csv(path)
    assert path.read_text().splitlines()[0] == "N_plus,N_minus"
    back = metrology.ShotTable.from_csv(path, theta=0.14)
    np.testing.assert_array_equal(back.n_plus, tab.n_plus)
    np.testing.assert_array_equal(back.n_minus, tab.n_minus)
    assert back.theta == 0.14


def test_shot_table_csv_single_row_and_column_order(tmp_path):
    one = metrology.ShotTable(n_plus=np.array([4]), n_minus=np.array([2]))
    path = tmp_path / "one.csv"
    one.to_csv(path)
    back = metrology.ShotTable.from_csv(path)
    np.testing.assert_array_equal(back.n_plus, [4])
    np.testing.assert_array_equal(back.n_minus, [2])
    # columns are found by their header names, wherever they stand
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("N_minus,N_plus\n1,3\n2,0\n")
    back = metrology.ShotTable.from_csv(swapped)
    np.testing.assert_array_equal(back.n_plus, [3, 0])
    np.testing.assert_array_equal(back.n_minus, [1, 2])
    missing = tmp_path / "missing.csv"
    missing.write_text("N_plus,N_other\n1,3\n")
    with pytest.raises(ValueError, match="N_minus"):
        metrology.ShotTable.from_csv(missing)


def test_shot_table_sampling_deterministic_with_mean():
    src = fock.tmsv_distribution(fock.SqueezedSource(xi=math.asinh(math.sqrt(3.75))), n_max=20)
    a = metrology.ShotTable.sample(src, 6000, seed=4)
    b = metrology.ShotTable.sample(src, 6000, seed=4)
    np.testing.assert_array_equal(a.n_plus, b.n_plus)
    # mean total atom number of the pair source, allowing sampling noise
    assert a.n_total.mean() == pytest.approx(7.5, abs=0.3)
    with pytest.raises(ValueError):
        metrology.ShotTable.sample(src, 0)


def test_empirical_distribution_delta_and_errors():
    tab = metrology.ShotTable(n_plus=np.array([1, 1, 1]), n_minus=np.array([1, 1, 1]))
    d = metrology.empirical_distribution(tab, 2)
    np.testing.assert_allclose(d.probs, [0.0, 1.0, 0.0], atol=0)
    assert d.n_shots == 3
    with pytest.raises(ValueError):
        metrology.empirical_distribution(tab, 4)


def test_empirical_distribution_converges_to_truth():
    truth = oracles.holland_burnett(10)
    grid = np.zeros((11, 11))
    k = np.arange(11)
    grid[k, 10 - k] = truth.probs
    two_mode = fock.TwoModeDistribution(grid=grid, n_max=10)
    tab = metrology.ShotTable.sample(two_mode, 3816, seed=1)
    emp = metrology.empirical_distribution(tab, 10)
    assert 0.5 * np.abs(emp.probs - truth.probs).sum() < 0.05  # total variation


def test_fidelity_and_hellinger_edge_cases():
    p = oracles.holland_burnett(4)
    assert metrology.fidelity(p, p) == pytest.approx(1.0, abs=1e-15)
    assert metrology.hellinger_sq(p, p) == 0.0
    q = fock.FixedNDistribution(n_total=4, probs=np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    assert metrology.fidelity(p, q) == 0.0  # disjoint supports
    assert metrology.hellinger_sq(p, q) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        metrology.fidelity(p, oracles.holland_burnett(6))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_fidelity_is_squared_one_minus_hellinger(seed):
    rng = np.random.default_rng(seed)
    a = rng.random(7) + 1e-12
    b = rng.random(7) + 1e-12
    p = fock.FixedNDistribution(n_total=6, probs=a / a.sum())
    q = fock.FixedNDistribution(n_total=6, probs=b / b.sum())
    f = metrology.fidelity(p, q)
    h2 = metrology.hellinger_sq(p, q)
    assert f == pytest.approx((1.0 - h2) ** 2, abs=1e-12)


def test_two_atom_distance_closed_form():
    # for one twin pair the distance from the unrotated state is 1 - cos(theta)
    ref = fock.twin_fock_output(2, 0.0)
    for theta in (0.1, 0.35, 0.7, math.pi / 2):
        d2 = metrology.hellinger_sq(ref, fock.twin_fock_output(2, theta))
        assert d2 == pytest.approx(1.0 - math.cos(theta), abs=1e-12)
    # small-angle parabola with the ideal F = N^2/2 + N = 4
    d2 = metrology.hellinger_sq(ref, fock.twin_fock_output(2, 0.05))
    assert d2 == pytest.approx(4.0 / 8.0 * 0.05**2, rel=1e-3)


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_jxjy2_of_ideal_state(n):
    est = metrology.jxjy2_estimate(fock.collective_moments(oracles.holland_burnett(n)))
    assert est == pytest.approx((n / 2) * (n / 2 + 1), abs=1e-12)
    flat = fock.FixedNDistribution(n_total=n, probs=np.eye(n + 1)[n // 2])
    assert metrology.jxjy2_estimate(fock.collective_moments(flat)) == 0.0


def test_generalized_squeezing_worked_example():
    sq = metrology.generalized_squeezing(0.0176, 1.892, 2)
    assert sq.linear == pytest.approx(0.0176 / 0.892, abs=1e-12)
    assert sq.db == pytest.approx(10 * math.log10(0.0176 / 0.892), abs=1e-9)
    assert metrology.generalized_squeezing(0.0, 1.892, 2).db == float("-inf")
    with pytest.raises(ValueError):
        metrology.generalized_squeezing(0.1, 0.9, 2)  # denominator not positive
    with pytest.raises(ValueError):
        metrology.generalized_squeezing(-0.1, 1.892, 2)


def test_fit_fisher_exact_parabola():
    x = np.array([0.0, 0.1, -0.14, 0.2, -0.2])
    fit = metrology.fit_fisher(x, 4.0 / 8.0 * x**2)
    assert fit.fisher == pytest.approx(4.0, abs=1e-9)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        metrology.fit_fisher([0.0, 0.1], [0.0, 0.01])


def test_fit_fisher_never_negative():
    x = np.array([0.0, 0.1, 0.2, -0.1])
    fit = metrology.fit_fisher(x, np.array([0.02, 0.01, 0.0, 0.01]))
    assert fit.fisher >= 0.0


@pytest.mark.parametrize("quartic", [False, True], ids=["quadratic", "quartic"])
def test_fit_fisher_global_optimum_with_non_positive_diffs(quartic):
    # theta1 = 0 is the smallest probe angle, so no difference is positive;
    # a start point taken from max(diffs) used to land on a spurious branch
    angles = metrology.SMALL_ROTATION_ANGLES
    x = np.array([0.0 - t for t in angles])
    ideal = np.array([metrology._hell2(fock.twin_fock_output(2, 0.0).probs, fock.twin_fock_output(2, t).probs)
                      for t in angles])
    fit = metrology.fit_fisher(x, ideal, quartic=quartic)
    assert fit.fisher == pytest.approx(4.0, rel=1e-3 if quartic else 0.02)
    src = fock.tmsv_distribution(fock.SqueezedSource(xi=math.asinh(math.sqrt(3.75))), n_max=20)
    pred = {t: channel.predict(src, t, channel.REFERENCE_PARAMS).fixed_n(2).probs for t in angles}
    model = np.array([metrology._hell2(pred[0.0], pred[t]) for t in angles])
    for y in (ideal, model):
        fit = metrology.fit_fisher(x, y, quartic=quartic)
        assert fit.fisher == pytest.approx(oracles.fisher_fit_scan(x, y, quartic), abs=1e-6)


def test_fit_fisher_raises_when_f_is_undetermined():
    # equal |diff| everywhere: the curvature cannot be told from the intercept
    with pytest.raises(stats.FitError):
        metrology.fit_fisher([0.1, -0.1, 0.1], [0.01, 0.01, 0.02], quartic=True)
    with pytest.raises(stats.FitError):
        metrology.fit_fisher([0.0, 0.1, 0.2], [0.0, float("nan"), 0.02])


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_fisher_from_ideal_curvature_tracks_heisenberg(n):
    # quartic fit over the small-angle grid reproduces N^2/2 + N within 5%
    angles = [t for t in metrology.SMALL_ROTATION_ANGLES if t <= 0.2]
    ref = 0.0
    x, y = [], []
    for t in angles:
        x.append(t - ref)
        y.append(metrology.hellinger_sq(fock.twin_fock_output(n, ref), fock.twin_fock_output(n, t)))
    fit = metrology.fit_fisher(np.array(x), np.array(y), quartic=True)
    assert fit.fisher == pytest.approx(n**2 / 2 + n, rel=0.05)


def test_aggregate_fisher_conventions():
    mk = lambda f, df: metrology.FisherFit(fisher=f, stderr=df, intercept=0.0)
    f, df = metrology.aggregate_fisher([mk(10.0, 1.0)])
    assert (f, df) == (10.0, 1.0)
    # equal relative uncertainty: plain arithmetic mean of the values
    f, df = metrology.aggregate_fisher([mk(10.0, 1.0), mk(20.0, 2.0)])
    assert f == pytest.approx(15.0, abs=1e-12)
    # non-finite uncertainty entries are skipped
    f, _ = metrology.aggregate_fisher([mk(10.0, 1.0), mk(99.0, float("nan"))])
    assert f == 10.0
    with pytest.raises(ValueError):
        metrology.aggregate_fisher([mk(10.0, float("nan"))])


def test_fit_scaling_recovers_both_limits():
    n = np.array([2, 4, 6, 8, 10, 12, 14], dtype=float)
    heis = metrology.fit_scaling(n, n**2 / 2 + n)
    assert heis.r == pytest.approx(1.0, abs=1e-9)
    assert heis.s == pytest.approx(2.0, abs=1e-9)
    classical = metrology.fit_scaling(n, n.copy())
    assert classical.r == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert classical.s == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(classical.predict(n), n, atol=1e-8)
    with pytest.raises(ValueError):
        metrology.fit_scaling([2, 4], [4.0, 12.0])


def test_fit_scaling_raises_without_bracketed_minimum():
    n = np.array([2, 4, 6, 8], dtype=float)
    with pytest.raises(stats.FitError):
        metrology.fit_scaling(n, n**8)  # optimum exponent far beyond the search range


def test_fit_scaling_stable_under_tiny_perturbations():
    # round-off-sized input changes must not move the exponent by more than
    # round-off: the frozen 1e-9 constants rely on it across numpy/scipy builds
    quad = metrology.fisher_from_distributions(ideal_dists(), quartic=False)
    ns = sorted(quad.aggregated)
    fbar = np.array([quad.aggregated[n][0] for n in ns])
    dfbar = np.array([quad.aggregated[n][1] for n in ns])
    base = metrology.fit_scaling(ns, fbar, dfbar).s
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = metrology.fit_scaling(ns, fbar * (1 + 1e-14 * rng.standard_normal(len(ns))), dfbar).s
        assert abs(s - base) < 1e-12


def sign_band(slope, s, reach=1024):
    """Span of the floats within ``reach`` ulp of s from the first where slope > 0 to the last where it is <= 0."""
    xs = s + np.arange(-reach, reach + 1) * np.spacing(s)
    rising = np.array([slope(x) > 0.0 for x in xs])
    lo, hi = xs[rising.argmax()], xs[len(xs) - 1 - (~rising)[::-1].argmax()]
    return min(lo, hi), max(lo, hi)


def test_fit_scaling_bisection_agrees_with_brentq(monkeypatch):
    # Both root finders must stop at the same sign change of the same slope.
    # Near the root the slope's float sign is round-off noise over up to a few
    # hundred ulp, where brentq itself moves when only its bracket changes, so
    # each must stop inside that band widened by their tolerance 1e-15 + 4 eps |s|.
    from scipy.optimize import brentq

    bisect, brackets = metrology._bisect, []

    def recording(f, a, b):
        brackets.append((f, a, b, bisect(f, a, b)))
        return brackets[-1][-1]

    monkeypatch.setattr(metrology, "_bisect", recording)
    ns = np.arange(2, 15, 2, dtype=float)
    rng = np.random.default_rng(1212)
    for _ in range(40):
        s_true = rng.uniform(1.0, 2.5)
        clean = rng.uniform(0.5, 2.0) * (ns**s_true / 2 + ns)
        rel = 10.0 ** rng.uniform(-14, -2)
        metrology.fit_scaling(ns, clean * (1 + rel * rng.standard_normal(len(ns))), rel * clean)
    for quartic, excl in ((False, None), (True, None), (True, metrology.DEFAULT_EXCLUSIONS)):
        metrology.fisher_from_distributions(ideal_dists(), quartic=quartic, exclusions=excl)
    assert len(brackets) >= 43
    for f, a, b, s in brackets:
        t = brentq(f, a, b, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=200)
        tol = 1e-15 + 4.0 * np.finfo(float).eps * abs(t)
        lo, hi = sign_band(f, t)
        assert hi - lo < 512 * np.spacing(t)  # the band lies well inside the scanned window
        assert lo - tol <= t <= hi + tol
        assert lo - tol <= s <= hi + tol


def test_bisect_raises_when_the_bracket_cannot_converge():
    with pytest.raises(stats.FitError):
        metrology._bisect(lambda s: float("nan") if s > 0.4 else s - 0.7, 0.0, 1.0)
    assert metrology._bisect(lambda s: s - 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=2e-15)


def test_fisher_pipeline_agrees_across_kernels():
    # the factorial-sum oracle kernel and the eigh kernel differ at round-off
    # level only, so all three exponent variants must agree to far below 1e-9
    angles = metrology.SMALL_ROTATION_ANGLES
    oracle = {}
    for n in range(2, 15, 2):
        rows = {t: oracles.kernel_factorial(n, t)[n // 2] for t in angles}
        oracle[n] = {t: row / row.sum() for t, row in rows.items()}
    for quartic, excl in ((False, None), (True, None), (True, metrology.DEFAULT_EXCLUSIONS)):
        ours = metrology.fisher_from_distributions(ideal_dists(), quartic=quartic, exclusions=excl)
        ref = metrology.fisher_from_distributions(oracle, quartic=quartic, exclusions=excl)
        assert abs(ours.scaling.s - ref.scaling.s) < 1e-12


def test_resampled_hellinger_bias_and_determinism():
    p = fock.FixedNDistribution(n_total=4, probs=oracles.holland_burnett(4).probs, n_shots=500)
    plan = stats.ResamplePlan(n_samples=300, seed=9)
    mean1, std1 = metrology.resampled_hellinger(p, p, plan)
    mean2, std2 = metrology.resampled_hellinger(p, p, plan)
    assert (mean1, std1) == (mean2, std2)
    assert mean1 > 0  # finite-sample bias never vanishes
    assert std1 > 0
    bare = oracles.holland_burnett(4)
    with pytest.raises(ValueError):
        metrology.resampled_hellinger(bare, bare, plan)  # sample sizes unknown


def test_hell2_of_a_stack_equals_the_rows():
    rng = np.random.default_rng(4)
    ps = rng.multinomial(300, rng.dirichlet(np.ones(9)), size=50) / 300
    qs = rng.multinomial(300, rng.dirichlet(np.ones(9)), size=50) / 300
    stacked = metrology._hell2(ps, qs)
    assert stacked.shape == (50,)
    for i in range(50):
        assert stacked[i] == metrology._hell2(ps[i], qs[i])  # same bits
    grids = ps.reshape(50, 3, 3)
    assert metrology._hell2(grids, grids[::-1]).shape == (50, 3)


def _counts_table(counts_by_n_plus, n_total, theta):
    n_plus = np.repeat(np.arange(n_total + 1), counts_by_n_plus)
    return metrology.ShotTable(n_plus=n_plus, n_minus=n_total - n_plus, theta=theta)


def test_fisher_from_shots_keeps_unresolved_points_from_dominating():
    # all shots at theta = 0 fall in the central bin and the largest angle
    # never hits it: d^2 of those pairs is 0 or 1 in every resample, so its
    # spread vanishes; the fit must still report a finite, honest F_err
    counts = {0.0: [0, 0, 300, 0, 0], 0.14: [4, 30, 232, 30, 4], 0.2: [8, 50, 184, 50, 8],
              0.28: [20, 70, 120, 70, 20], 0.35: [60, 90, 0, 90, 60]}
    tables = {t: _counts_table(c, 4, t) for t, c in counts.items()}
    est = metrology.fisher_from_shots(tables, [4], plan=stats.ResamplePlan(n_samples=100, seed=0))
    for fit in est.per_theta[4].values():
        assert fit.stderr >= 1e-6 * fit.fisher


def test_ideal_pipeline_scaling_exponents_frozen():
    dists = ideal_dists()
    quad = metrology.fisher_from_distributions(dists, quartic=False)
    quart = metrology.fisher_from_distributions(dists, quartic=True)
    excl = metrology.fisher_from_distributions(dists, quartic=True, exclusions=metrology.DEFAULT_EXCLUSIONS)
    assert quad.scaling.s == pytest.approx(1.9552873177157, abs=1e-9)
    assert quart.scaling.s == pytest.approx(2.0002352080457, abs=1e-9)
    assert excl.scaling.s == pytest.approx(2.0002599445422, abs=1e-9)
    assert quart.aggregated[2][0] == pytest.approx(4.000026, abs=1e-5)
    assert quart.aggregated[14][0] == pytest.approx(112.580347, abs=1e-4)
    # the exclusion really drops the largest probe angle at N = 14 only
    assert sorted(excl.per_theta[14]) == [0.0, 0.14, 0.2, 0.28]
    assert sorted(excl.per_theta[12]) == sorted(metrology.SMALL_ROTATION_ANGLES)


def test_fisher_estimate_round_trips_to_json():
    est = metrology.fisher_from_distributions(ideal_dists(ns=[2, 4, 6]))
    blob = est.to_json()
    assert set(blob["aggregated"]) == {"2", "4", "6"}
    assert blob["scaling"]["s"] == pytest.approx(est.scaling.s)
    assert blob["per_theta"]["2"]["0.14"]["F"] == est.per_theta[2][0.14].fisher


def test_fisher_from_shots_smoke():
    rng_seeds = {0.0: 11, 0.14: 12, 0.2: 13, 0.28: 14, 0.35: 15}
    tables = {}
    for theta, seed in rng_seeds.items():
        grids = {}
        for n in (2, 4, 6):
            probs = fock.twin_fock_output(n, theta).probs
            grids[n] = probs
        # build a two-mode grid holding the three fixed-N anti-diagonals
        grid = np.zeros((7, 7))
        for n, probs in grids.items():
            k = np.arange(n + 1)
            grid[k, n - k] += probs / 3.0
        dist = fock.TwoModeDistribution(grid=grid, n_max=6)
        tables[theta] = metrology.ShotTable.sample(dist, 9000, seed=seed, theta=theta)
    est = metrology.fisher_from_shots(tables, [2, 4, 6], plan=stats.ResamplePlan(n_samples=150, seed=0))
    for n in (2, 4, 6):
        ideal = n**2 / 2 + n
        assert est.aggregated[n][0] == pytest.approx(ideal, rel=0.25)
    assert est.scaling is not None


def _mixed_n_tables(ns, shots=2000):
    """Shot tables at the small-rotation angles, shots spread evenly over the atom numbers ``ns``."""
    tables = {}
    for i, theta in enumerate(metrology.SMALL_ROTATION_ANGLES):
        grid = np.zeros((max(ns) + 1,) * 2)
        for n in ns:
            k = np.arange(n + 1)
            grid[k, n - k] += fock.twin_fock_output(n, theta).probs / len(ns)
        dist = fock.TwoModeDistribution(grid=grid, n_max=max(ns))
        tables[theta] = metrology.ShotTable.sample(dist, shots, seed=20 + i, theta=theta)
    return tables


def test_fisher_from_shots_fits_the_resampled_hellinger_of_each_pair(monkeypatch):
    # every d^2 the parabola fits see is the resampled d^2 of its pair
    # (theta1 <= theta2): the first stack of theta1 against the second of
    # theta2, each drawn at its own (angle, N, side), bit for bit, mirror
    # entries included; resampled_hellinger gives the theta = 0 self-pair; a
    # spread it cannot resolve takes the smallest resolved spread of the row
    tables = _mixed_n_tables((2, 4, 14))
    plan = stats.ResamplePlan(n_samples=60, seed=5)
    fit, fitted = metrology.fit_fisher, []

    def recording(diffs, d2, sigma=None, quartic=False):
        fitted.append((np.array(diffs), np.array(d2), sigma if sigma is None else np.array(sigma)))
        return fit(diffs, d2, sigma=sigma, quartic=quartic)

    monkeypatch.setattr(metrology, "fit_fisher", recording)
    metrology.fisher_from_shots(tables, [2, 4, 14], plan=plan, exclusions=metrology.DEFAULT_EXCLUSIONS)
    rows, unresolved = iter(fitted), 0
    for n in (2, 4, 14):
        kept = [t for t in sorted(tables) if (n, t) != (14, 0.35)]
        hists = {t: metrology.empirical_distribution(tables[t], n) for t in kept}
        stacks = {(t, side): stats.resample_histogram(hists[t], plan, t, side) for t in kept for side in (0, 1)}
        for t1 in kept:
            x, d2, sigma = next(rows)
            pairs = [metrology._hell2(stacks[min(t1, t2), 0], stacks[max(t1, t2), 1]) for t2 in kept]
            ref = np.array([(d.mean(), d.std(ddof=1)) for d in pairs])
            if t1 == 0.0:
                assert tuple(ref[0]) == metrology.resampled_hellinger(hists[0.0], hists[0.0], plan)
            assert x.tolist() == [t1 - t2 for t2 in kept]
            assert d2.tolist() == ref[:, 0].tolist()
            resolved = ref[:, 1] > 1e-12
            unresolved += int((~resolved).sum())
            assert sigma.tolist() == np.where(resolved, ref[:, 1], ref[resolved, 1].min()).tolist()
    assert next(rows, None) is None
    assert unresolved == 3  # theta = 0 is a delta at every N, so its self-pair never varies


def test_fisher_from_shots_resamples_each_kept_histogram_once_per_side(monkeypatch):
    resample, stacks = stats.multinomial_resample, []

    def counting(probs, n_shots, plan):
        stacks.append((len(probs) - 1, plan.seed))
        return resample(probs, n_shots, plan)

    monkeypatch.setattr(stats, "multinomial_resample", counting)
    plan = stats.ResamplePlan(n_samples=20, seed=7)
    metrology.fisher_from_shots(_mixed_n_tables((2, 4, 14)), [2, 4, 14], plan=plan,
                                exclusions=metrology.DEFAULT_EXCLUSIONS)
    # one stack per kept angle and side, keyed (angle in micro-radians, N, side): 8 at N = 14, where 0.35 is dropped
    assert sorted(stacks) == sorted([(n, stats.stream_key(7, round(t * 1e6), n, side)) for n in (2, 4, 14)
                                     for t in metrology.SMALL_ROTATION_ANGLES if (n, t) != (14, 0.35)
                                     for side in (0, 1)])
    assert len(set(stacks)) == len(stacks)
