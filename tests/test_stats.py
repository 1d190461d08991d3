"""Resampling streams, error-bar conventions, and fit wrappers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsim import stats


def test_resample_plan_validation():
    with pytest.raises(ValueError):
        stats.ResamplePlan(n_samples=0, seed=0)


def test_stream_key_takes_only_one_word_master_seeds():
    # SeedSequence splits 2**32 + 5 into the words (5, 1): it would key the stream (5, 1, 2)
    for seed in (-1, 2**32, 2**32 + 5, 2**64):
        with pytest.raises(ValueError, match=rf"master seed {seed} is not an integer in \[0, 2\*\*32 - 1\]"):
            stats.stream_key(seed, 2)


def test_angle_key_is_the_digits_of_the_file_name():
    rng = np.random.default_rng(11)
    angles = [*rng.uniform(0.0, math.pi, 20000), *((rng.integers(0, 3141593, 2000) + 0.5) / 1e6),  # half-micro ties
              0.0, 0.14, math.pi / 2, math.pi]
    for theta in angles:
        key = stats.angle_key(theta)
        assert key == float(f"{theta:.6f}") and f"{key:.6f}" == f"{theta:.6f}"
        assert stats.angle_key(key) == key  # a key read back from a file name is its own key


def test_multinomial_resample_shape_and_rows():
    plan = stats.ResamplePlan(n_samples=50, seed=3)
    out = stats.multinomial_resample([0.2, 0.3, 0.5], 400, plan)
    assert out.shape == (50, 3)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    # 400 trials: every frequency is a multiple of 1/400
    np.testing.assert_allclose(out * 400, np.round(out * 400), atol=1e-9)


def test_multinomial_resample_is_deterministic_per_index():
    thirteen = np.random.default_rng(0).random(13)
    for probs in ([0.5, 0.5], thirteen / thirteen.sum()):
        a = stats.multinomial_resample(probs, 100, stats.ResamplePlan(n_samples=20, seed=7))
        b = stats.multinomial_resample(probs, 100, stats.ResamplePlan(n_samples=5, seed=7))
        # prefix property: shrinking the family leaves earlier samples untouched
        np.testing.assert_array_equal(a[:5], b)
        c = stats.multinomial_resample(probs, 100, stats.ResamplePlan(n_samples=5, seed=8))
        assert not np.array_equal(b, c)


def test_multinomial_resample_rows_have_multinomial_mean_and_covariance():
    probs = np.random.default_rng(0).random(13)
    probs /= probs.sum()
    n_shots, m = 500, 20000
    out = stats.multinomial_resample(probs, n_shots, stats.ResamplePlan(n_samples=m, seed=17))
    cov = (np.diag(probs) - np.outer(probs, probs)) / n_shots
    var = np.diag(cov)
    # five standard errors of the sample mean and of the sample covariance
    assert np.all(np.abs(out.mean(axis=0) - probs) <= 5.0 * np.sqrt(var / m))
    cov_se = np.sqrt((np.outer(var, var) + cov**2) / m)
    assert np.all(np.abs(np.cov(out, rowvar=False) - cov) <= 5.0 * cov_se)


def test_multinomial_resample_normalizes_and_validates():
    plan = stats.ResamplePlan(n_samples=3, seed=0)
    out = stats.multinomial_resample([2.0, 2.0], 10, plan)  # unnormalized input ok
    assert out.shape == (3, 2)
    with pytest.raises(ValueError):
        stats.multinomial_resample([0.5, -0.1], 10, plan)
    with pytest.raises(ValueError):
        stats.multinomial_resample([0.0, 0.0], 10, plan)
    with pytest.raises(ValueError):
        stats.multinomial_resample([1.0], 0, plan)


def test_asymmetric_std_worked_example():
    lower, upper = stats.asymmetric_std([0.0, 0.0, 3.0])
    assert lower == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-12)
    assert upper == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)


def test_asymmetric_std_symmetric_cloud_matches_std():
    rng = np.random.default_rng(0)
    x = rng.normal(2.0, 1.5, 200000)
    lower, upper = stats.asymmetric_std(x)
    assert lower == pytest.approx(1.5, rel=0.01)
    assert upper == pytest.approx(1.5, rel=0.01)


def test_asymmetric_std_explicit_center():
    lower, upper = stats.asymmetric_std([1.0, 2.0], center=1.0)
    assert lower == 0.0
    assert upper == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        stats.asymmetric_std([])


def test_depth_confidence_cases():
    assert stats.depth_confidence([3, 3, 3, 3]) == 3
    # 68% of samples must reach the level: 3 of 4 at >=2 counts, 1 of 4 does not
    assert stats.depth_confidence([1, 2, 2, 2], level=0.68) == 2
    assert stats.depth_confidence([1, 2, 2, 2], level=0.9) == 1
    assert stats.depth_confidence([0, 0], level=0.5) == 0
    with pytest.raises(ValueError):
        stats.depth_confidence([1], level=0.0)
    with pytest.raises(ValueError):
        stats.depth_confidence([])


def line(xx, p):
    return p[0] * xx + p[1], np.stack([xx, np.ones_like(xx)], axis=1)


def slope(xx, p):
    return p[0] * xx, xx[:, None]


def test_wls_exact_line_recovery():
    x = np.linspace(0, 5, 9)
    y = 2.5 * x - 1.0
    p, cov = stats.weighted_least_squares(line, x, y, [1.0, 0.0])
    np.testing.assert_allclose(p, [2.5, -1.0], atol=1e-10)
    # perfect data: scaled covariance collapses
    assert np.all(np.diag(cov) < 1e-18)


def test_wls_weights_change_the_answer():
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0.0, 1.0, 4.0])
    p_flat, _ = stats.weighted_least_squares(slope, x, y, [1.0])
    w = np.array([1.0, 100.0, 0.01])
    p_w, _ = stats.weighted_least_squares(slope, x, y, [1.0], weights=w)
    assert p_w[0] < p_flat[0]  # heavy weight on the (1, 1) point pulls the slope down
    assert p_w[0] == pytest.approx(1.0, abs=0.05)


def test_wls_dof_and_convergence_guards():
    calls = []

    def counted(xx, p):
        calls.append(1)
        return line(xx, p)

    # as many points as parameters: rejected before the first model call
    with pytest.raises(stats.FitError, match="fewer data points than parameters"):
        stats.weighted_least_squares(counted, [1.0, 2.0], [1.0, 2.0], [1.0, 0.0])
    assert calls == []

    # a flat model in one parameter leaves the normal matrix singular, which
    # surfaces either as a convergence failure or a degenerate covariance
    def degenerate(xx, p):
        return p[0] * xx + 0.0 * p[1], np.stack([xx, 0.0 * xx], axis=1)

    with pytest.raises(stats.FitError):
        stats.weighted_least_squares(degenerate, [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.1], [1.0, 0.5])


def test_wls_bounds_are_honored():
    x = np.linspace(0, 4, 12)
    y = 3.0 * x
    p, _ = stats.weighted_least_squares(slope, x, y, [1.5], bounds=([0.0], [2.0]))
    assert p[0] == pytest.approx(2.0, abs=1e-8)  # clipped at the box edge


def test_wls_model_calls_stay_within_the_cap(monkeypatch):
    # two decaying exponentials from a far start: the fit converges, but
    # needs more model calls than the lowered cap allows
    x = np.linspace(0, 5, 40)
    y = 2.0 * np.exp(-0.7 * x) + 1.0 * np.exp(-3.0 * x)
    p0 = [0.5, 0.1, 0.5, 9.0]
    calls = []

    def model(xx, p):
        calls.append(1)
        e1, e3 = np.exp(-p[1] * xx), np.exp(-p[3] * xx)
        return p[0] * e1 + p[2] * e3, np.stack([e1, -p[0] * xx * e1, e3, -p[2] * xx * e3], axis=1)

    stats.weighted_least_squares(model, x, y, p0)
    cap = len(calls) // 2
    monkeypatch.setattr(stats, "MAX_MODEL_CALLS", cap)
    calls.clear()
    with pytest.raises(stats.FitError, match="did not converge"):
        stats.weighted_least_squares(model, x, y, p0)
    assert len(calls) <= cap


def test_wls_covariance_scale_matches_direct_formula():
    # straight-line fit with noise: cov = inv(J^T J) * chi2/dof in the
    # weighted metric; verify against the closed-form linear algebra
    rng = np.random.default_rng(1)
    x = np.linspace(0, 1, 30)
    y = 1.0 + 2.0 * x + rng.normal(0, 0.1, len(x))
    w = np.full(len(x), 25.0)

    def offset_line(xx, p):
        return p[0] + p[1] * xx, np.stack([np.ones_like(xx), xx], axis=1)

    p, cov = stats.weighted_least_squares(offset_line, x, y, [0.0, 0.0], weights=w)
    a = np.stack([np.ones_like(x), x], axis=1)
    aw = a * w[:, None]
    cov_direct = np.linalg.inv(a.T @ aw)
    resid = y - a @ p
    chi2 = float(resid @ (w * resid))
    cov_direct = cov_direct * chi2 / (len(x) - 2)
    np.testing.assert_allclose(cov, cov_direct, rtol=1e-6)


def test_nnls_all_positive_is_the_unconstrained_solution():
    from scipy.optimize import nnls

    rng = np.random.default_rng(4)
    a = rng.random((40, 6))
    b = a @ np.linspace(0.5, 3.0, 6) + rng.normal(0, 0.01, 40)
    x = stats.nnls(a, b)
    assert np.all(x > 0)
    np.testing.assert_allclose(x, nnls(a, b)[0], rtol=1e-10)
    np.testing.assert_array_equal(x, np.linalg.lstsq(a, b, rcond=None)[0])


@pytest.mark.parametrize("seed", range(5))
def test_nnls_with_active_constraints_matches_scipy(seed):
    from scipy.optimize import nnls

    rng = np.random.default_rng(seed)
    a = rng.random((30, 8))
    b = a @ rng.normal(0, 1, 8)  # about half the unconstrained entries are negative
    assert np.any(np.linalg.lstsq(a, b, rcond=None)[0] <= 0)
    x, ref = stats.nnls(a, b), nnls(a, b)[0]
    assert np.all(x >= 0)
    np.testing.assert_array_equal(x == 0, ref == 0)
    np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=40))
def test_asymmetric_std_bounds_ordinary_std(xs):
    x = np.array(xs)
    lower, upper = stats.asymmetric_std(x)
    combined = math.sqrt((lower**2 + upper**2) / 2.0)
    assert combined == pytest.approx(float(x.std()), abs=1e-9)


def test_differential_evolution_finds_bowl_minimum():
    def bowl(v):
        return (v[0] - 0.3) ** 2 + (v[1] + 0.7) ** 2

    res = stats.differential_evolution(bowl, [(-2, 2), (-2, 2)], budget=500, seed=0)
    assert res.success
    np.testing.assert_allclose(res.x, [0.3, -0.7], atol=1e-6)
    assert res.fun < 1e-10


def test_differential_evolution_is_deterministic():
    def rastrigin(v):
        return 20 + sum(vi**2 - 10 * math.cos(2 * math.pi * vi) for vi in v)

    a = stats.differential_evolution(rastrigin, [(-4, 4), (-4, 4)], budget=80, seed=5)
    b = stats.differential_evolution(rastrigin, [(-4, 4), (-4, 4)], budget=80, seed=5)
    np.testing.assert_array_equal(a.x, b.x)
    assert a.fun == b.fun
    assert a.nfev == b.nfev
