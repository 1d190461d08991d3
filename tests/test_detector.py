"""Signal synthesis, calibration chain, and quantization checks."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import oracles
from homsim import channel, detector, metrology, stats
from shared import ROUND_TRIP, camera_run, invoke, load_script, signals_to_csv

CAL_M = detector.DEFAULT_CALIBRATION_MINUS
CAL_P = detector.DEFAULT_CALIBRATION_PLUS


def poisson_shots(m: int, seed: int, mean: float = 2.0) -> metrology.ShotTable:
    rng = np.random.default_rng(seed)
    return metrology.ShotTable(
        n_plus=np.minimum(rng.poisson(mean, m), 10),
        n_minus=np.minimum(rng.poisson(mean, m), 10),
        theta=None,
    )


@pytest.fixture(scope="module")
def flat_signals():
    # no drift, no crosstalk: isolates the histogram fit
    shots = poisson_shots(12000, seed=11)
    table = detector.synthesize_signals(
        shots,
        drift=detector.DriftSpec(peak_to_peak=0.0),
        crosstalk={"minus": 0.0, "plus": 0.0},
        seed=5,
    )
    return shots, table


@pytest.fixture(scope="module")
def fitted_minus(flat_signals):
    _, table = flat_signals
    return detector.fit_histogram(table.s_minus)


def test_signal_stream_is_no_shot_or_resample_stream():
    # a bare stream_key(seed) is stream_key(seed, 0), the first angle's shot table
    key = stats.stream_key(5, *detector.SIGNAL_STREAM)
    assert stats.stream_key(5) == stats.stream_key(5, 0)
    assert key not in {stats.stream_key(5, i) for i in range(len(ROUND_TRIP.ANGLES))}
    assert key not in {stats.stream_key(5, 0, n, side) for n in range(1, 41) for side in (0, 1)}
    shots = poisson_shots(50, seed=0)
    rng = np.random.default_rng(np.random.Philox(key=key))
    np.testing.assert_array_equal(detector.synthesize_signals(shots, seed=5).s_zero,
                                  rng.normal(detector.COMPANION_MEAN, detector.COMPANION_SPREAD, 50))


def test_synthesis_is_deterministic():
    shots = poisson_shots(500, seed=0)
    a = detector.synthesize_signals(shots, seed=9)
    b = detector.synthesize_signals(shots, seed=9)
    c = detector.synthesize_signals(shots, seed=10)
    np.testing.assert_array_equal(a.s_minus, b.s_minus)
    np.testing.assert_array_equal(a.s_plus, b.s_plus)
    assert not np.array_equal(a.s_minus, c.s_minus)


def test_signal_table_validation():
    ok = np.zeros(3)
    with pytest.raises(ValueError):
        detector.SignalTable(shot_index=np.array([0, 2, 1]), s_minus=ok, s_zero=ok, s_plus=ok)
    with pytest.raises(ValueError):
        detector.SignalTable(
            shot_index=np.arange(3), s_minus=np.array([0.0, np.nan, 1.0]), s_zero=ok, s_plus=ok
        )


def test_signal_table_csv_round_trip(tmp_path):
    shots = poisson_shots(50, seed=2)
    table = detector.synthesize_signals(shots, seed=1)
    path = tmp_path / "signals.csv"
    signals_to_csv(table, path)
    back = detector.SignalTable.from_csv(path)
    np.testing.assert_array_equal(back.shot_index, table.shot_index)
    np.testing.assert_allclose(back.s_plus, table.s_plus, atol=1e-5)


def test_signal_table_csv_single_row_column_order_and_missing_column(tmp_path):
    one = detector.SignalTable(shot_index=np.array([7]), s_minus=np.array([1.25]), s_zero=np.array([2.5]),
                               s_plus=np.array([3.75]))
    path = tmp_path / "one.csv"
    signals_to_csv(one, path)
    back = detector.SignalTable.from_csv(path)
    np.testing.assert_array_equal(back.shot_index, [7])
    np.testing.assert_array_equal(back.s_plus, [3.75])
    # columns are found by their header names, wherever they stand
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("s_plus,shot_index,s_zero,s_minus\n3.5,0,2.5,1.5\n7.25,4,6.25,5.25\n")
    back = detector.SignalTable.from_csv(swapped)
    np.testing.assert_array_equal(back.shot_index, [0, 4])
    np.testing.assert_array_equal(back.s_minus, [1.5, 5.25])
    np.testing.assert_array_equal(back.s_zero, [2.5, 6.25])
    np.testing.assert_array_equal(back.s_plus, [3.5, 7.25])
    missing = tmp_path / "missing.csv"
    missing.write_text("shot_index,s_minus,s_plus\n0,1.0,2.0\n")
    with pytest.raises(ValueError, match="s_zero"):
        detector.SignalTable.from_csv(missing)


def test_drift_offsets_follow_the_sine():
    spec = detector.DriftSpec(peak_to_peak=100.0, period=400.0)
    off = spec.offsets(np.arange(20))
    assert off[0] == 0.0  # phase 0
    assert off.max() <= 50.0 + 1e-9
    assert off[15] == pytest.approx(50.0 * math.sin(2 * math.pi * 15 / 400.0))


def test_crosstalk_correction_recovers_kappa():
    # low mean occupation keeps the zero-atom cluster large, where the
    # regression draws its leverage from
    shots = poisson_shots(12000, seed=3, mean=1.0)
    table = detector.synthesize_signals(
        shots, drift=detector.DriftSpec(peak_to_peak=0.0), seed=7
    )
    corrected, kappa_minus = detector.correct_crosstalk(table.s_minus, table.s_zero)
    _, kappa_plus = detector.correct_crosstalk(table.s_plus, table.s_zero)
    assert kappa_minus == pytest.approx(1.48e-3, abs=3e-4)
    assert kappa_plus == pytest.approx(1.76e-3, abs=3e-4)
    # residual correlation with the companion signal is gone
    zero = corrected < corrected.min() + 0.5 * CAL_M.g
    resid_slope = np.polyfit(table.s_zero[zero], corrected[zero], 1)[0]
    assert abs(resid_slope) < 3e-4


def test_crosstalk_needs_enough_zero_shots():
    rng = np.random.default_rng(0)
    # lower cluster deliberately starved below the 100-shot requirement
    s = np.concatenate([
        rng.normal(250.0, 8.0, 80),
        rng.normal(1250.0, 15.0, 1200),
        rng.normal(2250.0, 15.0, 900),
    ])
    with pytest.raises(detector.CalibrationError):
        detector.correct_crosstalk(s, rng.normal(2e5, 3e4, len(s)))


def test_drift_correction_recovers_sine():
    shots = poisson_shots(8000, seed=4, mean=1.0)
    spec = detector.DriftSpec(peak_to_peak=200.0, period=4000.0)
    table = detector.synthesize_signals(shots, drift=spec, crosstalk={"minus": 0.0, "plus": 0.0}, seed=8)
    _, rep = detector.correct_drift(table.s_minus)
    mids = rep.starts + detector.DRIFT_WINDOW / 2.0
    want = spec.offsets(mids)
    resid = rep.corrections - (want - np.median(want))
    assert np.abs(resid).max() < 40.0  # counts; well under g


def test_drift_correction_null_case_stays_put():
    shots = poisson_shots(4000, seed=5)
    table = detector.synthesize_signals(
        shots, drift=detector.DriftSpec(peak_to_peak=0.0), crosstalk={"minus": 0.0, "plus": 0.0}, seed=9
    )
    for s in (table.s_minus, table.s_plus):
        _, rep = detector.correct_drift(s)
        limit = 5.0 * np.maximum(rep.center_stderr, 1.0)
        assert np.all(np.abs(rep.corrections) < limit)


def test_drift_correction_reports_empty_window():
    rng = np.random.default_rng(1)
    n = np.zeros(1200, dtype=int)
    n[400:800] = 1  # second window has no zero-atom shots at all
    n[::7] = np.maximum(n[::7], 1)  # keep both peaks populated overall
    shots = metrology.ShotTable(n_plus=n, n_minus=n, theta=None)
    table = detector.synthesize_signals(
        shots, drift=detector.DriftSpec(peak_to_peak=0.0), crosstalk={"minus": 0.0, "plus": 0.0}, seed=2
    )
    with pytest.raises(detector.CalibrationError, match="window 1 "):
        detector.correct_drift(table.s_minus)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)  # tells -0.0 from 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 11, 66, 67, 400, 401])
def test_order_stats_equal_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    percents = [0.1, 99.9, 0.0, 25.0, 50.0, 100.0, *rng.uniform(0, 100, 4)]
    for draw in range(40):
        x = rng.normal(scale=10.0 ** rng.integers(-2, 4), size=n)
        if draw % 2:  # ties, and signed zeros among them
            x = np.round(rng.normal(scale=0.3, size=n), draw % 4 // 2)
        np.testing.assert_array_equal(bits(detector._order_stats(x, percents)), bits(np.percentile(x, percents)))
        np.testing.assert_array_equal(bits(detector._order_stats(x)), bits([np.median(x)]))
    # which zero a partition leaves in the middle depends on every partition point numpy takes
    zeros = np.array([-0.0, -0.0, -0.0, -0.0, 1.0, 0.0, -0.0, 1.0])
    np.testing.assert_array_equal(bits(detector._order_stats(zeros, [50.0])), bits(np.percentile(zeros, [50.0])))
    ints = rng.integers(0, 9, n)  # np.diff of peak indices
    assert detector._order_stats(ints)[0] == np.median(ints)
    x[n // 2] = np.nan
    assert np.isnan(detector._order_stats(x, percents)).all() and np.isnan(detector._order_stats(x)).all()


def assert_peaks_match_scipy(counts, distance):
    x = np.convolve(counts, np.ones(3) / 3.0, mode="same")  # as _coarse_scale smooths
    peaks, prominence = detector._peaks(x, distance)
    ref, props = find_peaks(x, distance=distance, prominence=0)
    np.testing.assert_array_equal(peaks, ref)
    np.testing.assert_array_equal(prominence, props["prominences"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=3, max_size=80), st.integers(1, 9))
def test_peaks_match_scipy_find_peaks(counts, distance):
    # small integers give the flat tops, equal heights and ties find_peaks handles
    assert_peaks_match_scipy(counts, distance)


def test_peaks_match_scipy_on_a_signal_histogram(flat_signals):
    _, table = flat_signals
    assert_peaks_match_scipy(np.histogram(table.s_minus, bins=800)[0], 13)


def test_histogram_fit_recovers_scale(flat_signals, fitted_minus):
    calib = fitted_minus
    assert calib.g == pytest.approx(CAL_M.g, rel=5e-3)
    assert abs(calib.b - CAL_M.b) < 0.3 * CAL_M.g
    assert calib.sigma0 == pytest.approx(CAL_M.sigma0, abs=max(4 * calib.sigma0_err, 0.01))
    assert calib.c1 == pytest.approx(CAL_M.c1, abs=max(4 * calib.c1_err, 0.02))
    assert calib.n_max_fit >= 5
    assert len(calib.peak_heights) == calib.n_max_fit + 1


def test_histogram_fit_reads_the_law_unbiased_with_errors_that_match_the_spread():
    # 40 combs at the plus mode's law, no drift or crosstalk.  Fitted at bin centres, sigma0 read +5.3 standard
    # errors of the mean high here, and c1 -2.2: Sheppard's correction for a g/12 bin is -0.0017 at sigma 0.168
    g, b, sigma0, c1 = CAL_P.g, CAL_P.b, CAL_P.sigma0, CAL_P.c1
    fits = []
    for seed in range(1, 41):
        rng = np.random.default_rng(seed)
        n = rng.poisson(3.75, 26712)
        calib = detector.fit_histogram(b + n * g + rng.normal(0.0, CAL_P.sigma(n) * g))
        fits.append((calib.sigma0, calib.sigma0_err, calib.c1, calib.c1_err))
    fits = np.array(fits)
    for i, truth in ((0, sigma0), (2, c1)):
        spread = fits[:, i].std(ddof=1)
        assert abs(fits[:, i].mean() - truth) <= 3 * spread / math.sqrt(len(fits)), (i, fits[:, i].mean())
        assert 0.8 <= fits[:, i + 1].mean() / spread <= 1.25, (i, fits[:, i + 1].mean(), spread)


def test_round_trip_quantization(flat_signals, fitted_minus):
    shots, table = flat_signals
    occ = detector.quantize_mode(table.s_minus, fitted_minus)
    agree = np.mean(occ == shots.n_minus)
    assert agree > 0.995


def test_quantize_mode_midpoints_and_clamp():
    calib = detector.DetectorCalibration(g=100.0, b=50.0, sigma0=0.1, c1=0.0)
    vals = np.array([50.0, 100.0, 100.0 + 1e-9, -500.0, 451.0])
    np.testing.assert_array_equal(detector.quantize_mode(vals, calib), [0, 0, 1, 0, 4])


def test_detection_fidelity_frozen_values():
    # nothing is counted below 0, so P(0 | 0) is the whole Gaussian mass below the first midpoint: Phi(0.5 / sigma0)
    for calib in (CAL_M, CAL_P):
        phi = 0.5 * math.erfc(-0.5 / calib.sigma0 / math.sqrt(2.0))
        assert detector.detection_fidelity(0, calib) == pytest.approx(phi, abs=1e-15)
    assert detector.detection_fidelity(0, CAL_M) == pytest.approx(0.9996759484178583, abs=1e-15)
    assert detector.detection_fidelity(0, CAL_P) == pytest.approx(0.9985407323545384, abs=1e-15)
    assert detector.detection_fidelity(12, CAL_M) == pytest.approx(0.9990096273287542, abs=1e-15)
    assert detector.detection_fidelity(12, CAL_P) == pytest.approx(0.990687408095312, abs=1e-15)
    with pytest.raises(ValueError):
        detector.detection_fidelity(-1, CAL_M)


def test_histogram_table_shapes(flat_signals, fitted_minus):
    _, table = flat_signals
    centers, counts, model = detector.histogram_table(table.s_minus, fitted_minus)
    assert len(centers) == len(counts) == len(model)
    assert model.max() > 0
    # model tracks the tallest observed peak to within a factor of order one
    assert model.max() == pytest.approx(counts.max(), rel=0.5)


@pytest.mark.parametrize("at_bound", [None, 3])
def test_comb_jacobian_matches_finite_differences(flat_signals, at_bound):
    # an interior point, then one with c1^2 (parameter 3) on its lower bound of 0,
    # where the search can only raise it and the difference is one-sided
    _, table = flat_signals
    n_max_fit = 8
    edges, y = detector._comb_histogram(table.s_minus, CAL_M.g, CAL_M.b, n_max_fit)
    y = y.astype(float)
    weights = 1.0 / (1.0 + y)
    p = np.array([1.002 * CAL_M.g, CAL_M.b + 5.0, 1.1 * CAL_M.sigma0**2, 0.9 * CAL_M.c1**2])
    if at_bound is not None:
        p[at_bound] = 0.0

    def comb(pp):
        return detector._projected_comb(pp, edges, y, weights, n_max_fit)[0]

    values, jac, _ = detector._projected_comb(p, edges, y, weights, n_max_fit)
    assert jac.shape == (len(y), len(p))
    np.testing.assert_array_equal(values, comb(p))
    for i in range(len(p)):
        h = 1e-6 * max(1.0, abs(p[i]))
        step = h * np.eye(len(p))[i]
        if i == at_bound:
            slope = (-3 * comb(p) + 4 * comb(p + step) - comb(p + 2 * step)) / (2 * h)
        else:
            slope = (comb(p + step) - comb(p - step)) / (2 * h)
        # the differences' own error is up to 2e-7 of the column here
        assert np.abs(jac[:, i] - slope).max() <= 1e-6 * np.abs(jac[:, i]).max(), i


def test_histogram_fit_is_one_comb_pass_per_solver_evaluation(flat_signals, monkeypatch):
    _, table = flat_signals
    comb, solve, passes, evaluations = detector._projected_comb, stats.least_squares, [], []

    def counting(*args, **kwargs):
        passes.append(1)
        return comb(*args, **kwargs)

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        evaluations.append(res.nfev)
        return res

    monkeypatch.setattr(detector, "_projected_comb", counting)
    monkeypatch.setattr(stats, "least_squares", recording)
    detector.fit_histogram(table.s_minus)
    assert len(evaluations) == 1  # one solve fits the law
    assert len(passes) == sum(evaluations) + 1  # and one more pass gives the final heights


def test_peak_shapes_times_heights_is_the_comb_summed_peak_by_peak(fitted_minus):
    c = fitted_minus
    edges = np.linspace(c.b - c.g, c.b + (c.n_max_fit + 1) * c.g, 301)
    comb = np.zeros(len(edges) - 1)
    for n, h in enumerate(c.peak_heights):
        width = c.sigma(n) * c.g
        comb += h * np.array([0.5 * (math.erf((hi - c.b - n * c.g) / (width * math.sqrt(2)))
                                     - math.erf((lo - c.b - n * c.g) / (width * math.sqrt(2))))
                              for lo, hi in zip(edges[:-1], edges[1:])])
    shapes = c.masses(edges, c.n_max_fit + 1)[0]
    np.testing.assert_allclose(shapes @ c.peak_heights, comb, rtol=1e-12, atol=1e-12 * comb.max())


def test_calibration_json_is_serializable(fitted_minus):
    import json

    blob = json.dumps(fitted_minus.to_json())
    back = json.loads(blob)
    assert back["g"] == pytest.approx(fitted_minus.g)
    assert len(back["peak_heights"]) == fitted_minus.n_max_fit + 1
    assert not {"peak_sigmas", "peak_sigma_errs"} & set(back)  # one law gives every width


def test_histogram_fit_converges_on_the_seed_409_run(tmp_path):
    # the minus-mode fit of this run once searched without end
    raw = camera_run(409, tmp_path / "signals.csv")
    corrected, _ = detector.correct_drift(detector.correct_crosstalk(raw.s_minus, raw.s_zero)[0])
    calib = detector.fit_histogram(corrected)
    for name in ("g", "sigma0", "c1"):
        assert abs(getattr(calib, name) - getattr(CAL_M, name)) <= 3 * getattr(calib, f"{name}_err"), name


def test_histogram_fit_takes_twelve_bins_per_peak(tmp_path, monkeypatch):
    # on this run the round-off of ceil((hi - lo) / (g0 / 12)) once added a 259th bin
    raw = camera_run(501, tmp_path / "signals.csv")
    corrected, _ = detector.correct_drift(detector.correct_crosstalk(raw.s_minus, raw.s_zero)[0])
    histogram, bins = np.histogram, []

    def recording(*args, **kwargs):
        bins.append(kwargs["bins"])
        return histogram(*args, **kwargs)

    monkeypatch.setattr(detector.np, "histogram", recording)
    calib = detector.fit_histogram(corrected)
    detector.histogram_table(corrected, calib)  # the plotted histogram takes the same bins
    assert calib.n_max_fit == 20
    assert bins[-2:] == [12 * calib.n_max_fit + 18] * 2


def chain_values(chain):
    """The signal, kappa and every field of the drift correction and the calibration, in order."""
    signal, kappa, drift, calib = chain
    return [signal, kappa, *vars(drift).values(), *vars(calib).values()]


@pytest.fixture(scope="module")
def camera_one(tmp_path_factory):
    """``camera_run(1)`` and its calibration chains."""
    raw = camera_run(1, tmp_path_factory.mktemp("camera") / "signals.csv")
    return raw, detector.calibrate(raw)


def test_calibrate_is_the_three_steps_in_turn(camera_one):
    raw, chains = camera_one
    assert list(chains) == ["minus", "plus"]
    for mode, chain in chains.items():
        signal, kappa = detector.correct_crosstalk(getattr(raw, f"s_{mode}"), raw.s_zero)
        signal, drift = detector.correct_drift(signal)
        steps = signal, kappa, drift, detector.fit_histogram(signal)
        for got, want in zip(chain_values(chain), chain_values(steps), strict=True):
            np.testing.assert_array_equal(bits(got), bits(want))


def test_blur_law_masses_equal_the_per_element_erfc_loop_bit_for_bit(camera_one):
    # the reference takes one math.erfc per edge and peak in scalar arithmetic; the array path must round alike
    cases = [(calib, detector._comb_histogram(signal, calib.g, calib.b, calib.n_max_fit)[0], calib.n_max_fit + 1)
             for signal, _, _, calib in camera_one[1].values()]
    for n_max, law in ((20, channel.DEFAULT_BLUR_MINUS), (40, channel.DEFAULT_BLUR_PLUS)):
        unit = channel.BlurLaw(law.sigma0, law.c1)  # the blur matrix's law, in atom units
        edges = [-math.inf, *np.arange(n_max) + 0.5, math.inf]
        assert np.array_equal(bits(unit.masses(edges, n_max + 1)[0]), bits(law.matrix(n_max)))
        cases.append((unit, edges, n_max + 1))
    for law, edges, peaks in cases:
        z = np.array([[(e - law.b - n * law.g) / (law.sigma(n) * law.g) for n in range(peaks)] for e in edges])
        cdf = np.array([[0.5 * math.erfc(-t / math.sqrt(2.0)) for t in row] for row in z])
        masses, z_edges = law.masses(edges, peaks)
        np.testing.assert_array_equal(bits(z_edges), bits(z))
        np.testing.assert_array_equal(bits(masses), bits(np.diff(cdf, axis=0)))


def test_calibrate_names_the_failing_mode(flat_signals):
    _, table = flat_signals
    one_peak = np.random.default_rng(3).normal(250.0, 8.0, len(table.s_plus))
    with pytest.raises(detector.CalibrationError, match="^mode plus: .*two peaks"):
        detector.calibrate(replace(table, s_plus=one_peak))


def test_calibrate_names_the_mode_of_a_failed_solve(flat_signals, monkeypatch, tmp_path):
    # the minus mode's solve runs, the plus mode's raises; calibrate then exits 3 and writes nothing
    _, table = flat_signals
    solve, calls = stats.weighted_least_squares, []

    def plus_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise stats.FitError("least squares did not converge in 10000 model calls")
        return solve(*args, **kwargs)

    monkeypatch.setattr(stats, "weighted_least_squares", plus_fails)
    with pytest.raises(stats.FitError, match="^mode plus: least squares did not converge"):
        detector.calibrate(table)
    signals_to_csv(table, tmp_path / "signals.csv")
    res = invoke(["--out", tmp_path / "cal", "calibrate", tmp_path / "signals.csv"])
    assert res.exit_code == 3 and "error: mode plus: least squares" in res.output, res.output
    assert not (tmp_path / "cal").exists()


def test_detector_roundtrip_script(tmp_path):
    load_script("detector_roundtrip").main(["--seed", "5", "--out", str(tmp_path)])
    with open(tmp_path / "roundtrip.csv", newline="") as fh:
        recovery = {row["mode"]: float(row["exact_recovery"]) for row in csv.DictReader(fh)}
    assert list(recovery) == ["minus", "plus"] and min(recovery.values()) >= 0.99, recovery
    blur = json.loads((tmp_path / "blur.json").read_text())["blur"]
    params = channel.NoiseModelParams.from_json({**channel.REFERENCE_PARAMS.to_json(), "blur": blur})
    assert {mode: getattr(params, f"blur_{mode}").to_json() for mode in blur} == blur


@pytest.mark.parametrize("seed", ["-1", str(2**32), str(2**64)])
def test_detector_roundtrip_script_takes_the_seeds_simulate_takes(tmp_path, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        ROUND_TRIP.main(["--seed", seed, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"{seed!r} is not an integer in [0, 2**32 - 1]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
