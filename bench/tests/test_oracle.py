"""Tests of the benchmark's own reference code and output checks.

    python3 -m pytest bench/tests -q

The oracle must reproduce hand-built tables and closed forms, and every
check must pass a correct artifact and reject a deliberately corrupted one.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import run  # noqa: E402


def test_arcsine_hand_tables():
    np.testing.assert_array_equal(oracle.arcsine(2), [1 / 2, 0, 1 / 2])
    np.testing.assert_array_equal(oracle.arcsine(4), [3 / 8, 0, 1 / 4, 0, 3 / 8])
    np.testing.assert_array_equal(oracle.arcsine(6), [5 / 16, 0, 3 / 16, 0, 3 / 16, 0, 5 / 16])


def test_arcsine_matches_rotation_row_at_pi_over_2():
    for n in (2, 8, 14):
        np.testing.assert_allclose(oracle._rotation_row(n, math.pi / 2), oracle.arcsine(n), atol=1e-12)


def test_moments_hand_table():
    # N=2 shots (0,2) (1,1) (1,1) (2,0), plus one N=3 shot that must be ignored
    m = oracle.moments(np.array([0, 1, 1, 2, 3]), np.array([2, 1, 1, 0, 0]), 2)
    assert m["shots"] == 4
    np.testing.assert_array_equal(m["probs"], [0.25, 0.5, 0.25])
    assert (m["mean_jz"], m["jz2"], m["var_jz"]) == (0.0, 0.5, 0.5)
    assert m["parity"] == 0.0  # (+1)/4 + (-1)/2 + (+1)/4
    assert m["jxjy2"] == 1.0
    assert not m["zero_var"]
    m = oracle.moments(np.array([3, 3, 1]), np.array([1, 1, 1]), 4)
    assert m["zero_var"] and m["var_jz"] == 0.0
    assert (m["mean_jz"], m["parity"]) == (1.0, -1.0)
    with pytest.raises(ValueError):
        oracle.moments(np.array([1]), np.array([1]), 4)


@pytest.mark.parametrize("x", [0.05, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_boundary_closed_forms(x):
    assert oracle.boundary(0.5, x) == pytest.approx(x * x / 2.0, abs=1e-10)
    assert oracle.boundary(1.0, x) == pytest.approx((1.0 - math.sqrt(1.0 - x * x)) / 2.0, abs=1e-10)


def test_boundary_endpoints_and_convexity():
    assert oracle.boundary(2.5, 0.0) == 0.0
    xs = np.linspace(0.1, 0.9, 5)
    f = np.array([oracle.boundary(2.5, x) for x in xs])
    assert np.all(np.diff(f, 2) >= -1e-9)
    assert oracle.boundary(2.5, 0.999) < 0.5


def test_scaling_scan_recovers_exponent():
    n = np.arange(2, 15, 2)
    f = 0.93 * (n**1.87 / 2.0 + n)
    assert oracle.scaling_scan(n, f, 0.05 * f) == pytest.approx(1.87, abs=1e-9)


def test_requantize_inverts_the_signal_model():
    rng = np.random.default_rng(3)
    n = rng.integers(0, 8, size=1200)
    s0 = rng.normal(2e5, 3e4, size=1200)
    offsets = np.repeat([10.0, -30.0, 25.0], 400)
    signal = 250.0 + 900.0 * n + offsets + 1.5e-3 * s0 + rng.uniform(-400, 400, size=1200)
    occ = oracle.requantize(signal, s0, 1.5e-3, [0, 400, 800], [10.0, -30.0, 25.0], 900.0, 250.0)
    np.testing.assert_array_equal(occ, n)


def test_ideal_recovery_closed_form():
    assert oracle.ideal_recovery(np.array([0]), 0.2, 0.0) == pytest.approx(0.5 * (1 + math.erf(2.5 / math.sqrt(2))))
    assert oracle.ideal_recovery(np.array([4]), 0.1, 0.05) == pytest.approx(
        math.erf(0.5 / math.sqrt(0.01 + 0.01) / math.sqrt(2)))


# ---------------------------------------------------------------------------
# checks pass correct artifacts and reject corrupted ones


def _write_table(path, n_plus, n_minus):
    rows = "\n".join(f"{a},{b}" for a, b in zip(n_plus, n_minus))
    path.write_text("N_plus,N_minus\n" + rows + "\n")


@pytest.fixture
def twin_fock_analysis(tmp_path):
    """Ideal twin-Fock data: N/2 atoms per mode at theta=0, exact arcsine counts at pi/2."""
    zero_p, zero_m, hom_p, hom_m = [], [], [], []
    for n in run.N_VALUES:
        zero_p += [n // 2] * n
        zero_m += [n // 2] * n
        for k, c in enumerate(np.rint(oracle.arcsine(n) * 4 ** (n // 2)).astype(int)):
            hom_p += [k] * c
            hom_m += [n - k] * c
    data = tmp_path / "run"
    data.mkdir()
    _write_table(data / "zero.csv", zero_p, zero_m)
    _write_table(data / "hom.csv", hom_p, hom_m)
    (data / "metadata.json").write_text(json.dumps({"files": {"0.000000": "zero.csv", "1.570796": "hom.csv"}}))
    per_n, weights = {}, {}
    total = sum(run.N_VALUES)
    for n in run.N_VALUES:
        per_n[str(n)] = {
            "fidelity_vs_ideal": 1.0,
            "parity_x": {"value": 1.0},
            "jxjy2": n * (n + 2) / 4.0,
            "var_jz": 0.0,
            "parity_z": (-1.0) ** (n // 2),
            "squeezing": {"linear": 0.0, "db": -math.inf},
            "depth": {"parity_point": n, "parity_method": "parity", "variance_point": n,
                      "parity_confident": n, "variance_confident": n},
        }
        weights[str(n)] = n / total
    terms = {str(n): -n / (4.0 * (n - 1)) for n in run.N_VALUES}
    report = {"per_n": per_n, "witness_indefinite_n": {
        "value": sum(weights[k] * terms[k] for k in terms), "per_n": terms, "weights": weights}}
    return data, report, tmp_path / "report.json"


def _analysis_problems(case, corrupt=None):
    data, report, path = case
    if corrupt is not None:
        corrupt(report)
    path.write_text(json.dumps(report))
    return run.check_analysis(data, path)


def test_check_analysis_accepts_ideal_data(twin_fock_analysis):
    assert _analysis_problems(twin_fock_analysis) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r["per_n"]["6"].update(fidelity_vs_ideal=0.99),
    lambda r: r["per_n"]["4"].update(var_jz=1e-3),
    lambda r: r["per_n"]["8"]["squeezing"].update(db=-30.0),
    lambda r: r["per_n"]["10"]["depth"].update(variance_point=11),
    lambda r: r["per_n"]["12"]["depth"].update(parity_point=11),
    lambda r: r["per_n"]["2"]["depth"].update(variance_confident=0),
    lambda r: r["witness_indefinite_n"].update(value=0.1),
    lambda r: r["witness_indefinite_n"]["weights"].update({"2": 0.5}),
])
def test_check_analysis_rejects_corruption(twin_fock_analysis, corrupt):
    assert _analysis_problems(twin_fock_analysis, corrupt)


def test_check_depth_tolerates_only_near_boundary_verdicts():
    margins = {3: (-0.5, 0.01), 4: (0.005, 0.01), 5: (0.2, 0.01)}
    assert oracle.check_depth(5, margins) == []  # k=4 within tolerance of its bound
    assert oracle.check_depth(4, margins) == []
    assert oracle.check_depth(6, margins)  # k=5 clearly satisfies its bound
    assert oracle.check_depth(3, margins)  # misses the clear violation at k=3


def _fisher(tmp_path, f, s):
    n = run.FISHER_N
    path = tmp_path / "fisher.json"
    path.write_text(json.dumps({"aggregated": {str(k): {"F": v, "F_err": 0.01 * v} for k, v in zip(n, f)},
                                "scaling": {"s": s, "r": 1.0}}))
    return path


def test_check_fisher(tmp_path):
    n = np.array(run.FISHER_N, dtype=float)
    ideal = n * (n + 2) / 2.0
    s = oracle.scaling_scan(n, ideal, 0.01 * ideal)
    assert run.check_fisher(_fisher(tmp_path, ideal, s), ideal=True) == []
    assert run.check_fisher(_fisher(tmp_path, ideal, s + 1e-4), ideal=True)
    bent = ideal * np.where(n == 8, 1.02, 1.0)
    assert run.check_fisher(_fisher(tmp_path, bent, oracle.scaling_scan(n, bent, 0.01 * bent)), ideal=True)
    assert run.check_fisher(_fisher(tmp_path, bent, oracle.scaling_scan(n, bent, 0.01 * bent)), ideal=False) == []


@pytest.fixture
def calibration_case(tmp_path):
    rng = np.random.default_rng(7)
    truth = {"plus": rng.geometric(0.25, 26712) - 1, "minus": rng.geometric(0.25, 26712) - 1}
    signals = oracle.synthesize(truth["plus"], truth["minus"], seed=7)
    starts = np.arange(0, 26712, 400)
    drift = 0.5 * oracle.DRIFT_PEAK_TO_PEAK * np.sin(2 * np.pi * np.arange(26712) / oracle.DRIFT_PERIOD)
    report = {"crosstalk": {}, "modes": {}}
    for mode in ("minus", "plus"):
        inj = oracle.INJECTED[mode]
        report["crosstalk"][mode] = inj["kappa"]
        report["modes"][mode] = {"g": inj["g"], "b": inj["b"]}
        corr = [drift[s:s + 400].mean() for s in starts]
        rows = "\n".join(f"{s},0,{c:.3f},0" for s, c in zip(starts, corr))
        (tmp_path / f"drift_{mode}.csv").write_text("window_start,center,correction,center_stderr\n" + rows + "\n")
    return tmp_path, report, signals, truth


@pytest.mark.parametrize("corrupt", [
    None,
    lambda r: r["crosstalk"].update(plus=1.2 * oracle.INJECTED["plus"]["kappa"]),
    lambda r: r["modes"]["minus"].update(g=1.01 * oracle.INJECTED["minus"]["g"]),
    lambda r: r["modes"]["plus"].update(b=r["modes"]["plus"]["b"] + 250.0),
])
def test_check_calibration(calibration_case, corrupt):
    out, report, signals, truth = calibration_case
    if corrupt is not None:
        corrupt(report)
    (out / "calibration.json").write_text(json.dumps(report))
    problems = run.check_calibration(out, signals, truth)
    assert (problems == []) == (corrupt is None)


@pytest.fixture(scope="module")
def hom_shots():
    grid = oracle.reference_channel(math.pi / 2, oracle.REFERENCE_RATES)
    idx = np.random.default_rng(11).choice(grid.size, size=3816, p=grid.ravel())
    return np.unravel_index(idx, grid.shape)


@pytest.mark.parametrize("rates, objective_shift, ok", [
    (oracle.REFERENCE_RATES, 0.0, True),
    (oracle.REFERENCE_RATES, 1e-3, False),
    ({**oracle.REFERENCE_RATES, "a_plus": 0.2}, 0.0, False),
])
def test_check_noise_fit(tmp_path, hom_shots, rates, objective_shift, ok):
    emp = oracle.empirical_grid(*hom_shots, oracle.N_MAX)
    objective = oracle.hellinger_sq(oracle.reference_channel(math.pi / 2, rates), emp) + objective_shift
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({"rates": rates, "objective": objective, "converged": True}))
    assert (run.check_noise_fit(path, *hom_shots) == []) == ok


def test_failed_checks_are_counted(tmp_path):
    s = run.Session(tmp_path, trace=False)
    s.op("help", ["--help"], check=lambda: run.check_fisher(tmp_path / "missing.json", ideal=False))
    assert (s.attempted, s.failed, s.unexpected) == (1, 1, 1)
    assert s.peak_rss_mb > 0
    with pytest.raises(RuntimeError):
        s.start_rounds()  # a failure before the rounds ends the run
    s.failed = 0
    s.start_rounds()
    assert (s.attempted, s.failed, s.peak_rss_mb) == (0, 0, 0.0)  # only round processes count
    s.op("help", ["--help"], check=lambda: [run.KNOWN_FAULT + "scaling s"])
    assert (s.attempted, s.failed, s.unexpected) == (1, 1, 1)  # unexpected is still the first failure


def _faulty_fisher(tmp_path, s):
    """A fisher.json whose cost minimum is the known fault's, reporting exponent s."""
    n = np.array(run.FISHER_N, dtype=float)
    f = n ** run.FISHER_FAULT_S[1] / 2.0 + n
    assert oracle.scaling_scan(n, f, 0.01 * f) == pytest.approx(run.FISHER_FAULT_S[1], abs=1e-9)
    return _fisher(tmp_path, f, s)


def test_only_the_documented_scaling_mismatch_is_a_known_fault(tmp_path):
    known = run.FISHER_FAULT_S
    problems = run.check_fisher(_faulty_fisher(tmp_path, 2.408184426873163), False, known)
    assert len(problems) == 1 and problems[0].startswith(run.KNOWN_FAULT)
    for s in (2.3, 2.45, known[1]):  # another wrong exponent, or none
        problems = run.check_fisher(_faulty_fisher(tmp_path, s), False, known)
        assert not any(p.startswith(run.KNOWN_FAULT) for p in problems)
    assert run.check_fisher(_faulty_fisher(tmp_path, known[1]), False, known) == []
    path = _faulty_fisher(tmp_path, known[0])
    payload = json.loads(path.read_text())
    payload["aggregated"]["8"]["F"] = float("nan")
    path.write_text(json.dumps(payload))
    problems = run.check_fisher(path, False, known)
    assert problems and not any(p.startswith(run.KNOWN_FAULT) for p in problems)


@pytest.mark.parametrize("args, writes", [
    (["fisher", "--dataset", "no-such-dataset"], False),  # the command crashes
    (["--help"], False),  # exits 0 but writes no fisher.json
    (["--help"], True),  # writes a fisher.json with the wrong atom numbers
])
def test_a_broken_fisher_dataset_run_is_not_a_known_fault(tmp_path, args, writes):
    out = tmp_path / "fisher.json"
    if writes:
        out.write_text(json.dumps({"aggregated": {"2": {"F": 4.0, "F_err": 0.1}}, "scaling": {"s": 2.4082}}))
    s = run.Session(tmp_path, trace=False)
    s.start_rounds()
    s.op("fisher-dataset", args, check=lambda: run.check_fisher(out, False, run.FISHER_FAULT_S))
    assert (s.attempted, s.failed, s.unexpected) == (1, 1, 1)
