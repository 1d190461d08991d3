"""Acceptance gate: one verdict line per shipped-behavior criterion.

Each test prints ``CRITERION n: PASS/FAIL - <measured values>`` before
asserting, so ``pytest tests/test_acceptance.py -v -s`` gives the full
scoreboard in one screen.  Criteria 3 and 4 compare the reference-noise
model against externally stated target windows that the model does not
reach; they fail by design and their lines carry the measured numbers.
"""

import math
import time

import numpy as np
import pytest

import oracles
from homsim import channel, detector, entanglement, fock, metrology, stats
from shared import ROUND_TRIP, TABLE_ROWS

XI = math.asinh(math.sqrt(3.75))  # 7.5 atoms per shot on average
EVEN_N = (2, 4, 6, 8, 10, 12)


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def source():
    return fock.tmsv_distribution(fock.SqueezedSource(xi=XI), n_max=20)


@pytest.fixture(scope="module")
def reference_tables(source):
    """3816-shot tables at theta=0 and pi/2 for the reference noise model."""
    tables = {}
    for i, theta in enumerate((0.0, math.pi / 2)):
        pred = channel.predict(source, theta, channel.REFERENCE_PARAMS)
        tables[theta] = metrology.ShotTable.sample(pred, 3816, seed=101 + i, theta=theta)
    return tables


@pytest.fixture(scope="module")
def product_cloud():
    """10^4 random product states over N in {2, 4, 6} as collective moments."""
    rng = np.random.default_rng(12)
    cloud = []
    for n, m in ((2, 3334), (4, 3333), (6, 3333)):
        for bloch in oracles.random_bloch(rng, m, n):
            mo = oracles.product_state_moments(bloch)
            cloud.append(entanglement.CollectiveData(
                n_total=n, jxjy2=mo["jxjy2"], var_jz=mo["var_jz"],
                parity_z=mo["parity_z"], parity_x=mo["parity_x"],
                parity_y=mo["parity_y"], mean_jz=mo["mean_jz"],
            ))
    return cloud


def test_criterion_1_arcsine_distribution():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 17, 2):
        ours = fock.twin_fock_output(n, math.pi / 2).probs
        worst = max(worst, np.abs(ours - oracles.arcsine_row(n)).max())
        worst = max(worst, np.abs(ours - oracles.kernel_factorial(n, math.pi / 2)[n // 2]).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    verdict(1, ok, f"max |dev| vs both oracles {worst:.2e} (<=1e-10), even N<=16, {elapsed:.2f}s")


def test_criterion_2_parity_suppression(reference_tables):
    t0 = time.perf_counter()
    plan = stats.ResamplePlan(n_samples=500, seed=7)
    ok = True
    parts = []
    for n in EVEN_N:
        ph = metrology.empirical_distribution(reference_tables[math.pi / 2], n)
        par = fock.collective_moments(ph).parity
        draws = fock.moments(stats.multinomial_resample(ph.probs, ph.n_shots, plan)).parity
        _, hi = stats.asymmetric_std(draws, center=par)
        floor = 0.75 if n <= 10 else 0.5
        ok &= par + hi >= floor
        parts.append(f"N={n}:{par:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    verdict(2, ok, f"pi/2 parity {' '.join(parts)} vs floors 0.75 (N<=10) / 0.5 (N=12), {elapsed:.1f}s")


def test_criterion_3_squeezing_window(reference_tables):
    dbs = []
    for n in EVEN_N:
        p0 = metrology.empirical_distribution(reference_tables[0.0], n)
        ph = metrology.empirical_distribution(reference_tables[math.pi / 2], n)
        data = entanglement.collective_data(n, fock.collective_moments(p0), fock.collective_moments(ph))
        try:
            db = metrology.generalized_squeezing(data.var_jz, data.jxjy2, n).db
        except ValueError:
            continue
        if math.isfinite(db):
            dbs.append(db)
    mean_db = float(np.mean(dbs))
    ok = -18.0 <= mean_db <= -12.0
    verdict(3, ok, f"mean generalized squeezing {mean_db:.1f} dB over N={list(EVEN_N)}, window [-18, -12] dB")


def test_criterion_4_fisher_scaling_exponents(source):
    t0 = time.perf_counter()
    angles = [0.0, 0.14, 0.20, 0.28, 0.35]
    per_theta = {t: channel.predict(source, t, channel.REFERENCE_PARAMS) for t in angles}
    dists = {n: {t: per_theta[t].fixed_n(n).probs for t in angles} for n in range(2, 15, 2)}
    targets = ((False, {}, 1.81, "quadratic"),
               (True, {}, 1.87, "quartic"),
               (True, metrology.DEFAULT_EXCLUSIONS, 2.01, "quartic+exclusion"))
    ok = True
    parts = []
    for quartic, excl, target, label in targets:
        est = metrology.fisher_from_distributions(dists, angles=angles, quartic=quartic, exclusions=excl)
        hit = abs(est.scaling.s - target) <= 0.03
        ok &= hit
        parts.append(f"{label} s={est.scaling.s:.4f} vs {target}+-0.03 {'ok' if hit else 'MISS'}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    verdict(4, ok, f"exact-model exponents: {'; '.join(parts)}, {elapsed:.1f}s")


def test_criterion_5_depth_from_table_rows():
    rows = [entanglement.CollectiveData.from_json(r) for r in TABLE_ROWS]
    published = (2, 4, 6, 8, 9, 10)
    ok = True
    parts = []
    for data, expect in zip(rows, published):
        res = entanglement.depth_parity(data)
        tol = 1 if data.n_total >= 10 else 0
        hit = res.method == "parity" and abs(res.depth - expect) <= tol
        ok &= hit
        parts.append(f"N={data.n_total}:{res.depth}")
    verdict(5, ok, f"parity depths {' '.join(parts)} vs {published} (tol +-1 at N>=10)")


def test_criterion_6_indefinite_n_witness(product_cloud):
    worst_dev = 0.0
    for n in EVEN_N:
        wit = entanglement.witness_indefinite_n([oracles.ideal_twin_fock_data(n)])
        worst_dev = max(worst_dev, abs(wit.per_n[n] - (-n / (4.0 * (n - 1)))))
    floor = min(entanglement.witness_indefinite_n([d]).value for d in product_cloud)
    table_value = entanglement.witness_indefinite_n(
        [entanglement.CollectiveData.from_json(r) for r in TABLE_ROWS]).value
    ok = worst_dev <= 1e-12 and floor >= -1e-9
    verdict(6, ok, f"ideal per-N terms within {worst_dev:.1e} of -N/(4(N-1)); "
                   f"{len(product_cloud)} product states >= {floor:.2e}; "
                   f"equal-weight table value {table_value:.4f} vs soft target -0.3433+-0.0095 (not asserted)")


def test_criterion_7_detector_round_trip():
    t0 = time.perf_counter()
    union, chains = ROUND_TRIP.round_trip(5)  # simulate --seed 5's shots, default drift and crosstalk
    ok = True
    parts = []
    for mode, ref in (("minus", detector.DEFAULT_CALIBRATION_MINUS),
                      ("plus", detector.DEFAULT_CALIBRATION_PLUS)):
        corrected, _, _, calib = chains[mode]
        dg = abs(calib.g - ref.g) / ref.g
        z_s = abs(calib.sigma0 - ref.sigma0) / max(calib.sigma0_err, 1e-12)
        z_c = abs(calib.c1 - ref.c1) / max(calib.c1_err, 1e-12)
        occ = detector.quantize_mode(corrected, calib)
        true = union.n_minus if mode == "minus" else union.n_plus
        agree = float(np.mean(occ == true))
        fids = np.array([detector.detection_fidelity(int(n), ref) for n in range(int(true.max()) + 1)])
        expected = float(fids[true].mean())
        z_a = abs(agree - expected) / math.sqrt(expected * (1 - expected) / len(true))
        ok &= dg < 0.02 and z_s < 3 and z_c < 3 and z_a < 4
        parts.append(f"{mode}: dg={dg:.3%} z_sigma0={z_s:.1f} z_c1={z_c:.1f} "
                     f"recovery {agree:.4f} vs {expected:.4f} (z={z_a:.1f})")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    verdict(7, ok, f"26712-shot round trip, {'; '.join(parts)}, {elapsed:.1f}s")


def test_criterion_8_separability_suite(product_cloud):
    viol = 0
    worst = {"parity_xyz": -np.inf, "witness": np.inf, "k1": np.inf}
    for data in product_cloud:
        pxyz = entanglement.parity_witness_xyz(data).value
        term = entanglement.witness_indefinite_n([data]).value
        k1 = (data.n_total - 1) * data.var_jz - data.jxjy2 + data.n_total / 2.0
        viol += (pxyz > 1 + 1e-9) + (term < -1e-9) + (k1 < -1e-9)
        worst["parity_xyz"] = max(worst["parity_xyz"], pxyz)
        worst["witness"] = min(worst["witness"], term)
        worst["k1"] = min(worst["k1"], k1)
    ok = viol == 0
    verdict(8, ok, f"{len(product_cloud)} product states, {viol} violations; "
                   f"max parity_xyz {worst['parity_xyz']:.6f} (<=1), min witness {worst['witness']:.2e} (>=0), "
                   f"min k=1 variance slack {worst['k1']:.2e} (>=0)")
