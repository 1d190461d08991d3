"""Witnesses, the minimal-variance boundary, and depth certification."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from homsim import entanglement as ent
from homsim import fock, stats
from homsim.fock import DomainError
from test_acceptance import TABLE_ROWS, _script


def table_data():
    return [ent.CollectiveData.from_json(r) for r in TABLE_ROWS]


def test_collective_data_validation_and_defaults():
    d = ent.CollectiveData(n_total=4, jxjy2=5.0, var_jz=0.1, parity_x=0.8, mean_jz=0.5)
    assert d.parity_y == 0.8  # defaults to the x parity
    assert d.jz2 == pytest.approx(0.1 + 0.25)
    with pytest.raises(ValueError):
        ent.CollectiveData(n_total=1, jxjy2=1.0, var_jz=0.0)
    with pytest.raises(ValueError):
        ent.CollectiveData(n_total=4, jxjy2=-0.1, var_jz=0.0)
    with pytest.raises(ValueError):
        ent.CollectiveData(n_total=4, jxjy2=1.0, var_jz=-0.1)
    with pytest.raises(ValueError):
        ent.CollectiveData(n_total=4, jxjy2=1.0, var_jz=0.1, parity_z=1.5)


def test_collective_data_json_round_trip_ignores_extras():
    d = ent.CollectiveData(n_total=6, jxjy2=11.0, var_jz=0.03, parity_z=0.9, parity_x=0.8)
    row = d.to_json()
    row["comment"] = "extraneous"
    assert ent.CollectiveData.from_json(row) == d


def test_ideal_twin_fock_moments():
    d = ent.ideal_twin_fock_data(6)
    assert d.jxjy2 == pytest.approx(3 * 4)
    assert d.var_jz == 0.0
    assert d.parity_z == -1.0  # odd number of pairs
    assert ent.ideal_twin_fock_data(8).parity_z == 1.0
    assert d.symmetry_J == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        ent.ideal_twin_fock_data(5)


def test_collective_from_distributions_matches_ideal():
    n = 6
    probs0 = np.eye(n + 1)[n // 2]
    p0 = fock.FixedNDistribution(n_total=n, probs=probs0)
    data = ent.collective_from_distributions(p0, fock.holland_burnett(n))
    ideal = ent.ideal_twin_fock_data(n)
    assert data.var_jz == pytest.approx(0.0, abs=1e-12)
    assert data.jxjy2 == pytest.approx(ideal.jxjy2, abs=1e-12)
    assert data.parity_z == pytest.approx(ideal.parity_z, abs=1e-12)
    assert data.parity_x == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        ent.collective_from_distributions(p0, fock.holland_burnett(4))


def test_parity_witness_threshold():
    w = ent.parity_witness_xyz(ent.ideal_twin_fock_data(4))
    assert w.value == pytest.approx(3.0)
    assert w.entangled
    sep = ent.CollectiveData(n_total=4, jxjy2=4.0, var_jz=1.0, parity_z=0.9, parity_x=0.0)
    assert not ent.parity_witness_xyz(sep).entangled


def test_boundary_closed_forms():
    xs = np.linspace(0.0, 1.0, 101)
    half = np.array([ent.sm_boundary(0.5, x) for x in xs])
    np.testing.assert_allclose(half, [oracles.boundary_half(x) for x in xs], atol=2e-4)
    one = np.array([ent.sm_boundary(1.0, x) for x in xs])
    np.testing.assert_allclose(one, [oracles.boundary_one(x) for x in xs], atol=2e-4)


@pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 5.0])
def test_boundary_shape_properties(j):
    xs = np.linspace(0.0, 1.0, 51)
    f = np.array([ent.sm_boundary(j, x) for x in xs])
    assert f[0] == 0.0
    assert f[-1] == pytest.approx(0.5, abs=1e-9)
    assert np.all(np.diff(f) >= -1e-12)  # monotone
    assert np.all(np.diff(f, 2) >= -1e-9)  # convex
    assert np.all(f >= 0.0)


@pytest.mark.parametrize("two_j", range(1, 14))
def test_boundary_lines_never_above_exact_minimum(two_j):
    """Each supporting line's offset is at most the exact min of Var(Jz) - mu <Jx>.

    A line above the exact minimum lifts the boundary and over-certifies
    depth; this compares lines on the solver's own mu grid, not F at x = 1.
    """
    slopes, offsets = ent._boundary_lines(two_j)
    exact = oracles.min_energy(two_j, slopes[:-1]) / (two_j / 2.0)
    excess = offsets[:-1] - exact
    assert excess.max() <= 1e-10
    assert excess.min() >= -1e-9  # every offset is a reached level, so it cannot sit far below


@pytest.mark.parametrize("two_j", sorted(set(range(14, ent.MAX_BOUNDARY_DIM, 7)) | {ent.MAX_BOUNDARY_DIM - 1}))
def test_stored_rows_exact_at_sampled_mu(two_j):
    """The rows above 2j = 13, on every 7th spin and the cap, at four grid mu across the range."""
    slopes, offsets = ent._boundary_lines(two_j)
    idx = np.array([0, 170, 341, 511])
    excess = offsets[idx] - oracles.min_energy(two_j, slopes[idx]) / (two_j / 2.0)
    assert excess.max() <= 1e-10
    assert excess.min() >= -1e-9


def test_generator_and_stored_table_agree():
    gen = _script("boundary_table")
    table = np.load(ent.BOUNDARY_TABLE, allow_pickle=False)
    assert table.dtype == np.float64
    np.testing.assert_array_equal(table[0], np.logspace(-3, 3, 512))
    assert len(table[1:]) + 1 == ent.MAX_BOUNDARY_DIM
    for two_j in range(1, 7):
        np.testing.assert_allclose(table[two_j], gen.offsets(two_j), rtol=0.0, atol=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")  # [tool.setuptools] support is flagged beta
def test_boundary_table_declared_as_package_data():
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    conf = pyproject.read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")
    assert ent.BOUNDARY_TABLE.name in conf["tool"]["setuptools"]["package-data"]["homsim"]
    assert ent.BOUNDARY_TABLE.parent.name == "homsim"


def test_depth_path_diagonalizes_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("diagonalization on the depth path")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    ent._boundary_lines.cache_clear()
    data = ent.CollectiveData(n_total=10, jxjy2=28.55625, var_jz=0.2509)
    assert ent.depth_variance(data).depth == 9
    n, shots = 12, 400
    binom = np.array([math.comb(n, k) for k in range(n + 1)]) / 2.0**n
    p0 = 0.2 * binom
    p0[n // 2] += 0.8
    ph = 0.8 * fock.holland_burnett(n).probs + 0.2 * binom
    ent._boundary_lines.cache_clear()
    _, var = ent.depth_with_resampling(
        fock.FixedNDistribution(n_total=n, probs=p0, n_shots=shots),
        fock.FixedNDistribution(n_total=n, probs=ph, n_shots=shots),
        plan=stats.ResamplePlan(n_samples=100, seed=3))
    assert len(var.samples) == 100
    assert ent._boundary_lines.cache_info().currsize > 1  # the boundary was read for several spins


def test_variance_depth_not_over_certified_at_half_integer_block():
    # k = 9, N = 10: the boundary bound needs Var < 5 F_{9/2}(0.65) = 0.2378 (exact);
    # a boundary 5e-3 too high at 2j = 9 reads 0.2640 and certifies depth 10.
    data = ent.CollectiveData(n_total=10, jxjy2=28.55625, var_jz=0.2509)
    assert ent.depth_variance(data).depth == 9


def test_boundary_decreases_with_spin():
    vals = [ent.sm_boundary(j, 0.6) for j in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_boundary_domain_guards():
    with pytest.raises(DomainError):
        ent.sm_boundary(0.3, 0.5)
    with pytest.raises(DomainError):
        ent.sm_boundary(0.5, 1.2)
    with pytest.raises(DomainError):
        ent.sm_boundary(40.0, 0.5)  # 2j+1 exceeds the solver cap
    xs = np.linspace(0.0, 1.0, 11)
    xs[7] = 1.0 + 1e-12
    with pytest.raises(DomainError):
        ent.sm_boundary(1.5, xs)  # one element out of range fails the whole array
    xs[7] = np.nan
    with pytest.raises(DomainError):
        ent.sm_boundary(1.5, xs)


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 3.0, 6.0])
def test_boundary_array_equals_scalar_calls(j):
    xs = np.linspace(0.0, 1.0, 1001)
    batched = ent.sm_boundary(j, xs)
    assert isinstance(batched, np.ndarray) and batched.shape == xs.shape
    scalar = [ent.sm_boundary(j, float(x)) for x in xs]
    assert all(type(v) is float for v in scalar)
    np.testing.assert_array_equal(batched, scalar)
    np.testing.assert_array_equal(batched, [_scalar_boundary(j, x) for x in xs])


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_ideal_state_reaches_full_depth_both_routes(n):
    ideal = ent.ideal_twin_fock_data(n)
    assert ent.depth_parity(ideal).depth == n
    assert ent.depth_parity(ideal).method == "parity"
    assert ent.depth_variance(ideal).depth == n


def test_depth_parity_frozen_table():
    depths = [ent.depth_parity(d) for d in table_data()]
    assert [d.depth for d in depths] == [2, 4, 6, 8, 9, 11]
    assert all(d.method == "parity" for d in depths)


def test_depth_variance_frozen_table():
    assert [ent.depth_variance(d).depth for d in table_data()] == [2, 4, 6, 8, 8, 10]


def test_depth_beyond_the_solver_cap_for_ideal_rows():
    # every bound at N = 66 is beaten outright (argument >= 1), so no block size
    # k >= 64 reaches the boundary solver, whose cap is 2j + 1 <= 64
    data = ent.ideal_twin_fock_data(66)
    assert (ent.depth_parity(data).depth, ent.depth_parity(data).method) == (66, "parity")
    assert ent.depth_variance(data).depth == 66


def test_criteria_call_the_boundary_only_where_it_decides(monkeypatch):
    calls = []

    def counted(j, x):
        assert len(x) > 0
        calls.append((j, len(x)))
        return real(j, x)

    real = ent.sm_boundary
    monkeypatch.setattr(ent, "sm_boundary", counted)
    ideal, flat = ent.ideal_twin_fock_data(12), ent.CollectiveData(n_total=12, jxjy2=1.0, var_jz=0.5)
    ent._criteria(12, [ideal.jxjy2, flat.jxjy2], [ideal.var_jz, flat.var_jz], [ideal.parity_z, flat.parity_z])
    assert calls == []  # beaten outright, or inapplicable at every k >= 2
    ent._criteria(12, [ideal.jxjy2, 30.0], [0.0, 0.2], [1.0, 0.0])
    assert calls and all(rows == 1 for _, rows in calls)  # only the second row needs the boundary


def test_depth_parity_rejects_odd_n():
    with pytest.raises(DomainError):
        ent.depth_parity(ent.CollectiveData(n_total=5, jxjy2=6.0, var_jz=0.1))


def test_depth_falls_back_when_parity_route_silent():
    dull = ent.CollectiveData(n_total=6, jxjy2=0.0, var_jz=0.3, parity_z=0.0, parity_x=0.0)
    res = ent.depth_parity(dull)
    assert res.method == "fallback"
    assert res.depth == 1
    # low spread makes every k >= 2 criterion inapplicable, and that is recorded
    assert res.clamped_k == (2, 3, 4, 5)


def test_depth_with_resampling_ideal_and_determinism():
    n = 6
    p0 = fock.FixedNDistribution(n_total=n, probs=np.eye(n + 1)[n // 2], n_shots=3816)
    ph = fock.FixedNDistribution(n_total=n, probs=fock.holland_burnett(n).probs, n_shots=3816)
    plan = stats.ResamplePlan(n_samples=200, seed=2)
    a, v = ent.depth_with_resampling(p0, ph, plan=plan)
    b, _ = ent.depth_with_resampling(p0, ph, plan=plan)
    assert a.depth == b.depth == n
    assert (a.method, v.method) == ("parity", "variance")
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.confidence_level == v.confidence_level == 0.68
    assert v.depth >= n - 1
    bare = fock.holland_burnett(n)
    with pytest.raises(ValueError):
        ent.depth_with_resampling(bare, bare, plan=plan)


def _mixed_pair():
    """N = 8 histograms of 300 shots whose resamples reach depths 2..6, most through the fallback."""
    n, shots = 8, 300
    binom = np.array([math.comb(n, k) for k in range(n + 1)]) / 2.0**n
    p0 = 0.3 * binom
    p0[n // 2] += 0.7
    ph = 0.6 * fock.holland_burnett(n).probs + 0.4 * binom
    return (fock.FixedNDistribution(n_total=n, probs=p0, n_shots=shots),
            fock.FixedNDistribution(n_total=n, probs=ph, n_shots=shots))


def test_resampled_depths_equal_point_criteria_per_sample():
    p0, ph = _mixed_pair()
    plan = stats.ResamplePlan(n_samples=200, seed=5)
    par, var = ent.depth_with_resampling(p0, ph, plan=plan)
    p0s, phs = stats.resample_pair(p0, ph, plan)
    methods = set()
    for i in range(plan.n_samples):
        data = ent.collective_data(p0.n_total, fock.moments(p0s[i]), fock.moments(phs[i]))
        point = ent.depth_parity(data)
        methods.add(point.method)
        assert par.samples[i] == point.depth
        assert var.samples[i] == ent.depth_variance(data).depth
    assert methods == {"parity", "fallback"}  # both branches of the parity route are exercised
    assert len(set(par.samples)) > 2


@pytest.mark.parametrize("n0, nh, error, match", [
    (5, 5, DomainError, "even N"), (1, 1, ValueError, "two atoms"), (0, 0, ValueError, "two atoms"),
    (8, 6, ValueError, "different N"),
])
def test_depth_with_resampling_rejects_odd_tiny_or_mismatched_n(n0, nh, error, match):
    p0, ph = (fock.FixedNDistribution(n_total=n, probs=np.full(n + 1, 1.0 / (n + 1)), n_shots=100) for n in (n0, nh))
    with pytest.raises(error, match=match):
        ent.depth_with_resampling(p0, ph, plan=stats.ResamplePlan(n_samples=10, seed=0))


def _scalar_boundary(j, x):
    """The envelope at one argument, evaluated as the scalar path did."""
    slopes, offsets = ent._boundary_lines(int(round(2 * j)))
    return max(0.0, float((offsets + slopes * x).max()))


def _edge_rows(n, rng):
    """(jxjy2, var_jz, parity_z) rows on each bound and one ulp to either side, plus clamped rows.

    A variance row sits on jmax F_{k/2}(arg), with arg computed from the row
    as the criteria compute it; a parity row sits on the k-th parity
    threshold; a k = 1 row on its bound.  Rows of spread below N/2 leave every
    k >= 2 clamped; rows of maximal spread put every boundary argument at one.
    """
    jmax = n / 2.0
    rows = []
    for k in range(2, n):
        blocks = n // k
        x_bound = blocks * ent._pair_spread(k) + ent._pair_spread(n - blocks * k)
        den = jmax * (jmax - k / 2.0)
        for t in rng.uniform(0.05, 0.95, 4):
            # a spread whose argument is about t in the boundary bound, then in the block one
            s1, s2 = jmax * (k / 2.0 + 1.0) + t**2 * den, x_bound + (t * jmax) ** 2
            for s, arg in ((s1, math.sqrt((s1 - jmax * (k / 2.0 + 1.0)) / den)), (s2, math.sqrt(s2 - x_bound) / jmax)):
                v = jmax * _scalar_boundary(k / 2.0, arg)
                pz = rng.uniform(-1.0, 1.0)
                rows += [(s, u, pz) for u in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]
    for k in range(math.ceil(n / 2), n):
        for pz in (-1.0, -0.5, 0.5, 1.0):
            s = jmax * (jmax + 1) - k * (n - k) / 2.0 * abs(pz)  # exact in binary
            rows += [(u, rng.uniform(0.0, jmax), pz) for u in (np.nextafter(s, -np.inf), s, np.nextafter(s, np.inf))]
    rows += zip(rng.uniform(0.0, 0.5 * n, 20), rng.uniform(0.0, jmax, 20), rng.uniform(-1.0, 1.0, 20))
    for q in (0.125, 0.25):  # on the k = 1 bound (n - 1) var = jxjy2 - n/2, with k >= 2 clamped
        rows += [(jmax + (n - 1) * q, u, 0.0) for u in (np.nextafter(q, -np.inf), q, np.nextafter(q, np.inf))]
    rows += [(jmax * (jmax + 1), v, 0.0) for v in rng.uniform(0.0, jmax, 5)]
    return rows


def test_batched_criteria_match_scalar_reference():
    rng = np.random.default_rng(2024)
    total = clamped_all = on_edge = 0
    for n in range(2, 15):
        jmax, m = n / 2.0, 1500
        rows = list(zip(rng.uniform(0.0, 1.1 * jmax * (jmax + 1), m), jmax * rng.uniform(0.0, 1.0, m) ** 3,
                        rng.uniform(-1.0, 1.0, m)))
        edge = _edge_rows(n, rng)
        on_edge += len(edge)
        jxjy2, var, parity_z = (np.array(c) for c in zip(*rows, *edge))
        batched = zip(*(a.tolist() for a in ent._criteria(n, jxjy2, var, parity_z)))
        for (p, v, applies), s, vz, pz in zip(batched, jxjy2.tolist(), var.tolist(), parity_z.tolist()):
            ref_p = oracles.parity_depth_k(n, s, pz)
            ref_v, ref_clamped = oracles.variance_depth_k(n, s, vz, _scalar_boundary)
            assert p == (-1 if ref_p is None else ref_p)
            assert v == ref_v
            assert [k for k, a in enumerate(applies, start=2) if not a] == ref_clamped
            clamped_all += n > 2 and len(ref_clamped) == n - 2
        total += len(jxjy2)
    assert total >= 20000
    assert on_edge > 1000 and clamped_all >= 12 * 20


def test_witness_indefinite_n_frozen_value():
    w = ent.witness_indefinite_n(table_data())
    assert w.value == pytest.approx(-0.2731481601731601, abs=1e-15)
    assert w.entangled
    assert w.threshold == 0.0
    assert set(w.per_n) == {2, 4, 6, 8, 10, 12}


def test_witness_ideal_contribution_closed_form():
    for n in (2, 4, 6, 8, 10, 12):
        w = ent.witness_indefinite_n([ent.ideal_twin_fock_data(n)])
        assert w.value == pytest.approx(-n / (4.0 * (n - 1)), abs=1e-12)


def test_witness_weights_and_validation():
    rows = table_data()[:2]
    uniform = ent.witness_indefinite_n(rows)
    tilted = ent.witness_indefinite_n(rows, weights=[3.0, 1.0])
    expected = 0.75 * uniform.per_n[2] + 0.25 * uniform.per_n[4]
    assert tilted.value == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        ent.witness_indefinite_n(rows, weights=[1.0])
    with pytest.raises(ValueError):
        ent.witness_indefinite_n(rows, weights=[-1.0, 2.0])
    with pytest.raises(ValueError):
        ent.witness_indefinite_n([])


def test_witnesses_never_fire_on_product_states():
    rng = np.random.default_rng(7)
    worst_var, worst_parity = np.inf, -np.inf
    for n in (2, 4, 6):
        bloch = oracles.random_bloch(rng, 2000, n)
        for b in bloch:
            m = oracles.product_state_moments(b)
            row = ent.CollectiveData(
                n_total=n,
                jxjy2=m["jxjy2"],
                var_jz=max(m["var_jz"], 0.0),
                parity_z=float(np.clip(m["parity_z"], -1, 1)),
                parity_x=float(np.clip(m["parity_x"], -1, 1)),
                parity_y=float(np.clip(m["parity_y"], -1, 1)),
                mean_jz=m["mean_jz"],
            )
            worst_var = min(worst_var, ent.witness_indefinite_n([row]).value)
            worst_parity = max(worst_parity, ent.parity_witness_xyz(row).value)
    assert worst_var >= -1e-9
    assert worst_parity <= 1.0 + 1e-9


def test_depth_result_json():
    res = ent.depth_parity(table_data()[2])
    blob = res.to_json()
    assert blob["depth"] == 6 and blob["method"] == "parity"
    assert "n_samples" not in blob
