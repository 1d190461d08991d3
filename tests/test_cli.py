"""End-to-end checks of the command-line pipeline, run in-process through ``cli.main``."""

import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from homsim import channel, cli, detector, entanglement, fock, metrology, stats
from homsim.cli import RunConfig
from shared import (HOM, NOISE_OFF, ROUND_TRIP, TABLE_ROWS, camera_run, invoke, load_script,  # noqa: F401
                    noise_off_config, signals_to_csv, simulated, workdir)


# ---------------------------------------------------------------- config


def test_default_config_hash_is_stable():
    assert RunConfig().hash() == "34f88ed334f0925a"
    # any knob change must move the hash
    assert RunConfig(shots_per_angle=100).hash() != RunConfig().hash()


def test_config_from_json_file(noise_off_config):
    cfg = RunConfig.from_file(noise_off_config)
    assert cfg.noise == "none"
    assert cfg.noise_params() is None
    assert cfg.angles == [0.0, HOM]
    assert cfg.hash() == "acc5e3b6dc237bb0"


def test_readme_example_config_states_its_values(tmp_path):
    # the one documented example config, read by the one parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = tmp_path / "example.json"
    example.write_text(readme.split("Example config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0])
    cfg = RunConfig.from_file(example)
    assert cfg.xi == math.asinh(math.sqrt(2.0))  # 2 sinh^2(xi) = 4 atoms per shot on average
    assert cfg.noise == "reference"
    assert cfg.shots_per_angle == 3816
    assert cfg.n_values == [2, 4, 6, 8, 10, 12]
    assert cfg.canonical() == {**RunConfig().canonical(), "xi": cfg.xi}  # the other fields keep their defaults


@pytest.mark.parametrize("text", [b"", b"[1, 2]", b"null", b"xi = 1.2\n", b"# a comment\n", b"\xff\xfe"],
                         ids=["empty", "list", "null", "key-value", "comment", "not-utf8"])
@pytest.mark.parametrize("command", ["simulate", "fisher --exact ideal"])
def test_config_that_is_not_one_json_object_exits_2(tmp_path, text, command):
    # an empty or comment-only file ran the command at the defaults and exited 0; [1, 2] and null were
    # reported as "config line is not key=value"
    config = tmp_path / "run.cfg"
    config.write_bytes(text)
    res = invoke(["--config", config, "--out", tmp_path / "o", *command.split()])
    assert res.exit_code == 2, res.output
    assert f"config {config} is not" in res.output
    assert not (tmp_path / "o").exists()


def test_config_rejects_unknown_keys_and_junk(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus_key": 3}')
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_file(bad)
    bad.write_text("no JSON here\n")
    with pytest.raises(ValueError, match="is not JSON"):
        RunConfig.from_file(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(shots_per_angle=0)
    with pytest.raises(ValueError):
        RunConfig(angles=[0.0, 4.0])
    with pytest.raises(ValueError):
        RunConfig(n_max=0)
    with pytest.raises(ValueError):
        RunConfig(noise="garbled").noise_params()
    assert RunConfig(noise="reference").noise_params() is not None
    rates = {"a_plus": 0.1, "a_minus": 0.02, "l_plus": 0.0, "l_minus": 0.01}
    custom = RunConfig(noise=rates).noise_params()
    assert custom.a_plus == 0.1
    assert custom.skew == 1.052  # skew and blur fall back to the fixed settings


def test_unknown_config_key_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus_key": 3}')
    res = invoke(["--config", bad, "--out", tmp_path / "o", "simulate"])
    assert res.exit_code == 2
    assert "unknown config keys" in res.output


@pytest.mark.parametrize("text, key", [('{"n_values": 5}', "n_values"), ('{"n_values": null}', "n_values"),
                                       ('{"angles": 0.1}', "angles")])
def test_scalar_for_a_list_field_exits_2(tmp_path, text, key):
    # iterating the scalar used to fail with "'int' object is not iterable", naming no field
    config = tmp_path / "config.json"
    config.write_text(text)
    res = invoke(["--config", config, "--out", tmp_path / "o", "simulate"])
    assert res.exit_code == 2, res.output
    assert f"{key} must be a list" in res.output
    assert not (tmp_path / "o").exists()


def test_repeated_atom_number_in_config_exits_2(tmp_path, simulated):
    # analyze wrote one collective.csv row per entry and split the witness weight between the copies
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**NOISE_OFF, "n_values": [2, 4, 2]}))
    res = invoke(["--config", config, "--out", tmp_path / "o", "analyze", simulated])
    assert res.exit_code == 2, res.output
    assert "n_values repeats [2]" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "analyze", "fisher --exact ideal"])
@pytest.mark.parametrize("n_values", [[0, 4], [-2, 4], [3, 4], []])
def test_atom_numbers_that_are_not_even_and_at_least_2_exit_2(tmp_path, simulated, command, n_values):
    # simulate exited 0 on these, and analyze and fisher failed deep in the numerics or (on []) wrote empty outputs
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**NOISE_OFF, "n_values": n_values}))
    args = [command, simulated] if command == "analyze" else command.split()
    res = invoke(["--config", config, "--out", tmp_path / "o", *args])
    assert res.exit_code == 2, res.output
    assert "n_values must list even atom numbers" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "fisher --exact model"])
@pytest.mark.parametrize("noise", ["off", "ideal", None])
def test_undocumented_noise_alias_exits_2(tmp_path, noise, command):
    # each used to mean no noise (null with its own config hash); the documented spellings are none, reference
    # and a rate object
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"noise": noise}))
    res = invoke(["--config", config, "--out", tmp_path / "o", *command.split()])
    assert res.exit_code == 2, res.output
    assert f"noise must be none, reference or an object, not {noise!r}" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "calibrate", "analyze", "fisher --exact ideal", "fisher --dataset",
                                     "depth", "witness"])
def test_malformed_noise_exits_2_on_every_command(tmp_path, command):
    # noise is checked when the config loads, so no command stamps a config that simulate rejects
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"noise": "garbage"}))
    path = [] if command in ("simulate", "fisher --exact ideal") else [tmp_path]  # any existing path will do
    res = invoke(["--config", config, "--out", tmp_path / "o", *command.split(), *path])
    assert res.exit_code == 2, res.output
    assert "noise must be none, reference or an object, not 'garbage'" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "calibrate", "analyze", "fisher --exact ideal", "fisher --dataset",
                                     "depth", "witness"])
@pytest.mark.parametrize("key, value", [("xi", -1), ("xi_jitter", -0.1), ("resample_samples", 0),
                                        ("confidence_level", 5)])
def test_out_of_range_config_value_exits_2_on_every_command(tmp_path, command, key, value):
    # each range was checked only by the command that used the field, so the others stamped the config's hash
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    path = [] if command in ("simulate", "fisher --exact ideal") else [tmp_path]  # any existing path will do
    res = invoke(["--config", config, "--out", tmp_path / "o", *command.split(), *path])
    assert res.exit_code == 2, res.output
    assert f"{key} must be" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    ('{"n_max": 20, "n_max": 30}', "config key n_max given twice"),
    ('{"noise": {"a_plus": 0.05, "a_minus": 0.02, "l_plus": 0.0, "l_minus": 0.01, "a_plus": 0.06}}',
     "config key a_plus given twice"),
], ids=["json", "json-noise"])
def test_config_key_given_twice_exits_2(tmp_path, text, message):
    # the last value was taken, and the command exited 0
    config = tmp_path / "config.json"
    config.write_text(text)
    res = invoke(["--config", config, "--out", tmp_path / "o", "simulate"])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not (tmp_path / "o").exists()


def test_unreadable_config_exits_2(tmp_path):
    res = invoke(["--config", tmp_path, "--out", tmp_path / "o", "simulate"])  # a directory
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_needs_no_valid_config(tmp_path, command):
    # the config is read when a command runs, so --help never reads it
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key = 3\n")
    res = invoke(["--config", bad, command, "--help"])
    assert res.exit_code == 0, res.output
    assert res.output.startswith(f"usage: homsim {command} ")


# ---------------------------------------------------------------- simulate


def test_simulate_writes_tables_and_stamped_metadata(simulated):
    meta = json.loads((simulated / "metadata.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["seed"] == 3
    assert meta["config_hash"] == "acc5e3b6dc237bb0"
    assert meta["noise"] is None
    assert sorted(meta["files"]) == ["0.000000", "1.570796"]
    for name in meta["files"].values():
        assert (simulated / name).exists()
    assert all(0.0 <= t < 1.0 for t in meta["tail_mass"].values())


def test_simulate_is_byte_deterministic(workdir, noise_off_config, simulated):
    out2 = workdir / "sim_again"
    res = invoke(["--config", noise_off_config, "--seed", "3", "--out", out2, "simulate"])
    assert res.exit_code == 0
    for name in ("shots_theta0.000000.csv", "shots_theta1.570796.csv", "metadata.json"):
        assert (out2 / name).read_bytes() == (simulated / name).read_bytes()


def simulate_tables(out: Path, seed: int, angles=None) -> tuple[dict, list]:
    """metadata.json of ``simulate --seed SEED`` (over ``angles``, else the default ones) and its tables read back."""
    config = out / "config.json"
    config.write_text(json.dumps({} if angles is None else {"angles": angles}))
    res = invoke(["--config", config, "--seed", seed, "--out", out, "simulate"])
    assert res.exit_code == 0, res.output
    meta = json.loads((out / "metadata.json").read_text())
    return meta, [metrology.ShotTable.from_csv(out / name) for name in meta["files"].values()]


@pytest.mark.parametrize("angles", [None, ROUND_TRIP.ANGLES], ids=["default", "seven-angle"])
def test_shot_tables_are_the_tables_simulate_writes(tmp_path, angles):
    meta, written = simulate_tables(tmp_path, 1, angles)
    drawn = list(cli.shot_tables(RunConfig() if angles is None else RunConfig(angles=angles), 1))
    assert list(meta["files"]) == [f"{table.theta:.6f}" for table, _ in drawn]
    assert list(meta["tail_mass"].values()) == [tail for _, tail in drawn]
    for (table, _), got in zip(drawn, written, strict=True):
        np.testing.assert_array_equal(table.n_plus, got.n_plus)
        np.testing.assert_array_equal(table.n_minus, got.n_minus)


def test_round_trip_shots_are_simulates_over_its_angles(tmp_path):
    # the round trip once keyed its tables by a rule of its own, not stats.stream_key(seed, i) as simulate does
    _, written = simulate_tables(tmp_path, 5, ROUND_TRIP.ANGLES)
    union, _ = ROUND_TRIP.round_trip(5)
    np.testing.assert_array_equal(union.n_plus, np.concatenate([t.n_plus for t in written]))
    np.testing.assert_array_equal(union.n_minus, np.concatenate([t.n_minus for t in written]))


def test_noise_free_hom_shots_are_all_even(simulated):
    table = metrology.ShotTable.from_csv(simulated / "shots_theta1.570796.csv", theta=HOM)
    assert not np.any(table.n_plus % 2)
    assert not np.any(table.n_minus % 2)


# ---------------------------------------------------------------- analyze


@pytest.fixture(scope="module")
def analyzed(workdir, noise_off_config, simulated):
    out = workdir / "ana"
    res = invoke(["--config", noise_off_config, "--seed", 3, "--out", out, "analyze", simulated])
    assert res.exit_code == 0, res.output
    return out


def test_analyze_noise_free_report(analyzed):
    rep = json.loads((analyzed / "report.json").read_text())
    assert rep["config_hash"] == "acc5e3b6dc237bb0"
    for n in (2, 4, 6):
        entry = rep["per_n"][str(n)]
        assert entry["fidelity_vs_ideal"] > 0.99
        # even-only outcomes make the pi/2 parity exactly one
        assert entry["parity_x"]["value"] == 1.0
        assert entry["var_jz"] == 0.0
        assert entry["squeezing"]["db"] == -math.inf
        d = entry["depth"]
        assert d["parity_point"] == n and d["parity_method"] == "parity"
        assert d["variance_point"] == n
        assert d["parity_confident"] == n and d["variance_confident"] == n
    wit = rep["witness_indefinite_n"]
    assert wit["entangled"] and wit["value"] < -0.3
    # every per-N squeezing is -inf dB, so no finite mean is reported, and the report says it left out every N
    assert "squeezing_db_mean" not in rep
    assert rep["squeezing_db_mean_of_n"] == [] and rep["squeezing_db_mean_omits_n"] == [2, 4, 6]
    assert all(entry["depth"]["unevaluated_k"] == [] for entry in rep["per_n"].values())


def test_analyze_csv_artifacts(analyzed):
    expect = {
        "collective.csv": "N,var_jz,jxjy2,parity_z,parity_x,symmetry_J",
        "parity.csv": "N,parity_x,err_minus,err_plus",
        "squeezing.csv": "N,xi2_gen,xi2_gen_db",
        "depth.csv": "N,parity_point,parity_confident,variance_point,variance_confident",
    }
    for name, header in expect.items():
        lines = (analyzed / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 4  # one row per N


# dropped angle -> (the notice that names the omitted sections, the per-N keys kept, the CSV tables written)
PARTIAL_DATASETS = {
    "0.000000": ("no theta=0 dataset", {"fidelity_vs_ideal", "parity_x", "jxjy2"}, ["parity.csv"]),
    "1.570796": ("no pi/2 dataset", {"var_jz", "parity_z"}, []),
}


@pytest.mark.parametrize("dropped", PARTIAL_DATASETS)
def test_analyze_partial_dataset_omits_sections(tmp_path, noise_off_config, simulated, analyzed, dropped):
    notice, keys, tables = PARTIAL_DATASETS[dropped]
    meta = json.loads((simulated / "metadata.json").read_text())
    del meta["files"][dropped]
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    (dataset / "metadata.json").write_text(json.dumps(meta))
    for name in meta["files"].values():
        shutil.copy(simulated / name, dataset / name)
    out = tmp_path / "o"
    res = invoke(["--config", noise_off_config, "--seed", 3, "--out", out, "analyze", dataset])
    assert res.exit_code == 0, res.output
    rep = json.loads((out / "report.json").read_text())
    assert len(rep["notices"]) == 1 and rep["notices"][0].startswith(notice)
    assert sorted(rep["per_n"]) == ["2", "4", "6"]
    assert all(set(entry) == keys for entry in rep["per_n"].values())
    assert "witness_indefinite_n" not in rep and "squeezing_db_mean" not in rep
    assert sorted(p.name for p in out.glob("*.csv")) == tables
    for name in tables:  # the same resamples as with the full dataset
        assert (out / name).read_bytes() == (analyzed / name).read_bytes()


def test_analyze_without_metadata_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    res = invoke(["--out", tmp_path / "o", "analyze", empty])
    assert res.exit_code == 2
    assert "metadata.json" in res.output


def test_analyze_reads_the_pi_half_table_by_its_key(tmp_path):
    # 1.570797 lies within 1e-6 of pi/2, and a tolerance window that met it first read its table as pi/2's
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**NOISE_OFF, "angles": [0.0, 1.570797, HOM], "n_values": [2, 4]}))
    for command in (["simulate"], ["analyze", tmp_path / "sim"]):
        res = invoke(["--config", config, "--seed", 1, "--out", tmp_path / command[0][:3], *command])
        assert res.exit_code == 0, res.output
    fidelity = {name: metrology.fidelity(metrology.empirical_distribution(
        metrology.ShotTable.from_csv(tmp_path / "sim" / f"shots_theta{name}.csv"), 4), fock.twin_fock_output(4, HOM))
        for name in ("1.570796", "1.570797")}
    assert fidelity["1.570796"] != fidelity["1.570797"]
    assert json.loads((tmp_path / "ana" / "report.json").read_text())["per_n"]["4"]["fidelity_vs_ideal"] == \
        fidelity["1.570796"]


def test_dataset_with_pi_runs_every_dataset_command(tmp_path):
    # simulate wrote shots_theta3.141593.csv, whose key lies above pi, and the dataset commands rejected it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**NOISE_OFF, "angles": [0.0, 0.14, 0.2, 0.28, HOM, math.pi], "resample_samples": 20}))
    for command in (["simulate"], ["analyze", tmp_path / "sim"], ["fisher", "--dataset", tmp_path / "sim"]):
        res = invoke(["--config", config, "--seed", 1, "--out", tmp_path / command[0][:3], *command])
        assert res.exit_code == 0, res.output
    assert "3.141593" in json.loads((tmp_path / "sim" / "metadata.json").read_text())["files"]
    assert (tmp_path / "ana" / "report.json").exists() and (tmp_path / "fis" / "fisher.json").exists()


@pytest.mark.parametrize("command", ["analyze", "fisher --dataset"])
def test_two_files_under_one_angle_key_exit_2(tmp_path, simulated, command):
    # "1.570796" and "1.5707961" name one angle; the lookup used whichever file its window met first
    meta = json.loads((simulated / "metadata.json").read_text())
    meta["files"]["1.5707961"] = meta["files"]["1.570796"]
    dataset = tmp_path / "dataset"
    shutil.copytree(simulated, dataset)
    (dataset / "metadata.json").write_text(json.dumps(meta))
    res = invoke(["--out", tmp_path / "o", *command.split(), dataset])
    assert res.exit_code == 2, res.output
    assert "'1.5707961' shares the angle key 1.570796" in res.output
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- fisher


def test_fisher_exact_ideal_matches_frozen_scaling(tmp_path):
    cfgp = tmp_path / "fisher.json"
    cfgp.write_text(json.dumps({"n_values": [2, 4, 6, 8, 10, 12, 14], "noise": "none"}))
    out = tmp_path / "fish"
    res = invoke(["--config", cfgp, "--out", out, "fisher", "--exact", "ideal"])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "fisher.json").read_text())
    assert payload["source"] == "exact-ideal"
    assert payload["scaling"]["s"] == pytest.approx(2.0002599445422, abs=1e-9)
    assert payload["scaling"]["r"] == pytest.approx(0.9999164975876, abs=1e-9)
    assert payload["aggregated"]["2"]["F"] == pytest.approx(4.0000267666552, abs=1e-9)
    assert payload["exclusions"] == {"14": [0.35]}
    lines = (out / "fisher_scaling.csv").read_text().splitlines()
    assert lines[0] == "N,F_mean,F_err,F_fit"
    assert len(lines) == 8
    assert lines[1].startswith("2,4.0000,")


def test_fisher_reports_failed_fit_with_exit_code_3(tmp_path, monkeypatch):
    def no_minimum(*args, **kwargs):
        raise stats.FitError("scaling fit: no cost minimum bracketed")

    monkeypatch.setattr(metrology, "fit_scaling", no_minimum)
    res = invoke(["--out", tmp_path / "o", "fisher", "--exact", "ideal"])
    assert res.exit_code == 3
    assert "no cost minimum" in res.output


def test_fisher_requires_exactly_one_source(tmp_path):
    res = invoke(["--out", tmp_path / "o", "fisher"])
    assert res.exit_code == 2
    assert "exactly one" in res.output


@pytest.fixture(scope="module")
def default_dataset(workdir):
    """A simulate run with the default config: five probe angles and pi/2."""
    res = invoke(["--out", workdir / "default-dataset", "simulate"])
    assert res.exit_code == 0, res.output
    return workdir / "default-dataset"


@pytest.mark.parametrize("probes, angles", [(5, [0.0, HOM]), (2, None)])
def test_fisher_dataset_checks_the_probe_angles_of_its_tables(tmp_path, default_dataset, probes, angles):
    # the check read the config's angles: an analyze-only config rejected a five-probe dataset, and a
    # two-probe dataset passed the default config's check and failed in the parabola fits
    meta = json.loads((default_dataset / "metadata.json").read_text())
    meta["files"] = dict(list(meta["files"].items())[:probes] + [("1.570796", meta["files"]["1.570796"])])
    dataset = tmp_path / "dataset"
    shutil.copytree(default_dataset, dataset)
    (dataset / "metadata.json").write_text(json.dumps(meta))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"resample_samples": 20, **({"angles": angles} if angles else {})}))
    res = invoke(["--config", config, "--out", tmp_path / "o", "fisher", "--dataset", dataset])
    if probes == 2:
        assert res.exit_code == 2, res.output
        assert "need at least three small probe angles" in res.output
        return
    assert res.exit_code == 0, res.output
    per_theta = json.loads((tmp_path / "o" / "fisher.json").read_text())["per_theta"]
    assert list(per_theta["2"]) == ["0", "0.14", "0.2", "0.28", "0.35"]


@pytest.mark.parametrize("command", ["analyze", "fisher --dataset"])
def test_atom_number_above_the_datasets_grid_exits_2(tmp_path, default_dataset, command):
    # N = 22 is cut off at n_max = 20: analyze read its pi/2 fidelity as 0.56 (0.98 at N = 20), and fisher --dataset
    # fitted an F at N = 22 below the one at N = 20
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_values": [2, 4, 6, 20, 22, 24]}))
    res = invoke(["--config", config, "--out", tmp_path / "o", *command.split(), default_dataset])
    assert res.exit_code == 2, res.output
    assert "N=22 outside 0..n_max=20" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_max", [20.5, True, "20", None, "absent"])
def test_dataset_grid_must_be_an_integer_where_given(tmp_path, default_dataset, n_max):
    meta = json.loads((default_dataset / "metadata.json").read_text())
    if n_max == "absent":  # measured data carries no grid, and is read without the capacity check
        del meta["n_max"]
    else:
        meta["n_max"] = n_max
    dataset = tmp_path / "dataset"
    shutil.copytree(default_dataset, dataset)
    (dataset / "metadata.json").write_text(json.dumps(meta))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"resample_samples": 20}))
    res = invoke(["--config", config, "--out", tmp_path / "o", "analyze", dataset])
    if n_max == "absent":
        assert res.exit_code == 0, res.output
        return
    assert res.exit_code == 2, res.output
    assert f"n_max must be an integer, not {n_max!r}" in res.output
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- random streams


@pytest.fixture(scope="module")
def default_draws(workdir):
    """Every draw of simulate, analyze and fisher --dataset on the default config at seeds 0 and 1.

    Per seed: the Philox key of each shot table; the key and the stack of each
    resample, under the command that drew it; the record (a stack) of each
    resampled depth; and analyze's report.
    """
    sample, resample, depth = metrology.ShotTable.sample, stats.multinomial_resample, entanglement.depth_with_resampling
    draws = {}
    for master in (0, 1):
        record = draws[master] = {"simulate": [], "analyze": [], "fisher --dataset": [], "depth": []}
        stage = ["simulate"]

        def sampling(cls, dist, n_shots, seed=0, theta=None):
            record["simulate"].append(seed)
            return sample(dist, n_shots, seed=seed, theta=theta)

        def resampling(probs, n_shots, plan):
            stack = resample(probs, n_shots, plan)
            record[stage[0]].append((plan.seed, stack))
            return stack

        def depths(data, level=0.68):
            record["depth"].append(data)
            return depth(data, level)

        run = workdir / f"default-{master}"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrology.ShotTable, "sample", classmethod(sampling))
            mp.setattr(stats, "multinomial_resample", resampling)
            mp.setattr(entanglement, "depth_with_resampling", depths)
            for command in ("simulate", "analyze", "fisher --dataset"):
                stage[0] = command
                dataset = [] if command == "simulate" else [run / "simulate"]
                res = invoke(["--seed", master, "--out", run / command.split()[0], *command.split(), *dataset])
                assert res.exit_code == 0, res.output
        record["report"] = json.loads((run / "analyze" / "report.json").read_text())
    return draws


def test_squeezing_mean_names_the_n_it_averaged(default_draws):
    # at seed 1 all 197 N = 10 shots at theta = 0 sit at Jz = 0: its squeezing is -inf dB and stays out of the mean
    rep = default_draws[1]["report"]
    assert rep["per_n"]["10"]["squeezing"]["db"] == -math.inf
    assert rep["squeezing_db_mean_of_n"] == [2, 4, 6, 8, 12] and rep["squeezing_db_mean_omits_n"] == [10]
    assert rep["squeezing_db_mean"] == np.mean([rep["per_n"][str(n)]["squeezing"]["db"] for n in (2, 4, 6, 8, 12)])


def test_analyze_draws_two_stacks_per_n_with_distinct_keys(default_draws):
    for record in default_draws.values():
        keys = [key for key, _ in record["analyze"]]
        assert len(keys) == 2 * len(RunConfig().n_values) == len(set(keys))


def test_analyze_reads_parity_error_and_confident_depths_from_one_pi_half_stack(default_draws):
    for seed, record in default_draws.items():
        stacks = dict(record["analyze"])
        assert [data.n_total for data in record["depth"]] == RunConfig().n_values
        for data in record["depth"]:
            n = data.n_total
            hom = fock.moments(stacks[stats.stream_key(seed, round(HOM * 1e6), n, 0)])
            zero = fock.moments(stacks[stats.stream_key(seed, 0, n, 0)])
            np.testing.assert_array_equal(data.jxjy2, 2 * hom.jz2)  # <Jx^2+Jy^2> of each pi/2 resample
            np.testing.assert_array_equal(data.parity_x, hom.parity)
            for ours, drawn in (("mean_jz", "mean_jz"), ("var_jz", "var_jz"), ("parity_z", "parity")):
                np.testing.assert_array_equal(getattr(data, ours), getattr(zero, drawn))
            parity = record["report"]["per_n"][str(n)]["parity_x"]
            assert len(set(hom.parity)) > 1  # a stack that varies, so its spread tells stacks apart
            assert (parity["err_minus"], parity["err_plus"]) == stats.asymmetric_std(hom.parity, parity["value"])


def test_fisher_dataset_draws_two_stacks_per_kept_histogram(default_draws):
    cfg = RunConfig()
    kept = [t for t in cfg.angles if t < 1.0]
    for seed, record in default_draws.items():
        stacks = dict(record["fisher --dataset"])
        assert len(record["fisher --dataset"]) == 2 * len(kept) * len(cfg.n_values) == len(stacks)
        for n in cfg.n_values:  # the first side of theta = 0 is the stack analyze draws
            key = stats.stream_key(seed, 0, n, 0)
            np.testing.assert_array_equal(stacks[key], dict(record["analyze"])[key][:500])  # 500 of analyze's 1000


def test_resample_keys_never_equal_shot_keys(default_draws):
    shots = {key for record in default_draws.values() for key in record["simulate"]}
    assert len(shots) == 2 * len(RunConfig().angles)
    resamples = {key for record in default_draws.values() for command in ("analyze", "fisher --dataset")
                 for key, _ in record[command]}
    # per seed and N: pi/2 once, and each of the five small angles on two sides, theta = 0's first shared with analyze
    assert len(resamples) == 2 * (1 + 2 * 5) * len(RunConfig().n_values)
    assert not shots & resamples


# ---------------------------------------------------------------- depth / witness


@pytest.fixture(scope="module")
def rows_json(workdir):
    path = workdir / "rows.json"
    path.write_text(json.dumps({"rows": TABLE_ROWS}))
    return path


def test_depth_command_frozen_table(workdir, rows_json):
    out = workdir / "dep"
    res = invoke(["--out", out, "depth", rows_json])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "depth.json").read_text())
    got = [(r["n_total"], r["parity"]["depth"], r["parity"]["method"], r["variance"]["depth"])
           for r in payload["results"]]
    assert got == [(2, 2, "parity", 2), (4, 4, "parity", 4), (6, 6, "parity", 6),
                   (8, 8, "parity", 8), (10, 9, "parity", 8), (12, 11, "parity", 10)]
    lines = (out / "depth.csv").read_text().splitlines()
    assert lines[0] == "N,depth_parity,parity_method,depth_variance"
    assert lines[5] == "10,9,parity,8"


def test_depth_leaves_block_sizes_beyond_the_boundary_table_unevaluated(tmp_path):
    # at N = 70 and 95% of the largest spread, blocks of 64..68 atoms need the boundary of spins up to 34,
    # beyond the table's 2j + 1 <= 64; the command once exited 2 there
    rows = tmp_path / "rows.json"
    jxjy2 = 0.95 * 35 * 36
    rows.write_text(json.dumps({"rows": [{"n_total": 70, "jxjy2": jxjy2, "var_jz": 0.5},
                                         {"n_total": 70, "jxjy2": jxjy2, "var_jz": 0.5, "parity_z": 0.9}]}))
    res = invoke(["--out", tmp_path / "o", "depth", rows])
    assert res.exit_code == 0, res.output
    fallback, parity = json.loads((tmp_path / "o" / "depth.json").read_text())["results"]
    beyond = list(range(64, 69))
    assert fallback["variance"]["unevaluated_k"] == fallback["parity"]["unevaluated_k"] == beyond
    assert fallback["parity"]["method"] == "fallback"
    assert fallback["variance"]["depth"] == fallback["parity"]["depth"] <= 64  # no k >= 64 certified
    assert parity["parity"]["method"] == "parity" and parity["parity"]["unevaluated_k"] == []
    assert parity["variance"]["unevaluated_k"] == beyond


@pytest.mark.parametrize("n_total", [4.0, 4.5])
@pytest.mark.parametrize("command", ["depth", "witness"])
def test_fractional_atom_number_in_rows_exits_2(tmp_path, command, n_total):
    # 4.0 crashed depth; 4.5 gave depth a wrong message and witness a term keyed "4.5"
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps({"rows": [{**TABLE_ROWS[1], "n_total": n_total}]}))
    res = invoke(["--out", tmp_path / "o", command, rows])
    assert res.exit_code == 2, res.output
    assert "non-integer n_total" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("order", [(1, 2), (2, 1)])
def test_repeated_atom_number_in_rows_exits_2(tmp_path, order):
    # both N = 4 rows used the last row's term: "not certified" in one order, "entangled" in the other
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps({"rows": [{**TABLE_ROWS[i], "n_total": 4} for i in order]}))
    res = invoke(["--out", tmp_path / "o", "witness", rows])
    assert res.exit_code == 2, res.output
    assert "N = 4 appears in more than one row" in res.output
    assert not (tmp_path / "o").exists()


def test_witness_command_frozen_value(workdir, rows_json):
    out = workdir / "wit"
    res = invoke(["--out", out, "witness", rows_json])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "witness.json").read_text())
    total = payload["indefinite_n"]
    assert total["value"] == pytest.approx(-0.2731481601731601, abs=1e-12)
    assert total["entangled"]
    assert total["per_n"]["2"] == pytest.approx(-0.4372, abs=1e-4)
    per = payload["parity_xyz"]
    assert [r["n_total"] for r in per] == [2, 4, 6, 8, 10, 12]
    assert all(r["entangled"] and r["value"] > 1.0 for r in per)


def test_depth_tables_script_writes_its_tables(tmp_path):
    # the script calls cli.main twice in one process, so main returns after a command instead of exiting
    load_script("reproduce_depth_tables").main(["--out", str(tmp_path)])
    for name in ("rows.json", "depth.json", "depth.csv", "witness.json"):
        assert (tmp_path / name).exists()


def test_analysis_script_writes_its_tables(tmp_path):
    load_script("reproduce_analysis").main(["--out", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["collective.csv", "config.json", "dataset", "depth.csv",
                                                         "parity.csv", "report.json", "squeezing.csv"]
    assert len(json.loads((tmp_path / "dataset" / "metadata.json").read_text())["files"]) == 6


@pytest.mark.parametrize("seed", ["-1", str(2**32)])
def test_analysis_script_takes_the_seeds_simulate_takes(tmp_path, seed, capsys):
    # -1 wrote config.json, then stopped inside cli.main with homsim's own usage line
    with pytest.raises(SystemExit) as exc:
        load_script("reproduce_analysis").main(["--seed", seed, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"{seed!r} is not an integer in [0, 2**32 - 1]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("script, argv, message", [
    ("reproduce_analysis", ["--shots", "0"], "shots_per_angle must be positive"),
    ("reproduce_fisher_scaling", ["--nmax", "1"], "n_values must list even atom numbers"),
    ("reproduce_fisher_scaling", ["--nmax", "3"], "the scaling fit needs three"),
    ("reproduce_fisher_scaling", ["--nmax", "22"], "N=22 outside 0..n_max=20"),
], ids=["analysis-shots-0", "fisher-nmax-1", "fisher-nmax-3", "fisher-nmax-22"])
def test_scripts_check_their_config_before_writing(tmp_path, script, argv, message, capsys):
    # each wrote a config.json or whole runs first, then stopped inside cli.main or on a null scaling fit
    with pytest.raises(SystemExit) as exc:
        load_script(script).main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fisher_scaling_script_fits_every_table(tmp_path):
    script = load_script("reproduce_fisher_scaling")
    script.main(["--out", str(tmp_path)])
    for state in ("ideal", "model"):
        for variant in script.VARIANTS:
            run = tmp_path / state / variant
            assert sorted(p.name for p in run.iterdir()) == ["config.json", "fisher.json", "fisher_scaling.csv"]
            assert json.loads((run / "fisher.json").read_text())["scaling"] is not None, run


# ---------------------------------------------------------------- calibrate


def test_calibrate_smoke(tmp_path):
    rng = np.random.default_rng(7)
    shots = metrology.ShotTable(n_plus=rng.poisson(1.2, 12000), n_minus=rng.poisson(1.2, 12000))
    sig = detector.synthesize_signals(
        shots,
        drift=detector.DriftSpec(peak_to_peak=150.0, period=6000.0),
        crosstalk={"minus": 1.5e-3, "plus": 1.8e-3},
        seed=21,
    )
    csv_path = tmp_path / "signals.csv"
    signals_to_csv(sig, csv_path)

    out = tmp_path / "cal"
    res = invoke(["--seed", 1, "--out", out, "calibrate", csv_path])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "calibration.json").read_text())
    assert report["command"] == "calibrate"
    assert report["seed"] == 1
    assert report["crosstalk"]["minus"] == pytest.approx(1.5e-3, abs=1e-4)
    assert report["crosstalk"]["plus"] == pytest.approx(1.8e-3, abs=1e-4)
    for mode, truth in (("minus", detector.DEFAULT_CALIBRATION_MINUS),
                        ("plus", detector.DEFAULT_CALIBRATION_PLUS)):
        fit = report["modes"][mode]
        assert fit["g"] == pytest.approx(truth.g, rel=0.01)
        assert fit["sigma0"] == pytest.approx(truth.sigma0, rel=0.15)
        assert 0.9 < fit["detection_fidelity_12"] <= 1.0
    assert sorted(p.name for p in out.iterdir()) == ["calibration.json", "drift_minus.csv", "drift_plus.csv",
                                                     "histogram_minus.csv", "histogram_plus.csv"]


@pytest.fixture(scope="module")
def calibrated(workdir):
    """calibration.json of calibrate on the seed-1 camera run, synthesized at the reference laws."""
    camera_run(1, workdir / "camera.csv")
    res = invoke(["--seed", 1, "--out", workdir / "camera", "calibrate", workdir / "camera.csv"])
    assert res.exit_code == 0, res.output
    return workdir / "camera" / "calibration.json"


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_calibration_json_is_strict_and_carries_each_modes_blur_law(calibrated):
    report = json.loads(calibrated.read_text(), parse_constant=reject_constant)
    for mode in ("minus", "plus"):
        fit = report["modes"][mode]
        assert all(fit[f"{k}_err"] > 0 for k in ("g", "b", "sigma0", "c1"))
        assert fit["blur"] == {k: fit[k] for k in ("sigma0", "c1", "g", "b")}
        law = channel.BlurLaw(**fit["blur"])  # the keys the noise config's blur takes
        assert law.to_json() == fit["blur"]
        assert fit["detection_fidelity_12"] == detector.detection_fidelity(12, law)


def model_quantities(out: Path, noise) -> np.ndarray:
    """F per N and s of ``fisher --exact model`` under ``noise``, then the theta = 0 Var(Jz) per N of the channel."""
    out.mkdir()
    config = out / "config.json"
    config.write_text(json.dumps({"noise": noise}))
    res = invoke(["--config", config, "--out", out, "fisher", "--exact", "model"])
    assert res.exit_code == 0, res.output
    fisher = json.loads((out / "fisher.json").read_text())
    cfg = RunConfig(noise=noise)
    zero = cli._predicted(cfg, 0.0)
    return np.array([fisher["aggregated"][str(n)]["F"] for n in cfg.n_values] + [fisher["scaling"]["s"]]
                    + [fock.collective_moments(zero.fixed_n(n)).var_jz for n in cfg.n_values])


def test_calibrated_blur_reproduces_the_reference_model_within_its_errors(tmp_path, calibrated):
    # the camera run is drawn at the reference laws; the calibrated ones, pasted into the noise config's blur,
    # must give the reference model's F, s and Var(Jz) within the errors propagated from sigma0 and c1.
    # Measured on the camera runs of seeds 1-8: |z| <= 3.05 on F and Var(Jz), 3.42 on s (seed 1: 3.26)
    modes = json.loads(calibrated.read_text())["modes"]
    rates = {k: v for k, v in channel.REFERENCE_PARAMS.to_json().items() if k != "blur"}
    noise = {**rates, "blur": {mode: modes[mode]["blur"] for mode in ("minus", "plus")}}
    reference = model_quantities(tmp_path / "reference", "reference")
    got = model_quantities(tmp_path / "calibrated", noise)
    variance = np.zeros_like(got)
    for mode in ("minus", "plus"):
        for name in ("sigma0", "c1"):
            h = 0.01 * modes[mode][name]
            law = {**modes[mode]["blur"], name: modes[mode][name] + h}
            slope = (model_quantities(tmp_path / f"{mode}-{name}", {**noise, "blur": {**noise["blur"], mode: law}})
                     - got) / h
            variance += (slope * modes[mode][f"{name}_err"]) ** 2
    z = (got - reference) / np.sqrt(variance)
    assert np.all(np.abs(z) <= 4.0), z


def stage_failure(stage: str, m: int, rng) -> np.ndarray:
    """A side-mode signal of m shots on which one calibration stage fails."""
    if stage == "crosstalk":  # a resolved zero-atom peak of only 80 shots
        return np.concatenate([rng.normal(250.0, 8.0, 80), rng.normal(1250.0, 15.0, m // 2),
                               rng.normal(2250.0, 15.0, m - 80 - m // 2)])
    if stage == "drift":  # shots 400-799 hold no zero-atom shot
        n = np.zeros(m, dtype=int)
        n[400:800] = 1
        n[::7] = 1
        return np.where(n == 0, rng.normal(250.0, 8.0, m), rng.normal(1250.0, 15.0, m))
    return rng.normal(250.0, 8.0, m)  # one peak: the histogram stage cannot resolve two


@pytest.mark.parametrize("mode", ["minus", "plus"])
@pytest.mark.parametrize("stage, message", [
    ("crosstalk", "zero-atom shots"), ("drift", "window 1 "), ("histogram", "two peaks"),
])
def test_calibrate_error_names_the_mode(tmp_path, mode, stage, message):
    m = 2400
    rng = np.random.default_rng(4)
    shots = metrology.ShotTable(n_plus=np.minimum(rng.poisson(1.0, m), 10), n_minus=np.minimum(rng.poisson(1.0, m), 10))
    sig = detector.synthesize_signals(shots, drift=detector.DriftSpec(peak_to_peak=0.0),
                                      crosstalk={"minus": 0.0, "plus": 0.0}, seed=6)
    csv_path = tmp_path / "signals.csv"
    signals_to_csv(replace(sig, **{f"s_{mode}": stage_failure(stage, m, rng)}), csv_path)
    res = invoke(["--out", tmp_path / "cal", "calibrate", csv_path])
    assert res.exit_code == 2, res.output
    assert f"mode {mode}" in res.output and message in res.output, res.output
    assert not (tmp_path / "cal").exists()  # a plus-mode failure leaves no minus tables behind


# ---------------------------------------------------------------- invalid input


@pytest.mark.parametrize("command", ["analyze", "fisher --dataset", "calibrate"])
@pytest.mark.parametrize("body", ["", "1\n"], ids=["header-only", "short-row"])
def test_malformed_csv_exits_2(tmp_path, command, body):
    if command == "calibrate":
        path = tmp_path / "signals.csv"
        path.write_text("shot_index,s_minus,s_zero,s_plus\n" + body)
        args = ["calibrate", path]
    else:
        dataset = tmp_path / "dataset"
        dataset.mkdir()
        (dataset / "metadata.json").write_text(json.dumps({"files": {"0.000000": "shots.csv"}}))
        path = dataset / "shots.csv"
        path.write_text("N_plus,N_minus\n" + body)
        args = [*command.split(), dataset]
    res = invoke(["--out", tmp_path / "o", *args])
    assert res.exit_code == 2, res.output
    assert str(path) in res.output
    assert "columns" in res.output


@pytest.mark.parametrize("command", ["analyze", "calibrate"])
def test_csv_header_naming_a_column_twice_exits_2(tmp_path, noise_off_config, simulated, command):
    # the first of the two columns was read, and the command exited 0
    if command == "calibrate":
        path, column = tmp_path / "signals.csv", "s_minus"
        camera_run(1, path)
        args = ["calibrate", path]
    else:
        shutil.copytree(simulated, tmp_path / "dataset")
        path, column = tmp_path / "dataset" / f"shots_theta{HOM:.6f}.csv", "N_plus"
        args = ["--config", noise_off_config, "analyze", tmp_path / "dataset"]
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([f"{header},{column}", *(f"{row},0" for row in rows)]) + "\n")
    res = invoke(["--out", tmp_path / "o", *args])
    assert res.exit_code == 2, res.output
    assert f"column {column} appears more than once" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("index", ["4.5", "nan", "inf"])
def test_signal_csv_with_a_non_integer_shot_index_exits_2(tmp_path, index):
    # the index was cast to int, so 4.5 between 3 and 5 read as 4 and calibrate exited 0
    path = tmp_path / "signals.csv"
    path.write_text("shot_index,s_minus,s_zero,s_plus\n" + "".join(f"{i},1.0,2.0,3.0\n" for i in ("3", index, "5")))
    res = invoke(["--out", tmp_path / "o", "calibrate", path])
    assert res.exit_code == 2, res.output
    assert f"{path}: column shot_index holds {float(index)}, not an integer" in res.output
    assert not (tmp_path / "o").exists()


# id suffix -> (rows.json payload, what the error message must name)
MALFORMED_ROWS = {
    "": ({"rows": [TABLE_ROWS[0], {"n_total": 4, "parity_z": 0.5}]}, "jxjy2, var_jz"),
    "-row-not-object": ({"rows": [5]}, "not an object: 5"),
    "-string-moment": ({"rows": [{**TABLE_ROWS[0], "jxjy2": "5"}]}, "non-numeric jxjy2"),
    "-bare-list": ([TABLE_ROWS[0]], 'a list under "rows"'),
    "-empty": ({"rows": []}, "no data rows"),  # depth wrote an empty depth.json and exited 0
    "-bool-moment": ({"rows": [{**TABLE_ROWS[0], "jxjy2": True, "var_jz": False}]}, "non-numeric jxjy2, var_jz"),
    # NaN and Infinity as Python's json writes and reads them
    "-nan-moment": ({"rows": [{**TABLE_ROWS[0], "var_jz": math.nan}]}, "non-numeric var_jz"),
    "-infinite-moment": ({"rows": [{**TABLE_ROWS[0], "var_jz": math.inf}]}, "non-numeric var_jz"),
    **{f"-weights-{name}": ({"rows": TABLE_ROWS[:2], "weights": weights}, '"weights"')
       for name, weights in (("null", [None, 1]), ("nested", [[1], [2]]), ("bool", [True, False]),
                             ("nan", [math.nan, 1]), ("object", {"2": 1}))},
}


@pytest.mark.parametrize("command, payload, message", [
    pytest.param(command, payload, message, id=command + suffix)
    for suffix, (payload, message) in MALFORMED_ROWS.items() for command in ("depth", "witness")
])
def test_incomplete_rows_json_exits_2(tmp_path, command, payload, message):
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps(payload))
    res = invoke(["--out", tmp_path / "o", command, rows])
    assert res.exit_code == 2, res.output
    assert message in res.output


RATES = {"a_plus": 0.05, "a_minus": 0.02, "l_plus": 0.0, "l_minus": 0.01}

# case -> (metadata.json "files", config "noise", command, what the error message must name)
MALFORMED_INPUTS = {
    "metadata-files-list": (["shots.csv"], "none", "analyze", '"files"'),
    "metadata-file-name-number": ({"0.000000": 5}, "none", "analyze", '"files"'),
    "blur-unknown-key": ({}, {**RATES, "blur": {"minus": {"sigma0": 0.1, "c1": 0.01, "gain": 2.0}}}, "simulate",
                         "unexpected keyword argument 'gain'"),
    "rate-string": ({}, {**RATES, "a_plus": "x"}, "simulate", "a_plus must be a number"),
    "rate-bool": ({}, {**RATES, "a_plus": True}, "simulate", "a_plus must be a number"),
    "blur-string": ({}, {**RATES, "blur": {"minus": {"sigma0": "x", "c1": 0.01}}}, "simulate",
                    "sigma0 must be a number"),
    "blur-negative": ({}, {**RATES, "blur": {"minus": {"sigma0": -0.1, "c1": 0.01}}}, "simulate",
                      "sigma0 must be non-negative"),
    "blur-bool": ({}, {**RATES, "blur": {"plus": {"sigma0": 0.1, "c1": True}}}, "simulate", "c1 must be a number"),
    "rate-nan": ({}, {**RATES, "a_plus": math.nan}, "simulate", "a_plus must be a number"),
    "blur-infinity": ({}, {**RATES, "blur": {"plus": {"sigma0": 0.1, "c1": math.inf}}}, "simulate",
                      "c1 must be a number"),
    # sqrt(skew) - 1 is the calibration coins' probability: outside skew in [1, 4] it leaves [0, 1]
    **{f"skew-{skew}-{command.split()[0]}": ({}, {**RATES, "skew": skew}, command, "skew must lie in [1, 4]")
       for skew in (0.9, 4.5) for command in ("simulate", "fisher --exact model")},
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_config_or_metadata_exits_2(tmp_path, case):
    files, noise, command, message = MALFORMED_INPUTS[case]
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    (dataset / "metadata.json").write_text(json.dumps({"files": files}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"noise": noise, "n_max": 4, "shots_per_angle": 10}))
    args = [command, dataset] if command == "analyze" else command.split()
    res = invoke(["--config", config, "--out", tmp_path / "o", *args])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not (tmp_path / "o").exists()  # rejected before the output directory is made


@pytest.mark.parametrize("key, value", [
    ("shots_per_angle", 2.5), ("n_max", 20.5), ("resample_samples", 100.5), ("n_values", [2, 4.5]),
    ("shots_per_angle", True), ("n_max", True), ("resample_samples", False), ("n_values", [2, True]),
])
def test_fractional_count_in_config_exits_2(tmp_path, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    res = invoke(["--config", config, "--out", tmp_path / "o", "simulate"])
    assert res.exit_code == 2, res.output
    assert f"{key} must hold integers" in res.output
    with pytest.raises(ValueError, match=key):
        RunConfig(**{key: value})


@pytest.mark.parametrize("key, value", [
    ("xi", True), ("xi_jitter", False), ("angles", [0.0, True]), ("confidence_level", True),
    ("xi_jitter", math.nan), ("xi", math.inf), pytest.param("xi", 10**400, id="xi-beyond-float"), ("confidence_level", math.nan),
])
def test_boolean_number_in_config_exits_2(tmp_path, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    res = invoke(["--config", config, "--out", tmp_path / "o", "simulate"])
    assert res.exit_code == 2, res.output
    assert f"{key} must hold numbers" in res.output
    assert not (tmp_path / "o" / "metadata.json").exists()


@pytest.mark.parametrize("key", ["quartic", "exclude_beyond_node"])
@pytest.mark.parametrize("text", ['{"KEY": "false"}', '{"KEY": 1}', '{"KEY": null}'])
def test_switch_that_is_not_a_boolean_exits_2(tmp_path, key, text):
    # a truthy string or number used to switch the fit on and be recorded in fisher.json as given
    config = tmp_path / "config.json"
    config.write_text(text.replace("KEY", key))
    res = invoke(["--config", config, "--out", tmp_path / "o", "fisher", "--exact", "ideal"])
    assert res.exit_code == 2, res.output
    assert f"{key} must be true or false" in res.output
    assert not (tmp_path / "o").exists()


def test_empty_angle_list_exits_2(tmp_path):
    # simulate wrote no shot table and exited 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"angles": []}))
    res = invoke(["--config", config, "--out", tmp_path / "o", "simulate"])
    assert res.exit_code == 2, res.output
    assert "angles must list at least one angle" in res.output
    assert not (tmp_path / "o").exists()


def test_exact_model_above_n_max_exits_2_and_names_both(tmp_path):
    # fixed_n renormalized the on-grid part of each anti-diagonal: F_12, F_14, F_16 read 84.574, 112.537, 170.112
    # where the exact ideal run gives 84.572, 112.311, 144.476
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_max": 10, "noise": "none", "n_values": list(range(2, 17, 2))}))
    res = invoke(["--config", config, "--out", tmp_path / "model", "fisher", "--exact", "model"])
    assert res.exit_code == 2, res.output
    assert "N=12 outside 0..n_max=10" in res.output
    assert not (tmp_path / "model").exists()
    res = invoke(["--config", config, "--out", tmp_path / "ideal", "fisher", "--exact", "ideal"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("angles, pair", [
    ([0.0, 0.1, 0.1000001, 0.2, HOM], "0.1 and 0.1000001"),
    ([0.0, 0.2, HOM, 0.2], "0.2 and 0.2"),  # an exact duplicate too
])
def test_angles_sharing_a_shot_table_name_exit_2(tmp_path, angles, pair):
    # shots_theta{angle:.6f}.csv would hold only the last of them, and analyze could not tell them apart
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"angles": angles}))
    res = invoke(["--config", config, "--out", tmp_path / "o", "simulate"])
    assert res.exit_code == 2, res.output
    assert f"angles {pair} share" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", [-1, 2**32, 2**64])
@pytest.mark.parametrize("command", ["simulate", "analyze", "fisher --dataset"])
def test_seed_outside_the_philox_key_range_exits_2(tmp_path, simulated, command, seed):
    # the master seed is one 32-bit word, the first word of every stream key; 2**32 would split into (0, 1)
    args = command.split() + ([] if command == "simulate" else [simulated])
    res = invoke(["--seed", seed, "--out", tmp_path / "o", *args])
    assert res.exit_code == 2, res.output
    assert "--seed" in res.output
    assert not (tmp_path / "o").exists()


def test_largest_seed_runs_analyze(tmp_path, noise_off_config, simulated):
    res = invoke(["--config", noise_off_config, "--seed", 2**32 - 1, "--out", tmp_path / "o",
                          "analyze", simulated])
    assert res.exit_code == 0, res.output
    assert json.loads((tmp_path / "o" / "report.json").read_text())["seed"] == 2**32 - 1


# ---------------------------------------------------------------- exit codes


@pytest.mark.parametrize("args", [[], ["bogus"], ["fisher", "--ex", "ideal"]],
                         ids=["no-command", "unknown-command", "abbreviated-option"])
def test_usage_error_exits_2(tmp_path, args):
    # argparse would expand --ex to --exact unless abbreviations are off
    res = invoke(["--out", tmp_path / "o", *args])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("usage: homsim ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, name", [
    (["--config", None, "simulate"], "--config"), (["calibrate", None], "SIGNALS_CSV"),
    (["analyze", None], "DATASET_DIR"), (["fisher", "--dataset", None], "--dataset"),
    (["depth", None], "ROWS_JSON"), (["witness", None], "ROWS_JSON"),
], ids=["config", "calibrate", "analyze", "fisher", "depth", "witness"])
def test_missing_path_exits_2_and_names_its_argument(tmp_path, args, name):
    missing = tmp_path / "missing"
    res = invoke(["--out", tmp_path / "o", *(missing if a is None else a for a in args)])
    assert res.exit_code == 2, res.output
    assert f"argument {name}: '{missing}' is not an existing" in res.output
    assert not (tmp_path / "o").exists()


def test_main_maps_exceptions_to_exit_codes(tmp_path, monkeypatch):
    def trip(exc):
        def boom(run):
            raise exc

        monkeypatch.setitem(cli.COMMANDS, "simulate", (boom, {}))
        return invoke(["--out", tmp_path / "o", "simulate"]).exit_code

    assert trip(ValueError("bad input")) == 2
    assert trip(detector.CalibrationError("no peaks")) == 2
    assert trip(stats.FitError("no convergence")) == 3
    assert trip(channel.ConvergenceError("budget exhausted")) == 3
