"""Import hygiene: the CLI starts without numerics, and no command or library fit loads scipy (only the tests' DE oracle does).

Each probe is one fresh interpreter, and every forbidden set is checked against the modules that start imported.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homsim import cli
from test_acceptance import TABLE_ROWS
from test_cli import NOISE_OFF, noise_off_config, runner, simulated, workdir  # noqa: F401 (fixtures)
from test_detector import camera_run

SRC = Path(__file__).resolve().parents[1] / "src"

NUMERICS = {f"homsim.{m}" for m in ("channel", "detector", "entanglement", "fock", "metrology", "stats")}


def imported_by(*argv) -> set:
    """Names of the modules a fresh ``python -X importtime ARGV...`` imports, with homsim from this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    res = subprocess.run([sys.executable, "-X", "importtime", *map(str, argv)],
                         capture_output=True, text=True, check=True, env=env)
    return {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines() if line.startswith("import time:")}


def scipy_in(loaded: set) -> list:
    return sorted(m for m in loaded if m.split(".")[0] == "scipy")


COMMANDS = sorted(cli.main.commands)


@pytest.mark.parametrize("argv", [("-c", "import homsim"), ("-c", "import homsim.cli"), ("-m", "homsim.cli", "--help"),
                                  *(("-m", "homsim.cli", c, "--help") for c in COMMANDS)],
                         ids=["import-homsim", "import-cli", "help", *(f"{c}-help" for c in COMMANDS)])
def test_start_loads_no_numerics(argv):
    loaded = imported_by(*argv)
    assert "homsim" in loaded
    assert sorted(m for m in loaded if m in NUMERICS or m.split(".")[0] in ("numpy", "scipy")) == []


@pytest.mark.parametrize("command", ["depth", "witness"])
def test_depth_and_witness_load_no_detector(tmp_path, command):
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps({"rows": TABLE_ROWS}))
    loaded = imported_by("-m", "homsim.cli", "--out", tmp_path / "out", command, rows)
    assert "homsim.entanglement" in loaded
    assert sorted(loaded & {"homsim.detector", "homsim.channel"}) == []
    assert scipy_in(loaded) == []
    assert (tmp_path / "out" / f"{command}.json").exists()


def test_calibrate_loads_no_numpy_ma(tmp_path):
    # np.percentile and np.median import numpy.ma for their NaN check
    camera_run(1, tmp_path / "signals.csv")
    loaded = imported_by("-m", "homsim.cli", "--out", tmp_path / "cal", "calibrate", tmp_path / "signals.csv")
    assert "numpy.ma" not in loaded
    assert scipy_in(loaded) == []
    assert (tmp_path / "cal" / "calibration.json").exists()


def test_analyze_loads_no_scipy(tmp_path, simulated):
    config = tmp_path / "small.json"
    config.write_text(json.dumps({**NOISE_OFF, "resample_samples": 20}))
    loaded = imported_by("-m", "homsim.cli", "--config", config, "--out", tmp_path / "ana", "analyze", simulated)
    assert scipy_in(loaded) == []
    assert (tmp_path / "ana" / "depth.csv").exists()


@pytest.fixture(scope="module")
def default_run(runner, tmp_path_factory):
    """A simulate run with the default config (reference noise, all probe angles), made in-process."""
    out = tmp_path_factory.mktemp("default") / "sim"
    res = runner.invoke(cli.main, ["--seed", "5", "--out", str(out), "simulate"])
    assert res.exit_code == 0, res.output
    return out


@pytest.mark.parametrize("command", ["simulate", "fisher --exact ideal", "fisher --exact model", "fisher --dataset"])
def test_simulate_and_fisher_load_no_scipy(tmp_path, default_run, command):
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"resample_samples": 20}))
    args = command.split() + ([default_run] if command.endswith("--dataset") else [])
    assert scipy_in(imported_by("-m", "homsim.cli", "--config", config, "--out", tmp_path / "out", *args)) == []
    written = "metadata.json" if command == "simulate" else "fisher.json"
    assert (tmp_path / "out" / written).exists()


def test_noise_fit_loads_no_scipy():
    run = ("from homsim import channel, fock, metrology; "
           "src = fock.tmsv_distribution(fock.SqueezedSource(xi=0.9), n_max=10); "
           "ref = channel.REFERENCE_PARAMS; "
           "tab = metrology.ShotTable.sample(channel.predict(src, 1.5, ref), 2000, seed=1); "
           "assert channel.fit(ref, {1.5: tab}, src).converged")
    assert scipy_in(imported_by("-c", run)) == []


def scipy_importers() -> set:
    """'module.name' of each top-level function or class of src/homsim that imports scipy ('<module>' at top level)."""
    found = set()
    for path in sorted((SRC / "homsim").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                    found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_only_the_de_oracle_imports_scipy():
    # stats.differential_evolution is a test oracle; the benchmark's tracer binds it
    assert scipy_importers() - {"stats.differential_evolution"} == set()
