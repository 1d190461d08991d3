"""Import hygiene: the CLI starts without numerics, and no command or library fit loads scipy (only the tests' DE oracle does).

Each probe is one fresh interpreter, and every forbidden set is checked against the modules that start imported.
The probes start side by side, as many at a time as this process may use cores.
"""

import ast
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from homsim import cli
from shared import NOISE_OFF, TABLE_ROWS, camera_run, invoke, noise_off_config, simulated, workdir  # noqa: F401

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


COMMANDS = sorted(cli.COMMANDS)

# the standard-library modules that the CLI's start leaves to the commands that use them
DEFERRED = {"dataclasses", "hashlib", "json"}


@pytest.fixture(scope="module")
def probe_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("probes")


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """A simulate run with the default config (reference noise, all probe angles), made in-process."""
    out = tmp_path_factory.mktemp("default") / "sim"
    res = invoke(["--seed", 5, "--out", out, "simulate"])
    assert res.exit_code == 0, res.output
    return out


NOISE_FIT = ("from homsim import channel, fock, metrology; "
             "src = fock.tmsv_distribution(fock.SqueezedSource(xi=0.9), n_max=10); "
             "ref = channel.REFERENCE_PARAMS; "
             "tab = metrology.ShotTable.sample(channel.predict(src, 1.5, ref), 2000, seed=1); "
             "assert channel.fit(ref, {1.5: tab}, src).converged")

STARTS = {"import-homsim": ("-c", "import homsim"), "import-cli": ("-c", "import homsim.cli"),
          "help": ("-m", "homsim.cli", "--help"), **{f"{c}-help": ("-m", "homsim.cli", c, "--help") for c in COMMANDS}}


@pytest.fixture(scope="module")
def probes(probe_dir, simulated, default_run):
    """Every probe of this module, started side by side: probe name -> the future of its ``imported_by``.

    A test reads its own probe's result, so a start that fails fails the test that reads it.
    """
    rows = probe_dir / "rows.json"
    rows.write_text(json.dumps({"rows": TABLE_ROWS}))
    camera_run(1, probe_dir / "signals.csv")
    small = probe_dir / "small.json"
    small.write_text(json.dumps({"resample_samples": 20}))
    analyze_config = probe_dir / "analyze.json"
    analyze_config.write_text(json.dumps({**NOISE_OFF, "resample_samples": 20}))

    def command(out: str, *argv):  # a CLI start that writes into its own output directory
        return ("-m", "homsim.cli", "--out", probe_dir / out, *argv)

    argvs = {
        **STARTS,
        **{c: command(c, c, rows) for c in ("depth", "witness")},
        "calibrate": command("calibrate", "calibrate", probe_dir / "signals.csv"),
        "analyze": command("analyze", "--config", analyze_config, "analyze", simulated),
        **{c: command(c, "--config", small, *c.split(), *([default_run] if c.endswith("--dataset") else []))
           for c in ("simulate", "fisher --exact ideal", "fisher --exact model", "fisher --dataset")},
        "noise-fit": ("-c", NOISE_FIT),
    }
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        return {name: pool.submit(imported_by, *argv) for name, argv in argvs.items()}


def loaded_by(probes, name: str) -> set:
    """The modules probe ``name`` imported; no probe may load click."""
    loaded = probes[name].result()
    assert "click" not in loaded
    return loaded


@pytest.mark.parametrize("start", STARTS)
def test_start_loads_no_numerics(probes, start):
    loaded = loaded_by(probes, start)
    assert "homsim" in loaded
    assert sorted(m for m in loaded if m in NUMERICS or m.split(".")[0] in ("numpy", "scipy")) == []
    assert sorted(loaded & DEFERRED) == []


@pytest.mark.parametrize("command", ["depth", "witness"])
def test_depth_and_witness_load_no_detector(probes, probe_dir, command):
    loaded = loaded_by(probes, command)
    assert "homsim.entanglement" in loaded
    assert sorted(loaded & {"homsim.detector", "homsim.channel"}) == []
    assert scipy_in(loaded) == []
    assert (probe_dir / command / f"{command}.json").exists()


def test_calibrate_loads_no_numpy_ma(probes, probe_dir):
    # np.percentile and np.median import numpy.ma for their NaN check
    loaded = loaded_by(probes, "calibrate")
    assert "numpy.ma" not in loaded
    assert scipy_in(loaded) == []
    assert (probe_dir / "calibrate" / "calibration.json").exists()


def test_analyze_loads_no_scipy(probes, probe_dir):
    assert scipy_in(loaded_by(probes, "analyze")) == []
    assert (probe_dir / "analyze" / "depth.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "fisher --exact ideal", "fisher --exact model", "fisher --dataset"])
def test_simulate_and_fisher_load_no_scipy(probes, probe_dir, command):
    assert scipy_in(loaded_by(probes, command)) == []
    written = "metadata.json" if command == "simulate" else "fisher.json"
    assert (probe_dir / command / written).exists()


def test_noise_fit_loads_no_scipy(probes):
    assert scipy_in(loaded_by(probes, "noise-fit")) == []


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
