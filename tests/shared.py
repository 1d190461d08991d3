"""Runs, fixtures and tables that several test modules share.

It imports neither scipy nor hypothesis, so a module that needs only these
(``test_imports.py``) collects without them.  A module uses a fixture by
importing it by name.
"""

import contextlib
import importlib.util
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from homsim import cli, detector, metrology

HOM = math.pi / 2.0

NOISE_OFF = {
    "noise": "none",
    "angles": [0.0, HOM],
    "shots_per_angle": 5000,
    "n_values": [2, 4, 6],
    "n_max": 10,
    "resample_samples": 200,
}


def load_script(name: str):
    """Load ``scripts/<name>.py`` as a module without running its main()."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# central values of the measured collective-moment table, kept once in the
# script that reproduces the depth tables
TABLE_ROWS = load_script("reproduce_depth_tables").ROWS

# the detector round trip: its angles and round_trip(seed), the draw and calibration criterion 7 checks
ROUND_TRIP = load_script("detector_roundtrip")


def invoke(args):
    """Run ``cli.main`` on ``args``: its exit code, and its stdout and stderr together as ``output``."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    return SimpleNamespace(exit_code=code, output=output.getvalue())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def noise_off_config(workdir):
    path = workdir / "noise_off.json"
    path.write_text(json.dumps(NOISE_OFF))
    return path


@pytest.fixture(scope="module")
def simulated(workdir, noise_off_config):
    """One noise-free simulate run shared by the dataset-consuming tests."""
    out = workdir / "sim"
    res = invoke(["--config", noise_off_config, "--seed", 3, "--out", out, "simulate"])
    assert res.exit_code == 0, res.output
    return out


def signals_to_csv(table, path) -> None:
    """Write a ``detector.SignalTable`` as the signal CSV that ``calibrate`` reads, six decimals per signal."""
    metrology.write_csv(path, ["shot_index", "s_minus", "s_zero", "s_plus"],
                        ((int(i), f"{m:.6f}", f"{z:.6f}", f"{p:.6f}")
                         for i, m, z, p in zip(table.shot_index, table.s_minus, table.s_zero, table.s_plus)))


def camera_run(seed: int, path) -> detector.SignalTable:
    """The raw camera signals of one 26,712-shot run, as the benchmark synthesizes them.

    The shots are those of ``simulate --seed SEED`` over the round trip's
    seven angles (``cli.shot_tables``).  The signals follow the detector
    module's forward model at the default calibrations, drift and crosstalk,
    drawn from ``default_rng(seed)``, and are read back from a signal CSV,
    whose six decimals are what ``calibrate`` sees.
    """
    cfg = cli.RunConfig(angles=ROUND_TRIP.ANGLES)
    tables = [table for table, _ in cli.shot_tables(cfg, seed)]
    rng = np.random.default_rng(seed)
    idx = np.arange(len(cfg.angles) * cfg.shots_per_angle)
    s_zero = rng.normal(detector.COMPANION_MEAN, detector.COMPANION_SPREAD, size=len(idx))
    drift = detector.DriftSpec().offsets(idx)
    signals = {}
    for mode, calib in (("minus", detector.DEFAULT_CALIBRATION_MINUS), ("plus", detector.DEFAULT_CALIBRATION_PLUS)):
        n = np.concatenate([getattr(t, f"n_{mode}") for t in tables])
        noise = rng.normal(0.0, calib.sigma(n) * calib.g)
        signals[f"s_{mode}"] = n * calib.g + calib.b + drift + detector.DEFAULT_CROSSTALK[mode] * s_zero + noise
    signals_to_csv(detector.SignalTable(shot_index=idx, s_zero=s_zero, **signals), path)
    return detector.SignalTable.from_csv(path)
