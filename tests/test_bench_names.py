"""The homsim names that the benchmark's tracer binds (bench/child.py) still exist and see the production code."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from homsim import channel, cli, fock, metrology, stats

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_traced_layer_resolves():
    # resolved as Tracer.install does: a method from its class's own namespace, else a module attribute
    missing = []
    for _, mod, attr, _, _ in load_child().LAYERS:
        owner = importlib.import_module(f"homsim.{mod}")
        if "." in attr:
            cls_name, name = attr.split(".")
            found = name in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{mod}.{attr}")
    assert missing == []


def test_noise_fit_error_type_exists():
    # the benchmark's noise-fit child maps this exception to exit code 3
    assert issubclass(channel.ConvergenceError, stats.FitError)


def test_noise_fit_child_writes_a_converged_fit(tmp_path):
    # the call shape the benchmark pins: fit(params, {theta: table}, source), read per_theta/objectives/converged
    cfg = cli.RunConfig()
    source = fock.tmsv_distribution(cfg.source(), n_max=cfg.n_max)
    pred = channel.predict(source, cli.HOM_ANGLE, channel.REFERENCE_PARAMS)
    metrology.ShotTable.sample(pred, 3816, seed=5).to_csv(tmp_path / "shots.csv")
    assert load_child().noise_fit(str(tmp_path / "shots.csv"), str(tmp_path / "fit.json")) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert sorted(fit["rates"]) == ["a_minus", "a_plus", "l_minus", "l_plus"]
    assert all(math.isfinite(v) for v in [*fit["rates"].values(), fit["objective"]])
    assert fit["converged"] is True


def test_tracer_sees_every_noise_pass_of_the_fit(tmp_path):
    # in its own process, because the tracer rebinds the module attributes of homsim
    cfg = cli.RunConfig()
    source = fock.tmsv_distribution(cfg.source(), n_max=cfg.n_max)
    table = metrology.ShotTable.sample(channel.predict(source, cli.HOM_ANGLE, channel.REFERENCE_PARAMS), 3816, seed=5)
    table.to_csv(tmp_path / "shots.csv")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(CHILD), "--spans", str(tmp_path / "spans.json"), "noise-fit",
                    str(tmp_path / "shots.csv"), str(tmp_path / "fit.json")], env=env, check=True, timeout=120)
    spans = json.loads((tmp_path / "spans.json").read_text())
    written = json.loads((tmp_path / "fit.json").read_text())
    # the same fit in this process gives the evaluation count that the written JSON leaves out
    theta = cli.HOM_ANGLE
    res = channel.fit(cfg.noise_params(), {theta: metrology.ShotTable.from_csv(tmp_path / "shots.csv", theta=theta)},
                      source)
    assert written["objective"] == res.objectives[theta]
    assert spans["counts"]["channel.noise_passes"] == res.nfev[theta] > 0
    assert spans["self_s"]["channel.noise"] > 0
