"""The homsim names that the benchmark's tracer binds (bench/child.py) still exist."""

import importlib
import importlib.util
from pathlib import Path

from homsim import stats

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
    from homsim import channel

    assert issubclass(channel.ConvergenceError, stats.FitError)
