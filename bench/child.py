"""One cold homsim process: a CLI command or the channel noise fit.

    python3 bench/child.py [--spans OUT.json] noise-fit SHOTS.csv FIT.json
    python3 bench/child.py [--spans OUT.json] CLI-ARGS...

With ``--spans`` the public functions of each homsim module are wrapped
after import, and the self time (span minus the spans of its children) and
the work counts of every layer are written to OUT.json when the command
ends.  The import itself is recorded as ``cli.import``.  homsim's source is
not touched: references bound by ``from .x import f`` are rebound too.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _draws(args, kwargs, out):
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    return plan.n_samples


class Distinct:
    """Counts the distinct values of key(args, kwargs) instead of adding up calls."""

    def __init__(self, key):
        self.key = key


# (layer, module, attribute, counter, count of one call from (args, kwargs, result))
# A row with layer None only counts; it wraps the timed wrapper of an earlier row.
LAYERS = [
    ("fock.twin_fock_output", "fock", "twin_fock_output", None, None),
    ("fock.collective_moments", "fock", "collective_moments", None, None),
    ("channel.rotation", "channel", "apply_rotation", "channel.rotation_calls", None),
    ("channel.noise", "channel", "convolve_poisson_influx", None, None),
    ("channel.noise", "channel", "convolve_binomial_loss", None, None),
    ("channel.noise", "channel", "apply_calibration_skew", None, None),
    ("channel.noise", "channel", "apply_detection_blur", "channel.noise_passes", None),
    ("channel.fit", "channel", "fit", None, None),
    ("metrology.sample", "metrology", "ShotTable.sample", None, None),
    ("metrology.csv_write", "metrology", "ShotTable.to_csv", None, None),
    ("metrology.csv_read", "metrology", "ShotTable.from_csv", None, None),
    ("metrology.empirical", "metrology", "empirical_distribution", None, None),
    ("metrology.hellinger", "metrology", "hellinger_sq", None, None),
    ("metrology.hellinger", "metrology", "resampled_hellinger", None, None),
    ("metrology.hellinger", "metrology", "_hell2", None, None),  # the exact pipeline's d^2
    ("metrology.fit_fisher", "metrology", "fit_fisher", "metrology.fit_fisher_calls", None),
    ("metrology.fit_scaling", "metrology", "fit_scaling", None, None),
    ("stats.resample", "stats", "multinomial_resample", "stats.resample_draws", _draws),
    ("stats.wls", "stats", "weighted_least_squares", "stats.wls_calls", None),
    (None, "stats", "differential_evolution", "stats.de_nfev", lambda a, k, out: out.nfev),
    ("entanglement.boundary", "entanglement", "sm_boundary", "entanglement.boundary_calls", None),
    (None, "entanglement", "sm_boundary", "entanglement.boundary_spins",
     Distinct(lambda a, k: float(a[0] if a else k["j"]))),
    ("entanglement.depth_point", "entanglement", "depth_parity", None, None),
    ("entanglement.depth_point", "entanglement", "depth_variance", None, None),
    ("entanglement.depth_resampled", "entanglement", "depth_with_resampling", None, None),
    ("entanglement.witness", "entanglement", "witness_indefinite_n", None, None),
    ("entanglement.witness", "entanglement", "parity_witness_xyz", None, None),
    ("detector.read", "detector", "SignalTable.from_csv", None, None),
    ("detector.crosstalk", "detector", "correct_crosstalk", None, None),
    ("detector.drift", "detector", "correct_drift", None, None),
    ("detector.histogram_fit", "detector", "fit_histogram", None, None),
]


class Tracer:
    """Per-layer self times and counts, kept in memory until the command ends."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self._stack = [0.0]  # time covered by child spans of each open span

    def wrap(self, layer, fn, counter=None, count=None):
        stack, self_s, counts, distinct = self._stack, self.self_s, self.counts, self.distinct

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer is None:
                out = fn(*args, **kwargs)
            else:
                stack.append(0.0)
                start = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span = time.perf_counter() - start
                    self_s[layer] += span - stack.pop()
                    stack[-1] += span
            if isinstance(count, Distinct):
                distinct[counter].add(count.key(args, kwargs))
            elif counter is not None:
                counts[counter] += 1 if count is None else count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        import homsim
        from homsim import channel, cli, detector, entanglement, fock, metrology, stats

        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in
                   (channel, cli, detector, entanglement, fock, metrology, stats)}
        for layer, mod, attr, counter, count in LAYERS:
            owner = modules[mod]
            if "." in attr:  # a method: rebind it on its class
                cls_name, name = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    setattr(cls, name, classmethod(self.wrap(layer, raw.__func__, counter, count)))
                else:
                    setattr(cls, name, self.wrap(layer, raw, counter, count))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(layer, orig, counter, count)
            for m in (homsim, *modules.values()):
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"self_s": dict(self.self_s), "counts": dict(self.counts),
                       "distinct": {k: sorted(v) for k, v in self.distinct.items()}}, fh)


def noise_fit(shots_csv: str, out_json: str) -> int:
    """Fit the four noise rates to the pi/2 shot table, default config."""
    from homsim import channel, cli, fock, metrology

    cfg = cli.RunConfig()
    theta = cli.HOM_ANGLE
    table = metrology.ShotTable.from_csv(shots_csv, theta=theta)
    source = fock.tmsv_distribution(cfg.source(), n_max=cfg.n_max)
    try:
        res = channel.fit(cfg.noise_params(), {theta: table}, source)
    except channel.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    best = res.per_theta[theta]
    with open(out_json, "w") as fh:
        json.dump({"rates": {k: getattr(best, k) for k in ("a_plus", "a_minus", "l_plus", "l_minus")},
                   "objective": res.objectives[theta], "converged": res.converged}, fh)
    return 0


def run_cli(args: list[str]) -> int:
    from homsim import cli

    try:
        cli.main(args, prog_name="homsim")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    return 0


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    start = time.perf_counter()
    import homsim.cli  # noqa: F401  (the cold import every command pays)

    import_s = time.perf_counter() - start
    tracer = None
    if spans is not None:
        tracer = Tracer()
        tracer.install()
        tracer.self_s["cli.import"] += import_s
    code = noise_fit(*argv[1:]) if argv[:1] == ["noise-fit"] else run_cli(argv)
    if tracer is not None:
        tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
