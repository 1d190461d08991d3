"""Command-line pipeline: simulate, calibrate, analyze, fisher, depth, witness.

Commands are batch-style: read a config plus input files, write CSV tables
and JSON reports into the output directory.  Every JSON artifact embeds the
config hash and seed that produced it.  ``COMMANDS`` names each command's
function and arguments, and ``main`` builds the argparse front end from it.
``main`` parses argv before it reads the config, so ``--help`` needs no valid
config; it then calls the command with one ``Run`` and is the one place that
maps failures to exit codes: 0 success, 2 invalid input, config or usage,
3 fit or optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # --help loads no numerics: each function imports what it runs
    from . import channel, fock, metrology

# pair amplitude giving 7.5 atoms on average across both side modes
DEFAULT_XI = math.asinh(math.sqrt(7.5 / 2.0))

HOM_ANGLE = math.pi / 2.0


def _default_angles() -> list:
    from .metrology import SMALL_ROTATION_ANGLES
    return list(SMALL_ROTATION_ANGLES) + [HOM_ANGLE]


# each config field and its default; a callable default makes a fresh list per config
FIELDS = {"xi": DEFAULT_XI, "xi_jitter": 0.0, "n_max": 20, "angles": _default_angles, "shots_per_angle": 3816,
          "n_values": lambda: [2, 4, 6, 8, 10, 12], "noise": "reference", "resample_samples": 1000,
          "confidence_level": 0.68, "quartic": True, "exclude_beyond_node": True}


def _unique_keys(pairs: list) -> dict:
    """``json.loads``' object_pairs_hook for a config: the object's pairs as a dict, and no key given twice."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"config key {key} given twice")
        data[key] = value
    return data


class RunConfig:
    """Run-level knobs shared by the pipeline commands, one attribute per ``FIELDS`` entry."""

    def __init__(self, **given):
        from . import stats
        from .metrology import is_number
        unknown = set(given) - set(FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for name, default in FIELDS.items():
            setattr(self, name, given[name] if name in given else default() if callable(default) else default)
        for name, kind in (("shots_per_angle", int), ("n_max", int), ("resample_samples", int), ("n_values", int),
                           ("xi", float), ("xi_jitter", float), ("angles", float), ("confidence_level", float)):
            v = getattr(self, name)
            values = v if name in ("n_values", "angles") else [v]
            if not isinstance(values, list):
                raise ValueError(f"{name} must be a list of {'integers' if kind is int else 'numbers'}, not {v!r}")
            if not all(is_number(k) and isinstance(k, (int, kind)) for k in values):
                raise ValueError(f"{name} must hold {'integers' if kind is int else 'numbers'}, not {v!r}")
        for name in ("quartic", "exclude_beyond_node"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, not {getattr(self, name)!r}")
        if self.shots_per_angle < 1:
            raise ValueError("shots_per_angle must be positive")
        if not self.angles:
            raise ValueError("angles must list at least one angle")
        if any(not 0 <= a <= math.pi for a in self.angles):
            raise ValueError("angles must lie in [0, pi]")
        keys = [stats.angle_key(a) for a in self.angles]  # each names one shot table
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ValueError(f"angles {self.angles[keys.index(key)]!r} and {self.angles[i]!r} share the key {key:.6f}")
        if self.n_max < 1:
            raise ValueError("n_max must be positive")
        if not self.n_values or any(n < 2 or n % 2 for n in self.n_values):
            raise ValueError(f"n_values must list even atom numbers of at least 2, not {self.n_values!r}")
        repeated = sorted({n for n in self.n_values if self.n_values.count(n) > 1})
        if repeated:
            raise ValueError(f"n_values repeats {repeated}")
        if isinstance(self.noise, dict):
            self.noise_params()  # only a noise object loads the channel
        elif self.noise not in ("none", "reference"):
            raise ValueError(f"noise must be none, reference or an object, not {self.noise!r}")
        self.source()  # the owners check the ranges of xi, xi_jitter, resample_samples and confidence_level
        stats.ResamplePlan(self.resample_samples, seed=0)
        stats.check_level(self.confidence_level)

    def noise_params(self) -> channel.NoiseModelParams | None:
        from . import channel
        if self.noise == "none":
            return None
        return channel.REFERENCE_PARAMS if self.noise == "reference" else channel.NoiseModelParams.from_json(self.noise)

    def source(self) -> fock.SqueezedSource:
        from . import fock
        return fock.SqueezedSource(xi=self.xi, xi_jitter=self.xi_jitter)

    def canonical(self) -> dict:
        d = {name: getattr(self, name) for name in FIELDS}
        d["angles"] = [float(a) for a in self.angles]
        return d

    def hash(self) -> str:
        import hashlib
        import json
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """The config in ``path``: one JSON object, no key given twice at any depth."""
        import json
        try:
            data = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"config {path} is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"config {path} is not one JSON object")
        return cls(**data)


class Run:
    """One command's run: the loaded config, the master seed and the output directory."""

    def __init__(self, cfg: RunConfig, seed: int, out: Path):
        self.cfg, self.seed, self.out = cfg, seed, out

    def dump_json(self, name: str, payload: dict) -> None:
        """Write payload to the output directory as ``name``, stamped with the config hash and seed."""
        import json
        path = self.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"config_hash": self.cfg.hash(), "seed": self.seed, **payload}, fh, indent=2)
            fh.write("\n")


def _predicted(cfg: RunConfig, theta: float) -> fock.TwoModeDistribution:
    from . import channel, fock
    src = fock.tmsv_distribution(cfg.source(), n_max=cfg.n_max)
    params = cfg.noise_params()
    if params is None:
        return channel.apply_rotation(src, theta)
    return channel.predict(src, theta, params)


def shot_tables(cfg: RunConfig, seed: int):
    """Yield each configured angle's shot table, drawn with the key ``stats.stream_key(seed, i)``, and its tail mass."""
    from . import metrology, stats
    for i, theta in enumerate(cfg.angles):
        dist = _predicted(cfg, theta)
        yield metrology.ShotTable.sample(dist, cfg.shots_per_angle, stats.stream_key(seed, i), theta), dist.tail_mass


def simulate(run: Run):
    """Sample per-angle shot tables from the modelled channel."""
    params = run.cfg.noise_params()
    files, tails = {}, {}
    for table, tail in shot_tables(run.cfg, run.seed):
        key = f"{table.theta:.6f}"
        files[key], tails[key] = f"shots_theta{key}.csv", tail
        table.to_csv(run.out / files[key])
    run.dump_json("metadata.json", {
        "command": "simulate",
        "shots_per_angle": run.cfg.shots_per_angle,
        "xi": run.cfg.xi,
        "xi_jitter": run.cfg.xi_jitter,
        "n_max": run.cfg.n_max,
        "noise": None if params is None else params.to_json(),
        "files": files,
        "tail_mass": tails,
    })
    print(f"wrote {len(files)} shot tables to {run.out}")


def calibrate(run: Run, signals_csv):
    """Run the signal-correction chain on each side mode and fit its detector calibration."""
    from . import detector, metrology
    chains = detector.calibrate(detector.SignalTable.from_csv(signals_csv))  # both modes, or a failure and no file
    for mode, (signal, _, drift, calib) in chains.items():
        centers, counts, model = detector.histogram_table(signal, calib)
        metrology.write_csv(run.out / f"histogram_{mode}.csv", ["signal", "count", "model"],
                            [(f"{c:.3f}", int(k), f"{m:.4f}") for c, k, m in zip(centers, counts, model)])
        metrology.write_csv(run.out / f"drift_{mode}.csv", ["window_start", "center", "correction", "center_stderr"],
                            [(int(s), f"{c:.3f}", f"{k:.3f}", f"{e:.3f}") for s, c, k, e
                             in zip(drift.starts, drift.centers, drift.corrections, drift.center_stderr)])
    run.dump_json("calibration.json", {"command": "calibrate", "crosstalk": {m: c[1] for m, c in chains.items()},
                                       "modes": {m: c[3].to_json() for m, c in chains.items()}})
    print(f"calibration written to {run.out / 'calibration.json'}")


def _load_dataset(run: Run, dataset_dir) -> dict[float, metrology.ShotTable]:
    """A simulate output's shot tables under their angle keys; each N of ``n_values`` must fit its ``n_max``, if any."""
    import json
    from . import fock, metrology, stats
    meta_path = Path(dataset_dir) / "metadata.json"
    if not meta_path.exists():
        raise ValueError(f"no metadata.json in {meta_path.parent}")
    meta = json.loads(meta_path.read_text())
    files = meta.get("files") if isinstance(meta, dict) else None
    if not (isinstance(files, dict) and all(isinstance(name, str) for name in files.values())):
        raise ValueError(f"{meta_path}: expected an object with a map of angle to file name under \"files\"")
    tables = {}
    for key, name in files.items():
        theta = stats.angle_key(float(key))
        if theta in tables:
            raise ValueError(f"{meta_path}: {key!r} shares the angle key {theta:.6f} with an earlier file")
        tables[theta] = metrology.ShotTable.from_csv(meta_path.parent / name, theta=theta)
    if "n_max" in meta:  # measured data gives no grid
        if not (metrology.is_number(meta["n_max"]) and isinstance(meta["n_max"], int)):
            raise ValueError(f"{meta_path}: n_max must be an integer, not {meta['n_max']!r}")
        for n in run.cfg.n_values:
            fock.check_capacity(n, meta["n_max"])
    return tables


def analyze(run: Run, dataset_dir):
    """Per-N state quality, squeezing, witnesses, and depth from a dataset."""
    import numpy as np
    from . import entanglement, fock, metrology, stats
    tables = _load_dataset(run, dataset_dir)
    zero, hom = (tables.get(stats.angle_key(theta)) for theta in (0.0, HOM_ANGLE))
    plan = stats.ResamplePlan(n_samples=run.cfg.resample_samples, seed=run.seed)

    report = {"command": "analyze", "per_n": {}, "notices": []}
    if hom is None:
        report["notices"].append("no pi/2 dataset: fidelity, parity, squeezing, and depth sections omitted")
    if zero is None:
        report["notices"].append("no theta=0 dataset: variance, z-parity, squeezing, and depth sections omitted")

    collective_rows, weights = [], []
    parity_rows, squeeze_rows, depth_rows = [], [], []
    for n in run.cfg.n_values:
        entry: dict = {}
        p0 = ph = None
        if hom is not None:
            ph = metrology.empirical_distribution(hom, n)
            entry["fidelity_vs_ideal"] = metrology.fidelity(ph, fock.twin_fock_output(n, HOM_ANGLE))
            mh = fock.collective_moments(ph)
            mh_stack = fock.moments(stats.resample_histogram(ph, plan, hom.theta))
            lo, hi = stats.asymmetric_std(mh_stack.parity, center=mh.parity)
            entry["parity_x"] = {"value": mh.parity, "err_minus": lo, "err_plus": hi}
            entry["jxjy2"] = metrology.jxjy2_estimate(mh)
            parity_rows.append((n, f"{mh.parity:.4f}", f"{lo:.4f}", f"{hi:.4f}"))
        if zero is not None:
            p0 = metrology.empirical_distribution(zero, n)
            m0 = fock.collective_moments(p0)
            entry["var_jz"] = m0.var_jz
            entry["parity_z"] = m0.parity
        if p0 is not None and ph is not None:
            data = entanglement.collective_data(n, m0, mh)
            entry["symmetry_J"] = data.symmetry_J
            collective_rows.append(data)
            weights.append(p0.n_shots)
            try:
                sq = metrology.generalized_squeezing(data.var_jz, data.jxjy2, n)
                entry["squeezing"] = {"linear": sq.linear, "db": sq.db}
                squeeze_rows.append((n, f"{sq.linear:.5f}", f"{sq.db:.2f}"))
            except ValueError as exc:
                entry["squeezing"] = {"notice": str(exc)}
            point_p = entanglement.depth_parity(data)
            point_v = entanglement.depth_variance(data)
            m0_stack = fock.moments(stats.resample_histogram(p0, plan, zero.theta))
            conf_p, conf_v = entanglement.depth_with_resampling(
                entanglement.collective_data(n, m0_stack, mh_stack), run.cfg.confidence_level)
            entry["depth"] = {
                "parity_point": point_p.depth, "parity_method": point_p.method,
                "variance_point": point_v.depth,
                "parity_confident": conf_p.depth, "variance_confident": conf_v.depth,
                "level": run.cfg.confidence_level,
                "unevaluated_k": sorted({*point_v.unevaluated_k, *conf_v.unevaluated_k}),  # the parity route's too
            }
            depth_rows.append((n, point_p.depth, conf_p.depth, point_v.depth, conf_v.depth))
        report["per_n"][str(n)] = entry

    if collective_rows:
        wit = entanglement.witness_indefinite_n(collective_rows, weights=weights)
        report["witness_indefinite_n"] = {
            "value": wit.value, "entangled": wit.entangled,
            "per_n": {str(k): v for k, v in wit.per_n.items()},
            "weights": {str(d.n_total): w / sum(weights) for d, w in zip(collective_rows, weights)},
        }
        dbs = {n: report["per_n"][str(n)].get("squeezing", {}).get("db") for n in run.cfg.n_values}
        finite = [n for n, d in dbs.items() if isinstance(d, float) and math.isfinite(d)]
        if finite:
            report["squeezing_db_mean"] = float(np.mean([dbs[n] for n in finite]))
        report["squeezing_db_mean_of_n"] = finite
        report["squeezing_db_mean_omits_n"] = [n for n in run.cfg.n_values if n not in finite]
        metrology.write_csv(run.out / "collective.csv",
                            ["N", "var_jz", "jxjy2", "parity_z", "parity_x", "symmetry_J"],
                            [(d.n_total, f"{d.var_jz:.5f}", f"{d.jxjy2:.4f}", f"{d.parity_z:.4f}",
                              f"{d.parity_x:.4f}", f"{d.symmetry_J:.4f}") for d in collective_rows])
    if parity_rows:
        metrology.write_csv(run.out / "parity.csv", ["N", "parity_x", "err_minus", "err_plus"], parity_rows)
    if squeeze_rows:
        metrology.write_csv(run.out / "squeezing.csv", ["N", "xi2_gen", "xi2_gen_db"], squeeze_rows)
    if depth_rows:
        metrology.write_csv(run.out / "depth.csv",
                            ["N", "parity_point", "parity_confident", "variance_point", "variance_confident"],
                            depth_rows)
    run.dump_json("report.json", report)
    print(f"report written to {run.out / 'report.json'}")


def fisher(run: Run, exact, dataset_dir):
    """Statistical-distance Fisher information and its N-scaling."""
    from . import fock, metrology, stats
    if (exact is None) == (dataset_dir is None):
        raise ValueError("choose exactly one of --exact or --dataset")
    tables = {} if exact else {t: tab for t, tab in _load_dataset(run, dataset_dir).items() if t < 1.0}
    angles = [a for a in run.cfg.angles if a < 1.0] if exact else list(tables)  # the probe angles of the source
    if len(angles) < 3:
        raise ValueError("need at least three small probe angles")
    exclusions = metrology.DEFAULT_EXCLUSIONS if run.cfg.exclude_beyond_node else {}
    if exact is not None:
        if exact == "ideal":
            dists = {n: {t: fock.twin_fock_output(n, t).probs for t in angles} for n in run.cfg.n_values}
        else:
            per_theta = {t: _predicted(run.cfg, t) for t in angles}
            dists = {n: {t: per_theta[t].fixed_n(n).probs for t in angles} for n in run.cfg.n_values}
        est = metrology.fisher_from_distributions(dists, angles=angles, quartic=run.cfg.quartic,
                                                  exclusions=exclusions)
        source = f"exact-{exact}"
    else:
        plan = stats.ResamplePlan(n_samples=min(run.cfg.resample_samples, 500), seed=run.seed)
        est = metrology.fisher_from_shots(tables, run.cfg.n_values, plan=plan,
                                          quartic=run.cfg.quartic, exclusions=exclusions)
        source = f"sampled:{dataset_dir}"
    payload = est.to_json()
    payload["source"] = source
    run.dump_json("fisher.json", payload)
    rows = []
    for n in sorted(est.aggregated):
        fbar, dfbar = est.aggregated[n]
        fit_val = est.scaling.predict(n) if est.scaling else float("nan")
        rows.append((n, f"{fbar:.4f}", f"{dfbar:.4f}", f"{float(fit_val):.4f}"))
    metrology.write_csv(run.out / "fisher_scaling.csv", ["N", "F_mean", "F_err", "F_fit"], rows)
    if est.scaling:
        print(f"scaling: r={est.scaling.r:.4f}+-{est.scaling.r_err:.4f} "
              f"s={est.scaling.s:.4f}+-{est.scaling.s_err:.4f}")
    print(f"fisher results written to {run.out / 'fisher.json'}")


def _load_rows(path: Path):
    """Rows and optional weights of a ``{"rows": [...], "weights": [...]}`` file."""
    import json
    from . import entanglement, metrology
    payload = json.loads(Path(path).read_text())
    if not (isinstance(payload, dict) and isinstance(payload.get("rows"), list)):
        raise ValueError(f"{path}: expected an object with a list under \"rows\"")
    if not payload["rows"]:
        raise ValueError(f"{path}: no data rows")
    weights = payload.get("weights")
    if not (weights is None or isinstance(weights, list) and all(map(metrology.is_number, weights))):
        raise ValueError(f"{path}: \"weights\" must be a list of finite numbers, not {weights!r}")
    return [entanglement.CollectiveData.from_json(r) for r in payload["rows"]], weights


def depth(run: Run, rows_json):
    """Point-estimate entanglement depth for stored collective-moment rows."""
    from dataclasses import asdict
    from . import entanglement, metrology
    rows, _ = _load_rows(Path(rows_json))
    results = []
    for data in rows:
        rp = entanglement.depth_parity(data)
        rv = entanglement.depth_variance(data)
        results.append({"n_total": data.n_total, "parity": asdict(rp), "variance": asdict(rv)})
    run.dump_json("depth.json", {"command": "depth", "results": results})
    metrology.write_csv(run.out / "depth.csv", ["N", "depth_parity", "parity_method", "depth_variance"],
                        [(r["n_total"], r["parity"]["depth"], r["parity"]["method"], r["variance"]["depth"])
                         for r in results])
    for r in results:
        print(f"N={r['n_total']}: parity depth {r['parity']['depth']} ({r['parity']['method']}), "
              f"variance depth {r['variance']['depth']}")


def witness(run: Run, rows_json):
    """Entanglement witnesses for stored collective-moment rows."""
    from . import entanglement
    rows, weights = _load_rows(Path(rows_json))
    total = entanglement.witness_indefinite_n(rows, weights=weights)
    payload = {
        "command": "witness",
        "indefinite_n": {"value": total.value, "entangled": total.entangled,
                         "per_n": {str(k): v for k, v in total.per_n.items()}},
        "parity_xyz": [],
    }
    for data in rows:
        pw = entanglement.parity_witness_xyz(data)
        payload["parity_xyz"].append({"n_total": data.n_total, "value": pw.value, "entangled": pw.entangled})
    run.dump_json("witness.json", payload)
    print(f"indefinite-N witness: {total.value:.4f} ({'entangled' if total.entangled else 'not certified'})")


def _existing(metavar: str, directory: bool = False) -> dict:
    """add_argument keywords for a path that must exist, and be a directory if ``directory``."""
    def check(text: str) -> str:
        if not (Path(text).is_dir() if directory else Path(text).exists()):
            raise argparse.ArgumentTypeError(f"{text!r} is not an existing {'directory' if directory else 'path'}")
        return text
    return {"type": check, "metavar": metavar}


def _seed(text: str) -> int:
    """One 32-bit word, the first entry of every stream's SeedSequence (``stats.stream_key``)."""
    if not (text.isascii() and text.isdigit() and int(text) < 2**32):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in [0, 2**32 - 1]")
    return int(text)


# each command: its function and its arguments (name or flag -> add_argument keywords)
COMMANDS = {
    "simulate": (simulate, {}),
    "calibrate": (calibrate, {"signals_csv": _existing("SIGNALS_CSV")}),
    "analyze": (analyze, {"dataset_dir": _existing("DATASET_DIR", directory=True)}),
    "fisher": (fisher, {
        "--exact": {"choices": ["ideal", "model"],
                    "help": "Skip sampling: run on exact distributions of the named state family."},
        "--dataset": {**_existing("DIR", directory=True), "dest": "dataset_dir",
                      "help": "Shot-table directory produced by simulate (sampled pipeline)."}}),
    "depth": (depth, {"rows_json": _existing("ROWS_JSON")}),
    "witness": (witness, {"rows_json": _existing("ROWS_JSON")}),
}


def main(args=None, prog_name: str = "homsim") -> int:
    """Number-resolved two-mode interference pipeline."""
    ap = argparse.ArgumentParser(prog=prog_name, description=main.__doc__, allow_abbrev=False)
    ap.add_argument("--config", **_existing("PATH"), help="JSON config file.")
    ap.add_argument("--seed", type=_seed, default=0, help="Master seed; all randomness derives from it (default: 0).")
    ap.add_argument("--out", default="out", help="Output directory (default: out).")
    commands = ap.add_subparsers(dest="command", required=True, metavar="<command>")
    for name, (fn, arguments) in COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False)
        for flag, keywords in arguments.items():
            sub.add_argument(flag, **keywords)
    opts = vars(ap.parse_args(args))
    config, seed, out, command = (opts.pop(key) for key in ("config", "seed", "out", "command"))
    from . import stats
    try:
        cfg = RunConfig.from_file(config) if config else RunConfig()
        COMMANDS[command][0](Run(cfg, seed, Path(out)), **opts)
    except (ValueError, OSError, KeyError, stats.FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3 if isinstance(exc, stats.FitError) else 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
