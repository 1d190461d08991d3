#!/usr/bin/env python3
"""homsim benchmark: cold CLI workloads, checked against independent computations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs in its own cold interpreter, one at a time, as a user
runs it (``python3 -m homsim.cli``, default config).  A run prepares its
inputs from the seed, times whole rounds of the workload's commands until
``--seconds`` have passed, checks every output, and prints one JSON object
as its last line.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` runs the same rounds through ``child.py --spans`` and
reports the per-layer self times and counts.  An operation is one command;
it fails on a non-zero exit code or a failed output check.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

HOM_ANGLE = math.pi / 2
N_VALUES = [2, 4, 6, 8, 10, 12]  # the default config's atom numbers
FISHER_N = list(range(2, 15, 2))
# Five probe angles, pi/2 and pi: 7 x 3816 = 26,712 shots, one experimental run.
RUN_ANGLES = [0.0, 0.14, 0.20, 0.28, 0.35, HOM_ANGLE, math.pi]
# --help starts per run, after the untimed preparation has compiled the
# bytecode: one start varies by a fifth from the next on a shared host.  Each
# takes about 2 s, and 70 runs of the three workloads must fit within an hour.
SETUP_SAMPLES = 4
# fisher --dataset runs on the dataset and resampling stream of this seed on
# every run, whatever --seed is: there fit_scaling returns s = 2.40818 where
# the minimum of its weighted cost lies at s = 2.34149 (a fault in homsim), so
# the operation fails its check every time instead of on some seeds only.
# Only that mismatch, within FISHER_FAULT_TOL of both values, is a known
# fault; any other failure of the operation clears `correct`.
FISHER_FAULT_SEED = 209
FISHER_FAULT_S = (2.40818, 2.34149)  # (returned, minimum of the cost)
FISHER_FAULT_TOL = 1e-3
KNOWN_FAULT = "known fault: "
NOISE_FIT_TABLE_SEED = 0
# calibrate gets the camera run synthesized from seed 1 on every run: on the
# run of seed 409 its histogram fit did not end within 170 s, and a benchmark
# cannot keep an operation that fails on some seeds only.
CALIBRATION_RUN_SEED = 1
# Untraced rounds run each stage twice (simulate, the fisher pair and
# fisher --dataset, calibrate and the noise fit): on a shared host the same
# command's time varies by a fifth or more from one start to the next.  Every
# untraced round then takes longer than 10 s, so a run is one round.
STAGE_SAMPLES = 2
PROCESS_TIMEOUT_S = 170.0

PER_LAYER = [
    "cli.import_s", "fock.twin_fock_output_s", "fock.collective_moments_s",
    "channel.rotation_s", "channel.rotation_calls", "channel.noise_s", "channel.noise_passes",
    "channel.fit_s", "metrology.sample_s", "metrology.csv_write_s", "metrology.csv_read_s",
    "metrology.empirical_s", "metrology.hellinger_s", "metrology.fit_fisher_s",
    "metrology.fit_fisher_calls", "metrology.fit_scaling_s", "stats.resample_s",
    "stats.resample_draws", "stats.wls_s", "stats.wls_calls", "stats.de_nfev",
    "entanglement.boundary_s", "entanglement.boundary_calls", "entanglement.boundary_spins",
    "entanglement.depth_point_s", "entanglement.depth_resampled_s", "entanglement.witness_s",
    "detector.read_s", "detector.crosstalk_s", "detector.drift_s", "detector.histogram_fit_s",
]


class Session:
    """Runs cold processes one at a time and keeps the operation tally."""

    def __init__(self, work: Path, trace: bool):
        self.work, self.trace = work, trace
        self.attempted = self.failed = self.unexpected = 0
        self.peak_rss_mb = 0.0
        self.span_files: list[Path] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        threads = str(len(os.sched_getaffinity(0)))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env.setdefault(var, threads)

    def op(self, label: str, args: list[str], check=None, library: bool = False) -> float:
        """Run one command cold, then check its output; returns its wall time.

        CLI commands run as ``python3 -m homsim.cli`` unless tracing; the
        noise fit (``library``) always runs through child.py.  A failure whose
        every problem the check tagged with KNOWN_FAULT is counted but leaves
        the run correct; a non-zero exit or a malformed output never is.
        """
        if self.trace:
            spans = self.work / f"spans-{len(self.span_files)}.json"
            self.span_files.append(spans)
            cmd = [sys.executable, str(CHILD), "--spans", str(spans), *args]
        elif library:
            cmd = [sys.executable, str(CHILD), *args]
        else:
            cmd = [sys.executable, "-m", "homsim.cli", *args]
        log = self.work / f"{label}.log"
        self.attempted += 1
        with open(log, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=err, stderr=subprocess.STDOUT, env=self.env, cwd=self.work)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        problems = [f"exit code {proc.returncode}: {log.read_text()[-400:]}"] if proc.returncode else []
        if not problems and check is not None:
            try:
                problems = check()
            except (OSError, ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
                problems = [f"malformed output: {exc!r}"]
        if problems:
            self.failed += 1
            self.unexpected += not all(p.startswith(KNOWN_FAULT) for p in problems)
            print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)
        return seconds

    def samples(self, n: int) -> int:
        """How often a round runs a stage: once when tracing, else n times."""
        return 1 if self.trace else n

    def start_rounds(self) -> None:
        """Only round operations count, so every run fails the same share of them.

        The peak RSS, too, is that of the round's processes only.
        """
        if self.failed:
            raise RuntimeError("a command failed before the timed rounds")
        self.attempted = self.failed = 0
        self.peak_rss_mb = 0.0

    def layers(self) -> dict:
        """Per-layer totals over the processes traced since the last call."""
        self_s, counts, distinct = {}, {}, {}
        for path in self.span_files:
            if not path.exists():
                continue
            dump = json.loads(path.read_text())
            for k, v in dump["self_s"].items():
                self_s[k] = self_s.get(k, 0.0) + v
            for k, v in dump["counts"].items():
                counts[k] = counts.get(k, 0) + v
            for k, v in dump["distinct"].items():
                distinct.setdefault(k, set()).update(v)
        self.span_files = []
        out = {}
        for name in PER_LAYER:
            if name.endswith("_s"):
                out[name] = self_s.get(name[:-2], 0.0)
            elif name in distinct:
                out[name] = len(distinct[name])
            else:
                out[name] = counts.get(name, 0)
        return out


# ---------------------------------------------------------------------------
# output checks


def _close(label, got, want, rel=1e-9, abs_=1e-12) -> list[str]:
    if isinstance(got, (int, float)) and abs(got - want) <= abs_ + rel * abs(want):
        return []
    return [f"{label}: program {got!r}, recomputed {want!r}"]


def _tables(dataset: Path) -> dict:
    meta = json.loads((dataset / "metadata.json").read_text())
    return {float(k): oracle.read_shots(dataset / name) for k, name in meta["files"].items()}


def _angle(tables: dict, theta: float):
    return next(tables[t] for t in tables if abs(t - theta) < 1e-6)


def check_dataset(dataset: Path, angles, shots: int = 3816) -> list[str]:
    meta = json.loads((dataset / "metadata.json").read_text())
    tables = _tables(dataset)
    problems = []
    if sorted(round(t, 6) for t in tables) != sorted(round(t, 6) for t in angles):
        problems.append(f"angles {sorted(tables)} differ from the config's")
    for theta, (n_plus, n_minus) in tables.items():
        if len(n_plus) != shots or min(n_plus.min(), n_minus.min()) < 0:
            problems.append(f"theta {theta}: {len(n_plus)} shots or negative occupations")
    if set(meta["tail_mass"]) != set(meta["files"]):
        problems.append("tail_mass does not cover every angle")
    return problems


def check_analysis(dataset: Path, report_path: Path) -> list[str]:
    """Recompute every per-N figure of report.json from the shot tables."""
    tables = _tables(dataset)
    zero, hom = _angle(tables, 0.0), _angle(tables, HOM_ANGLE)
    report = json.loads(report_path.read_text())  # accepts the -Infinity squeezing sentinel
    problems, rows = [], {}
    for n in N_VALUES:
        e = report["per_n"][str(n)]
        m0, mh = oracle.moments(*zero, n), oracle.moments(*hom, n)
        rows[n] = m0, mh
        problems += _close(f"N={n} fidelity", e["fidelity_vs_ideal"], oracle.fidelity(mh["probs"], oracle.arcsine(n)))
        problems += _close(f"N={n} var_jz", e["var_jz"], m0["var_jz"])
        problems += _close(f"N={n} parity_z", e["parity_z"], m0["parity"])
        problems += _close(f"N={n} parity_x", e["parity_x"]["value"], mh["parity"])
        problems += _close(f"N={n} jxjy2", e["jxjy2"], mh["jxjy2"])
        if not e["parity_x"]["value"] > 0:
            problems.append(f"N={n}: parity_x {e['parity_x']['value']} is not positive")
        linear = (n - 1) * m0["var_jz"] / (mh["jxjy2"] - n / 2.0)
        sq = e["squeezing"]
        problems += _close(f"N={n} squeezing", sq["linear"], linear)
        if m0["zero_var"]:
            if sq["db"] != -math.inf:
                problems.append(f"N={n}: Var(Jz) = 0 but squeezing is {sq['db']} dB")
        elif not math.isfinite(sq["db"]):
            problems.append(f"N={n}: Var(Jz) > 0 but squeezing is {sq['db']} dB")
        else:
            problems += _close(f"N={n} squeezing dB", sq["db"], 10.0 * math.log10(linear))
        depth = e["depth"]
        for key in ("parity_point", "variance_point", "parity_confident", "variance_confident"):
            if not 1 <= depth[key] <= n:
                problems.append(f"N={n}: {key} {depth[key]} outside [1, {n}]")
        vm = oracle.variance_margins(n, mh["jxjy2"], m0["var_jz"], k_min=depth["variance_point"] - 1)
        problems += [f"N={n} variance {p}" for p in oracle.check_depth(depth["variance_point"], vm)]
        pm = oracle.parity_margins(n, mh["jxjy2"], m0["parity"])
        if depth["parity_method"] == "parity":
            problems += [f"N={n} parity {p}" for p in oracle.check_depth(depth["parity_point"], pm)]
        elif depth["parity_method"] != "fallback" or depth["parity_point"] != depth["variance_point"]:
            problems.append(f"N={n}: parity method {depth['parity_method']} with depth {depth['parity_point']}")
        else:
            problems += [f"N={n} parity fallback {p}" for p in oracle.check_depth(1, pm)]
    wit = report["witness_indefinite_n"]
    shots = {n: rows[n][0]["shots"] for n in N_VALUES}
    per_n = {n: m0["jz2"] / n - mh["jxjy2"] / (n * (n - 1)) + 0.5 / (n - 1) for n, (m0, mh) in rows.items()}
    total = sum(shots.values())
    problems += _close("witness", wit["value"], math.fsum(shots[n] * per_n[n] for n in N_VALUES) / total)
    for n in N_VALUES:
        problems += _close(f"N={n} witness weight", wit["weights"][str(n)], shots[n] / total)
        problems += _close(f"N={n} witness term", wit["per_n"][str(n)], per_n[n])
    if not wit["value"] < 0:
        problems.append(f"witness {wit['value']} is not negative")
    return problems


def check_fisher(path: Path, ideal: bool, known_fault=None) -> list[str]:
    """The scaling exponent is the minimum of a brute-force scan of its cost.

    ``known_fault`` is a (returned, minimum) pair of exponents: a mismatch
    within FISHER_FAULT_TOL of both is tagged KNOWN_FAULT, nothing else is.
    """
    payload = json.loads(path.read_text())
    agg = payload["aggregated"]
    ns = sorted(int(n) for n in agg)
    if ns != FISHER_N or payload["scaling"] is None:
        return [f"atom numbers {ns} or no scaling fit"]
    f = [agg[str(n)]["F"] for n in ns]
    df = [agg[str(n)]["F_err"] for n in ns]
    problems = [f"N={n}: F = {fn!r} +- {e!r}" for n, fn, e in zip(ns, f, df)
                if not (math.isfinite(fn) and math.isfinite(e) and fn > 0 and e > 0)]
    if problems:
        return problems
    s, best = payload["scaling"]["s"], oracle.scaling_scan(ns, f, df)
    problems = _close("scaling s", s, best, rel=0, abs_=1e-6)
    if problems and known_fault is not None and all(
            abs(got - want) <= FISHER_FAULT_TOL for got, want in zip((s, best), known_fault)):
        problems = [KNOWN_FAULT + problems[0]]
    if ideal:
        for n, fn in zip(ns, f):
            if not abs(fn - n * (n + 2) / 2.0) <= 0.01 * n * (n + 2) / 2.0:
                problems.append(f"ideal F_{n} = {fn} is not within 1% of {n * (n + 2) / 2.0}")
        if not abs(s - 2.0) <= 0.005:
            problems.append(f"ideal scaling s = {s} is not within 0.005 of 2")
    return problems


# The crosstalk must come back within KAPPA_TOL_SE standard errors of its
# zero-atom regression (measured spread over 40 seeds: 1.3 of them), the gain
# within GAIN_REL_TOL of itself (measured: 3.7e-4 rms), and the share of
# shots read correctly at most RECOVERY_MARGIN below the ideal detector
# (measured: 0.0005 below, 2.8e-4 rms).
KAPPA_TOL_SE = 6.0
GAIN_REL_TOL = 2.5e-3
RECOVERY_MARGIN = 3e-3


def check_calibration(out: Path, signals: dict, truth: dict) -> list[str]:
    report = json.loads((out / "calibration.json").read_text())
    problems = []
    for mode in ("minus", "plus"):
        inj = oracle.INJECTED[mode]
        kappa = report["crosstalk"][mode]
        cal = report["modes"][mode]
        # regression of s on s0 over the true zero-atom shots: the residual is
        # the zero peak's noise plus the uncorrected drift
        resid = math.hypot(inj["sigma0"] * inj["g"], oracle.DRIFT_PEAK_TO_PEAK / 2 / math.sqrt(2))
        stderr = resid / (oracle.COMPANION_SPREAD * math.sqrt(np.count_nonzero(truth[mode] == 0)))
        if not abs(kappa - inj["kappa"]) <= KAPPA_TOL_SE * stderr:
            problems.append(f"{mode}: crosstalk {kappa:.4g}, injected {inj['kappa']:.4g} +- {stderr:.2g}")
        if not abs(cal["g"] - inj["g"]) <= GAIN_REL_TOL * inj["g"]:
            problems.append(f"{mode}: gain {cal['g']:.5g}, injected {inj['g']}")
        drift = np.loadtxt(out / f"drift_{mode}.csv", delimiter=",", skiprows=1, ndmin=2)
        occ = oracle.requantize(signals[f"s_{mode}"], signals["s_zero"], kappa, drift[:, 0], drift[:, 2],
                                cal["g"], cal["b"])
        got = float(np.mean(occ == truth[mode]))
        ideal = oracle.ideal_recovery(truth[mode], inj["sigma0"], inj["c1"])
        if not got >= ideal - RECOVERY_MARGIN:
            problems.append(f"{mode}: recovers {got:.4f} of occupations, ideal detector {ideal:.4f}")
    return problems


def check_noise_fit(path: Path, n_plus, n_minus) -> list[str]:
    """The fitted rates reach the reported objective, and no more than the truth's."""
    fit = json.loads(path.read_text())
    emp = oracle.empirical_grid(n_plus, n_minus, oracle.N_MAX)

    def objective(rates):
        return oracle.hellinger_sq(oracle.reference_channel(HOM_ANGLE, rates), emp)

    at_fit, at_truth = objective(fit["rates"]), objective(oracle.REFERENCE_RATES)
    problems = _close("noise-fit objective", fit["objective"], at_fit, rel=1e-6)
    if not fit["converged"] or not at_fit <= at_truth:
        problems.append(f"fitted objective {at_fit:.6g} above the generating rates' {at_truth:.6g}")
    return problems


# ---------------------------------------------------------------------------
# workloads: prepare() makes the inputs untimed, run_round() times one round


def _config(s: Session, name: str, payload: dict) -> str:
    path = s.work / name
    path.write_text(json.dumps(payload))
    return str(path)


class HomAnalysis:
    """simulate on the reference noise model, then analyze: the paper's pipeline."""

    stages = ("simulate", "analyze")

    def prepare(self, s: Session, seed: int):
        self.seed = seed

    def run_round(self, s: Session, r: int) -> dict:
        sims = []
        for i in range(s.samples(STAGE_SAMPLES)):  # same seed, so every copy is the same dataset
            run = s.work / f"run{r}-{i}"
            sims.append(s.op("simulate", ["--seed", str(self.seed), "--out", str(run), "simulate"],
                             check=lambda run=run: check_dataset(run, RUN_ANGLES[:-1])))
        ana = s.work / f"ana{r}"
        analyze = s.op("analyze", ["--seed", str(self.seed), "--out", str(ana), "analyze", str(run)],
                       check=lambda: check_analysis(run, ana / "report.json"))
        return {"stage1_s": sims, "stage2_s": [analyze]}


class FisherScaling:
    """fisher --exact ideal and model, then --dataset, all with N = 2..14."""

    stages = ("fisher --exact ideal + model", "fisher --dataset")

    def prepare(self, s: Session, seed: int):
        self.config = _config(s, "fisher.json", {"n_values": FISHER_N})
        self.dataset = s.work / "dataset"
        s.op("prepare", ["--seed", str(FISHER_FAULT_SEED), "--out", str(self.dataset), "simulate"],
             check=lambda: check_dataset(self.dataset, RUN_ANGLES[:-1]))

    def run_round(self, s: Session, r: int) -> dict:
        base = ["--config", self.config]
        exacts, sampled = [], []
        for i in range(s.samples(STAGE_SAMPLES)):
            exact = 0.0
            for family in ("ideal", "model"):
                out = s.work / f"{family}{r}-{i}"
                exact += s.op(f"fisher-{family}", base + ["--out", str(out), "fisher", "--exact", family],
                              check=lambda out=out, ideal=family == "ideal": check_fisher(out / "fisher.json", ideal))
            exacts.append(exact)
            out = s.work / f"sampled{r}-{i}"
            sampled.append(s.op("fisher-dataset", base + ["--seed", str(FISHER_FAULT_SEED), "--out", str(out),
                                                          "fisher", "--dataset", str(self.dataset)],
                                check=lambda out=out: check_fisher(out / "fisher.json", False, FISHER_FAULT_S)))
        return {"stage1_s": exacts, "stage2_s": sampled}


class Calibration:
    """calibrate on synthesized camera signals, then channel.fit on the pi/2 table."""

    stages = ("calibrate", "channel.fit")

    def prepare(self, s: Session, seed: int):
        config = _config(s, "run.json", {"angles": RUN_ANGLES})
        dataset = s.work / "dataset"
        s.op("prepare", ["--config", config, "--seed", str(CALIBRATION_RUN_SEED), "--out", str(dataset), "simulate"],
             check=lambda: check_dataset(dataset, RUN_ANGLES))
        meta = json.loads((dataset / "metadata.json").read_text())
        parts = [oracle.read_shots(dataset / name) for name in meta["files"].values()]
        n_plus = np.concatenate([p[0] for p in parts])
        n_minus = np.concatenate([p[1] for p in parts])
        self.truth = {"plus": n_plus, "minus": n_minus}
        self.signals = oracle.synthesize(n_plus, n_minus, CALIBRATION_RUN_SEED)
        self.signals_csv = s.work / "signals.csv"
        oracle.write_signals(self.signals_csv, self.signals)
        # The noise fit gets the same pi/2 table on every run: differential
        # evolution needs 2265 to 2830 evaluations on the tables of five seeds,
        # which would spread stage2_s by workload rather than by code.
        grid = oracle.reference_channel(HOM_ANGLE, oracle.REFERENCE_RATES)
        draws = np.random.default_rng(NOISE_FIT_TABLE_SEED).choice(grid.size, size=3816, p=grid.ravel())
        self.hom_shots = np.unravel_index(draws, grid.shape)
        self.hom_csv = s.work / "noise_fit_table.csv"
        np.savetxt(self.hom_csv, np.column_stack(self.hom_shots), delimiter=",", fmt="%d",
                   header="N_plus,N_minus", comments="")

    def run_round(self, s: Session, r: int) -> dict:
        cals, fits = [], []
        # calibrate and the noise fit take turns, so the samples of each span the round
        for i in range(s.samples(STAGE_SAMPLES)):
            out = s.work / f"cal{r}-{i}"
            cals.append(s.op("calibrate", ["--out", str(out), "calibrate", str(self.signals_csv)],
                             check=lambda out=out: check_calibration(out, self.signals, self.truth)))
            fit = s.work / f"fit{r}-{i}.json"
            fits.append(s.op("noise-fit", ["noise-fit", str(self.hom_csv), str(fit)], library=True,
                             check=lambda fit=fit: check_noise_fit(fit, *self.hom_shots)))
        return {"stage1_s": cals, "stage2_s": fits}


WORKLOADS = {"hom-analysis": HomAnalysis, "fisher-scaling": FisherScaling, "calibration": Calibration}


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    s = Session(work, trace)
    wl = WORKLOADS[workload]()
    wl.prepare(s, seed)
    setup = [] if trace else [s.op("setup", ["--help"]) for _ in range(SETUP_SAMPLES)]
    s.start_rounds()
    s.layers()  # preparation is not part of a traced round
    rounds, layers = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(wl.run_round(s, len(rounds)))
        layers.append(s.layers())
    if trace:  # counts repeat exactly from round to round
        metrics = {name: (statistics.median(r[name] for r in layers), "s") if name.endswith("_s")
                   else (statistics.median_low(r[name] for r in layers), "count") for name in PER_LAYER}
    else:
        stages = {k: statistics.median(t for r in rounds for t in r[k]) for k in ("stage1_s", "stage2_s")}
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (stages["stage1_s"] + stages["stage2_s"], "s"),
            "peak_rss_mb": (s.peak_rss_mb, "MB"),
            "stage1_s": (stages["stage1_s"], "s"),
            "stage2_s": (stages["stage2_s"], "s"),
        }
    counts = [sum(len(r[k]) for r in rounds) for k in ("stage1_s", "stage2_s")]
    wall = statistics.median(sum(r["stage1_s"]) + sum(r["stage2_s"]) for r in rounds)
    print(f"{workload} seed={seed} trace={int(trace)}: {len(rounds)} round(s) of {wall:.6g} s; "
          f"samples: setup {len(setup)}, {wl.stages[0]} {counts[0]}, {wl.stages[1]} {counts[1]}; "
          + ", ".join(f"{k}={v:.6g}" for k, (v, _) in metrics.items() if v))
    return {
        "correct": s.unexpected == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the running command is stopped too
    if not (ROOT / "src" / "homsim" / "cli.py").is_file():
        print(f"error: no homsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
