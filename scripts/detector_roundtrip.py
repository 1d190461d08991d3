#!/usr/bin/env python3
"""Detector round trip: synthesize raw signals, recalibrate, and quantize.

Draws the shot tables of ``simulate`` over its default angles plus pi,
converts them to camera counts with the default drift/crosstalk/noise
settings, then runs the full correction chain and compares the recovered
calibration and the per-shot occupations against the ground truth, the
channel's default blur laws.  The recovered laws go to ``blur.json`` in the
shape of the noise config's ``blur``, ready to paste into a config.
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

from homsim import channel, cli, detector, metrology

ANGLES = cli.RunConfig().angles + [math.pi]


def round_trip(seed: int, shots: int = 3816):
    """The shots of ``simulate --seed SEED`` over ANGLES, joined, and ``detector.calibrate`` of their signals."""
    tables = [table for table, _ in cli.shot_tables(cli.RunConfig(angles=ANGLES, shots_per_angle=shots), seed)]
    union = metrology.ShotTable(n_plus=np.concatenate([t.n_plus for t in tables]),
                                n_minus=np.concatenate([t.n_minus for t in tables]))
    return union, detector.calibrate(detector.synthesize_signals(union, seed=seed))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/roundtrip"))
    ap.add_argument("--seed", type=cli._seed, default=5, help="master seed, as simulate's --seed")
    ap.add_argument("--shots", type=int, default=3816, help="shots per angle")
    args = ap.parse_args(argv)

    union, chains = round_trip(args.seed, args.shots)
    print(f"{len(union.n_plus)} shots")

    truth = {"minus": channel.DEFAULT_BLUR_MINUS, "plus": channel.DEFAULT_BLUR_PLUS}
    rows, laws = [], {}
    for mode, (corrected, kappa, _, calib) in chains.items():
        occ = detector.quantize_mode(corrected, calib)
        agree = float(np.mean(occ == getattr(union, f"n_{mode}")))
        print(f"{mode}: crosstalk {kappa:.2e}, g {calib.g:.2f} (truth {truth[mode].g}), sigma0 {calib.sigma0:.4f} "
              f"(truth {truth[mode].sigma0}), c1 {calib.c1:.4f} (truth {truth[mode].c1}), "
              f"exact recovery {agree:.4f}")
        rows.append((mode, f"{calib.g:.3f}", f"{calib.sigma0:.5f}", f"{calib.c1:.5f}",
                     f"{kappa:.3e}", f"{agree:.5f}"))
        laws[mode] = calib.to_json()["blur"]
    metrology.write_csv(args.out / "roundtrip.csv",
                        ["mode", "g", "sigma0", "c1", "crosstalk", "exact_recovery"], rows)
    (args.out / "blur.json").write_text(json.dumps({"blur": laws}, indent=2) + "\n")
    print(f"summary written to {args.out / 'roundtrip.csv'}, blur laws to {args.out / 'blur.json'}")


if __name__ == "__main__":
    main()
