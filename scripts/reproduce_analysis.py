#!/usr/bin/env python3
"""Simulate a reference-noise dataset and run the full analysis on it.

Writes the shot tables, report.json, and the per-N CSV tables (parity,
squeezing, collective moments, depth) under --out.
"""

import argparse
import json
from pathlib import Path

from homsim import cli


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/analysis"))
    ap.add_argument("--seed", type=cli._seed, default=0, help="master seed, as simulate's --seed")
    ap.add_argument("--shots", type=int, default=3816, help="shots per angle")
    args = ap.parse_args(argv)
    config = {"shots_per_angle": args.shots, "noise": "reference"}
    try:
        cli.RunConfig(**config)
    except ValueError as exc:
        ap.error(str(exc))

    args.out.mkdir(parents=True, exist_ok=True)
    cfg_path = args.out / "config.json"
    cfg_path.write_text(json.dumps(config))

    common = ["--config", str(cfg_path), "--seed", str(args.seed)]
    sim_dir = args.out / "dataset"
    cli.main([*common, "--out", str(sim_dir), "simulate"])
    cli.main([*common, "--out", str(args.out), "analyze", str(sim_dir)])

    report = json.loads((args.out / "report.json").read_text())
    print(f"config hash {report['config_hash']}, seed {report['seed']}")
    for n, entry in report["per_n"].items():
        sq = entry.get("squeezing", {})
        print(f"N={n}: fidelity {entry['fidelity_vs_ideal']:.4f}  "
              f"parity {entry['parity_x']['value']:.4f}  "
              f"squeezing {sq.get('db', float('nan')):.1f} dB  "
              f"depth {entry['depth']['parity_point']} ({entry['depth']['parity_method']})")
    wit = report["witness_indefinite_n"]
    print(f"indefinite-N witness {wit['value']:.4f} "
          f"({'entangled' if wit['entangled'] else 'not certified'})")


if __name__ == "__main__":
    main()
