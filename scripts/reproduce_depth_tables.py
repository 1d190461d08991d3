#!/usr/bin/env python3
"""Depth and witness tables for the measured collective-moment central values.

The rows below are the per-N central values of the measured dataset (variance
and spread of J_z, z and x parities).  Output: depth.json/depth.csv and
witness.json under --out.
"""

import argparse
import json
from pathlib import Path

from homsim import cli

ROWS = [
    dict(n_total=2, jxjy2=1.892, var_jz=0.0176, parity_z=0.965, parity_x=0.892),
    dict(n_total=4, jxjy2=5.08, var_jz=0.025, parity_z=0.951, parity_x=0.821),
    dict(n_total=6, jxjy2=11.26, var_jz=0.029, parity_z=0.942, parity_x=0.833),
    dict(n_total=8, jxjy2=19.0, var_jz=0.098, parity_z=0.806, parity_x=0.821),
    dict(n_total=10, jxjy2=25.7, var_jz=0.091, parity_z=0.822, parity_x=0.872),
    dict(n_total=12, jxjy2=33.7, var_jz=0.067, parity_z=0.862, parity_x=0.61),
]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/depth"))
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    rows_path = args.out / "rows.json"
    rows_path.write_text(json.dumps({"rows": ROWS}, indent=2))

    cli.main(["--out", str(args.out), "depth", str(rows_path)])
    cli.main(["--out", str(args.out), "witness", str(rows_path)])


if __name__ == "__main__":
    main()
