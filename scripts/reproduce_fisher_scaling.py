#!/usr/bin/env python3
"""Fisher-information scaling tables for the exact ideal and exact model states.

Runs the statistical-distance pipeline without sampling, once per fit variant
(quadratic, quartic, quartic with the N=14 node exclusion), for both the ideal
rotated Twin-Fock family and the reference noise model.  Each run leaves
fisher.json plus a fisher_scaling.csv data table under --out/<state>/<variant>.
"""

import argparse
import json
from pathlib import Path

from homsim import cli

VARIANTS = {
    "quadratic": {"quartic": False, "exclude_beyond_node": False},
    "quartic": {"quartic": True, "exclude_beyond_node": False},
    "quartic_excl": {"quartic": True, "exclude_beyond_node": True},
}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/fisher"))
    ap.add_argument("--nmax", type=int, default=14, help="largest atom number")
    args = ap.parse_args(argv)

    n_values = list(range(2, args.nmax + 1, 2))
    for state in ("ideal", "model"):
        for name, flags in VARIANTS.items():
            run_dir = args.out / state / name
            run_dir.mkdir(parents=True, exist_ok=True)
            cfg = run_dir / "config.json"
            cfg.write_text(json.dumps({"n_values": n_values, **flags}))
            cli.main(["--config", str(cfg), "--out", str(run_dir),
                      "fisher", "--exact", state])
            payload = json.loads((run_dir / "fisher.json").read_text())
            sc = payload["scaling"]
            print(f"{state:5s} {name:13s} r={sc['r']:.4f}+-{sc['r_err']:.4f} "
                  f"s={sc['s']:.4f}+-{sc['s_err']:.4f}")


if __name__ == "__main__":
    main()
