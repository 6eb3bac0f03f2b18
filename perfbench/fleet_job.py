"""One fleet job: `limits fleet` on generated SGF graphs instead of built-in seeds.

    python3 perfbench/fleet_job.py --r 2 --kmax 2 a.sgf b.sgf ...

Calls limits.ekvivalens_diagnostic, the function behind `serregraph limits
fleet`, and prints the same CSV columns, labelled by file stem.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    from serregraph.limits import ekvivalens_diagnostic
    from serregraph.sgf import load_path

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r", type=int, required=True)
    ap.add_argument("--kmax", type=int, required=True)
    ap.add_argument("files", nargs="+")
    args = ap.parse_args(argv)
    graphs = [load_path(p) for p in args.files]
    labels = [Path(p).stem for p in args.files]
    rows = ekvivalens_diagnostic(graphs, args.r, args.kmax, labels=labels)
    header = ["label", "nv", "tv_tree", "w1_km"] + [f"density_{k}" for k in range(1, args.kmax + 1)]
    lines = [",".join(header)]
    for r in rows:
        cells = [r.label, r.nv, float(r.tv_tree), r.w1_km] + [float(x) for x in r.cycle_densities]
        lines.append(",".join(str(c) for c in cells))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
