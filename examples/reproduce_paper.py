#!/usr/bin/env python
"""Regenerate the paper's headline (non-training) results in one shot.

Runs the default ``repro sweep`` drivers (Figures 1, 3, 8, 9, 15 and 17),
writes their merged output to ``results/headline.json`` and prints the
summary table.  For the training figures (12, 14) and everything else,
run the full harness:

    pytest benchmarks/ --benchmark-only -s

Run:  python examples/reproduce_paper.py [--batch-size 64]
"""

import argparse
import statistics

from repro.analysis import format_table
from repro.experiments import DEFAULT_SWEEP_DRIVERS, run_sweep
from repro.ioutil import atomic_write_json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--out", default="results/headline.json")
    args = parser.parse_args()

    data = run_sweep(DEFAULT_SWEEP_DRIVERS, batch_size=args.batch_size)
    path = atomic_write_json(args.out, data)
    figures = data["figures"]

    rows = [
        [
            mfr["network"],
            mfr["dpr_format"],
            mfr["mfr_lossless"],
            mfr["mfr_full"],
            f"{cost['gist_overhead'] * 100:+.1f}%",
            f"{cost['vdnn_overhead'] * 100:+.1f}%",
            dynamic["dynamic_full"],
        ]
        for mfr, cost, dynamic in zip(figures["figure8_mfr"],
                                      figures["figure9_overheads"],
                                      figures["figure17_dynamic"])
    ]
    print(format_table(
        ["network", "dpr", "lossless MFR", "full MFR", "gist ov",
         "vdnn ov", "dyn MFR"],
        rows,
        title=f"Gist reproduction @ minibatch {args.batch_size}",
    ))
    print(f"\naverages: lossless "
          f"{statistics.mean(r[2] for r in rows):.2f}x "
          f"(paper 1.4x), full "
          f"{statistics.mean(r[3] for r in rows):.2f}x "
          f"(paper 1.8x)")
    print(f"raw data written to {path}")


if __name__ == "__main__":
    main()
