"""Figure 9: Gist's performance overhead (analytical cost model).

Paper results reproduced in shape: ~3% average for lossless, ~4% for
lossless+lossy, 7% worst case.
"""

import statistics

from repro.analysis import format_table
from repro.experiments import figure9_overheads

from conftest import print_header


def test_fig09_performance_overhead(benchmark):
    rows = [
        [r["network"], r["baseline_s"] * 1000, r["lossless_overhead"] * 100,
         r["gist_overhead"] * 100]
        for r in benchmark.pedantic(figure9_overheads, rounds=1,
                                    iterations=1)
    ]
    print_header("Figure 9 — Gist performance overhead "
                 "(% slowdown vs baseline step time)")
    print(format_table(
        ["network", "baseline ms/step", "lossless %", "lossless+lossy %"],
        rows,
    ))
    lossless = [r[2] for r in rows]
    full = [r[3] for r in rows]
    print(f"\naverage lossless = {statistics.mean(lossless):.1f}% "
          f"(paper: 3%)")
    print(f"average full     = {statistics.mean(full):.1f}% (paper: 4%)")
    assert statistics.mean(lossless) < 6.0
    assert statistics.mean(full) < 7.0
    for row in rows:
        assert row[2] < 12.0 and row[3] < 13.0, row[0]
