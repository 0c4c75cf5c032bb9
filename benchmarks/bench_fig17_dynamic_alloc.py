"""Figure 17: MFR under dynamic memory allocation (paper Section V-H).

Arms, all measured against the *static* CNTK baseline:
* dynamic allocation alone (paper: ~1.2x average, >1.5x on Overfeat);
* Gist lossless under dynamic allocation (paper: ~1.7x);
* Gist lossless+lossy under dynamic allocation (paper: ~2.6x);
* "optimized software" — no decoded-FP32 staging buffer, as if cuDNN
  consumed encoded data directly (paper: up to 4.1x on AlexNet, ~2.9x
  average).
"""

import statistics

from repro.analysis import format_table
from repro.experiments import figure17_dynamic

from conftest import print_header


def test_fig17_dynamic_allocation(benchmark):
    rows = [
        [r["network"], r["dynamic"], r["dynamic_lossless"], r["dynamic_full"],
         r["dynamic_optimized"]]
        for r in benchmark.pedantic(figure17_dynamic, rounds=1, iterations=1)
    ]
    print_header("Figure 17 — MFR vs static CNTK baseline under dynamic "
                 "allocation")
    print(format_table(
        ["network", "dynamic alone", "dyn+lossless", "dyn+lossless+lossy",
         "dyn+optimized sw"],
        rows,
    ))
    cols = list(zip(*rows))
    means = [statistics.mean(c) for c in cols[1:]]
    print(f"\naverages: dynamic={means[0]:.2f}x (paper 1.2x), "
          f"lossless={means[1]:.2f}x (paper 1.7x), "
          f"lossy={means[2]:.2f}x (paper 2.6x), "
          f"optimized={means[3]:.2f}x (paper 2.9x, max 4.1x)")
    # Arms are strictly ordered for every network.
    for name, dyn, lossless, lossy, opt in rows:
        assert 1.0 <= dyn < lossless < lossy <= opt, name
    # Averages sit in the paper's neighbourhood.
    assert 1.05 < means[0] < 1.6
    assert 1.4 < means[1] < 2.3
    assert 2.0 < means[2] < 3.4
    assert means[3] > means[2]
    assert max(r[4] for r in rows) > 3.0  # the "up to 4.1x" headline
