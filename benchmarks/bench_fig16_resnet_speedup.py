"""Figure 16: training speedup from Gist-enabled larger minibatches on
very deep ResNets (509 / 851 / 1202 layers, the paper's depth sweep).

Gist's footprint reduction lets each depth fit a larger minibatch in the
12 GB card; throughput improves because per-kernel launch overhead (~2400
kernels per step at depth 1202) amortises and occupancy rises.  The paper
reports 22% for ResNet-1202 with speedup growing with depth.
"""

from repro.analysis import format_table
from repro.experiments import figure16_speedups

from conftest import print_header


def test_fig16_deep_resnet_speedup(benchmark):
    rows = [
        [r["network"], r["baseline_batch"], r["gist_batch"],
         r["baseline_throughput"], r["gist_throughput"],
         (r["speedup"] - 1.0) * 100]
        for r in benchmark.pedantic(figure16_speedups, rounds=1,
                                    iterations=1)
    ]
    print_header("Figure 16 — speedup from largest fitting minibatch "
                 "(12 GB Titan X)")
    print(format_table(
        ["network", "baseline batch", "gist batch", "baseline img/s",
         "gist img/s", "speedup %"],
        rows,
    ))
    speedups = [r[5] for r in rows]
    batch_ratios = [r[2] / r[1] for r in rows]
    # Gist roughly doubles the fitting minibatch at every depth.
    for ratio, row in zip(batch_ratios, rows):
        assert ratio > 1.5, row[0]
    # Speedup is positive everywhere and grows with depth (paper's trend;
    # 22% at depth 1202).
    assert all(s > 0 for s in speedups)
    assert speedups[-1] >= speedups[0]
    # Magnitude note (EXPERIMENTS.md): our simulated baseline already fits
    # minibatch ~137 at depth 1202 and so sits closer to GPU saturation
    # than the paper's testbed; the speedup trend survives, the 22%
    # magnitude does not.
    assert 2.0 < speedups[-1] < 45.0
