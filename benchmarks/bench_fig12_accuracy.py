"""Figure 12: training accuracy under reduced-precision policies.

Substitution (DESIGN.md §2): the paper trains the ImageNet suite; we train
a scaled VGG-shaped network on the synthetic classification task.  The
figure's claim is a *pairwise* one at matched bit width — quantising in
the forward pass (prior work) destroys training where Gist's delayed
reduction does not — and that is exactly what reproduces:

* All-FP8 collapses to chance after one epoch (weight updates vanish on
  the 3-mantissa-bit grid: "the network stops training");
* Gist DPR-FP8 tracks the FP32 baseline at the very same width;
* DPR-FP16/FP10 are indistinguishable from baseline.

At this small scale uniform FP16 still trains (its 10 mantissa bits cover
the whole dynamic range of an 8-class toy problem); the paper's All-FP16
failures need ImageNet-scale depth.  The matched-width FP8 pair is the
load-bearing comparison.
"""

from repro.analysis import format_series
from repro.experiments import run_sweep

from conftest import print_header

NUM_CLASSES = 8


def test_fig12_training_accuracy(benchmark):
    out = benchmark.pedantic(run_sweep, args=(["figure12_accuracy"],),
                             rounds=1, iterations=1)
    assert out["ok"], out["failed_units"]
    curves = out["figures"]["figure12_accuracy"]
    print_header("Figure 12 — accuracy-loss curves (1 - test accuracy) "
                 "per epoch")
    for label, curve in curves.items():
        print(format_series(f"{label:>15s}", curve))

    final = {label: 1.0 - curve[-1] for label, curve in curves.items()}
    base = final["baseline-fp32"]
    chance = 1.0 / NUM_CLASSES

    # The baseline must learn for this figure to mean anything.
    assert base > 0.8

    # Uniform FP8 stops training (weight updates vanish under the
    # 3-mantissa-bit grid).
    assert final["all-fp8"] < chance + 0.1

    # Delayed FP8 tracks the baseline — the headline claim at equal width.
    assert final["gist-dpr-fp8"] > base - 0.15
    assert final["gist-dpr-fp8"] - final["all-fp8"] > 0.4

    # DPR never visibly deviates from baseline at any width.
    for label in ("gist-dpr-fp16", "gist-dpr-fp10"):
        assert final[label] > base - 0.15, label

    # Section III-B's stepping stone: gradient-map-only reduction is safe.
    assert final["grad-only-fp16"] > base - 0.15
