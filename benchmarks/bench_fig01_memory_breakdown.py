"""Figure 1: memory footprint breakdown across data-structure classes.

Paper observations reproduced:
* deeper networks consume GBs even at minibatch 64 (VGG16 nears the 12 GB
  card limit);
* stashed feature maps + immediately consumed data dominate (83% for
  VGG16, 97% for Inception), in stark contrast to inference, where
  weights dominate.
"""

from repro.analysis import format_table
from repro.experiments import baseline_memory_breakdown
from repro.memory import (
    CLASS_GRADIENT,
    CLASS_IMMEDIATE,
    CLASS_SAVED_STATE,
    CLASS_STASHED,
    CLASS_WEIGHT,
    CLASS_WEIGHT_GRAD,
    CLASS_WORKSPACE,
    GiB,
)

from conftest import print_header


def test_fig01_memory_breakdown(benchmark):
    breakdown = benchmark.pedantic(baseline_memory_breakdown, rounds=1,
                                   iterations=1)
    rows = []
    for name, by_class in breakdown.items():
        total = sum(by_class.values())
        activations = (
            by_class[CLASS_STASHED]
            + by_class[CLASS_IMMEDIATE]
            + by_class[CLASS_GRADIENT]
            + by_class[CLASS_SAVED_STATE]
        )
        rows.append(
            [
                name,
                total / GiB,
                by_class[CLASS_WEIGHT] / GiB,
                by_class[CLASS_WEIGHT_GRAD] / GiB,
                by_class[CLASS_STASHED] / GiB,
                by_class[CLASS_IMMEDIATE] / GiB,
                by_class[CLASS_GRADIENT] / GiB,
                by_class[CLASS_WORKSPACE] / GiB,
                activations / total,
            ]
        )
    print_header("Figure 1 — memory breakdown by data structure "
                 "(GiB, minibatch 64)")
    print(
        format_table(
            ["network", "total", "weights", "w_grads", "stashed_fm",
             "immediate_fm", "grad_maps", "workspace", "fm_fraction"],
            rows,
        )
    )
    by_name = {r[0]: r for r in rows}
    # VGG16 approaches the 12 GB limit at minibatch 64.
    assert by_name["vgg16"][1] > 8.0
    # Feature maps + gradient maps dominate every network; the paper
    # reports 83% for VGG16 and 97% for Inception.  AlexNet/Overfeat's
    # huge dense heads make weights visible but still minority players.
    for name, row in by_name.items():
        assert row[8] > 0.4, f"{name}: activations are not dominant"
    assert by_name["vgg16"][8] > 0.8
    assert by_name["inception"][8] > 0.9
