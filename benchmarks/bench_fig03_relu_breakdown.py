"""Figure 3: breakdown of stashed feature maps by layer-pair class.

Paper observation reproduced: ReLU outputs dominate stashed memory —
VGG16 has ~40% ReLU-Pool and ~49% ReLU-Conv (89% total ReLU).
"""

from repro.analysis import format_table
from repro.core import STASH_OTHER, STASH_RELU_CONV, STASH_RELU_POOL
from repro.experiments import figure3_stash_classes

from conftest import print_header


def test_fig03_stash_class_breakdown(benchmark):
    by_network = benchmark.pedantic(figure3_stash_classes, rounds=1,
                                    iterations=1)
    rows = []
    for name, bb in by_network.items():
        total = sum(bb.values())
        rows.append(
            [
                name,
                bb[STASH_RELU_POOL] / total,
                bb[STASH_RELU_CONV] / total,
                bb[STASH_OTHER] / total,
                total / 1024**3,
            ]
        )
    print_header("Figure 3 — stashed feature maps by class "
                 "(fraction of stashed bytes)")
    print(format_table(
        ["network", "relu_pool", "relu_conv", "other", "stashed GiB"], rows
    ))
    by_name = {r[0]: r for r in rows}
    # VGG16: paper reports 40% / 49% / remainder.
    vgg = by_name["vgg16"]
    assert 0.35 < vgg[1] < 0.45
    assert 0.45 < vgg[2] < 0.65
    # ReLU outputs are the majority of stashed bytes for the classic
    # conv-pool stacks.
    for name in ("alexnet", "nin", "overfeat", "vgg16"):
        relu_share = by_name[name][1] + by_name[name][2]
        assert relu_share > 0.6, name
