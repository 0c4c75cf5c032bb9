#!/usr/bin/env python
"""Quickstart: apply Gist to VGG16 and measure the footprint reduction.

Builds the paper's flagship workload (VGG16, minibatch 64, ImageNet
shapes), runs the Schedule Builder, and prints what each technique did —
the 30-second version of the whole system.

Run:  python examples/quickstart.py
"""

from repro.analysis import format_table
from repro.core import Gist, GistConfig
from repro.memory import GiB
from repro.models import vgg16


def main() -> None:
    graph = vgg16(batch_size=64)
    print(f"built {graph.name}: {len(graph)} ops, "
          f"{graph.num_parameters() / 1e6:.0f}M parameters, "
          f"{graph.total_forward_flops() / 1e9:.0f} GFLOP/forward pass\n")

    # The per-network config picks the smallest DPR format that trains
    # without accuracy loss (FP16 for VGG16 — Section V-D1 of the paper).
    gist = Gist(GistConfig.for_network("vgg16"))

    # One line: baseline vs Gist footprint under the CNTK-style
    # memory-sharing allocator.
    report = gist.measure_mfr(graph)
    print(f"baseline footprint: {report.baseline_bytes / GiB:.2f} GiB")
    print(f"gist footprint:     {report.gist_bytes / GiB:.2f} GiB")
    print(f"memory footprint ratio (MFR): {report.mfr:.2f}x\n")

    # Where did the savings come from?  Inspect the Schedule Builder's
    # per-feature-map decisions.
    plan = gist.apply(graph)
    rows = []
    for decision in list(plan.decisions.values())[:10]:
        rows.append(
            [
                decision.node_name,
                decision.stash_class,
                decision.encoding,
                decision.fp32_bytes // 1024**2,
                decision.resident_bytes // 1024**2,
                f"{decision.fp32_bytes / decision.resident_bytes:.1f}x",
            ]
        )
    print(format_table(
        ["feature map", "class", "encoding", "FP32 MiB", "encoded MiB",
         "ratio"],
        rows,
        title="first 10 encoding decisions:",
    ))
    total_enc = sum(d.resident_bytes for d in plan.decisions.values())
    total_fp32 = sum(d.fp32_bytes for d in plan.decisions.values())
    print(f"\nacross all {len(plan.decisions)} stashed maps: "
          f"{total_fp32 / GiB:.2f} GiB stashed in FP32 -> "
          f"{total_enc / GiB:.2f} GiB encoded "
          f"({total_fp32 / total_enc:.1f}x raw compression)")


if __name__ == "__main__":
    main()
