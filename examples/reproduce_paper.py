#!/usr/bin/env python
"""Regenerate the paper's figures and tables in one shot.

Runs every ``repro sweep`` driver (``repro.experiments.SWEEP_DRIVERS``:
Figures 1-3 and 8-17, Table I, the ablations, the group-quant width
sweep, minibatch scaling, the §II-B recompute baseline and the hybrid
planner), writes the merged output to ``results/figures.json`` and
prints one table per figure.  At the default minibatch the JSON is the
checked-in ``BENCH_figures.json``, whose shape claims
``tests/test_paper_claims.py`` checks.

Run:  python examples/reproduce_paper.py [--batch-size 64]

Set REPRO_FAST=1 for a seconds-long smoke run: it leaves out the drivers
whose cost does not shrink with ``--batch-size`` (:data:`SLOW_DRIVERS`).
"""

import argparse
import os
import statistics

from repro.analysis import format_table
from repro.experiments import FIGURE10_ARMS, SWEEP_DRIVERS, run_sweep
from repro.ioutil import atomic_write_json

FAST = bool(os.environ.get("REPRO_FAST"))
#: Left out under REPRO_FAST: Figure 16 searches the largest fitting
#: minibatch of 509- to 1202-layer ResNets, and the training studies
#: train the scaled VGG for 5-6 epochs per arm, whatever the minibatch.
SLOW_DRIVERS = ("figure16_speedups", "figure12_accuracy",
                "figure14_ssdc_series", "groupquant_width",
                "ablation_dpr_rounding")
MiB = 1024 ** 2
GiB = 1024 ** 3

#: Figure 1's bars: JSON class key -> column header.
FIGURE1_CLASSES = {
    "weights": "weights",
    "weight_gradients": "w_grads",
    "stashed_feature_maps": "stashed_fm",
    "immediate_feature_maps": "immediate_fm",
    "gradient_maps": "grad_maps",
    "workspace": "workspace",
}
ACTIVATIONS = ("stashed_feature_maps", "immediate_feature_maps",
               "gradient_maps", "saved_state")


def _table(headers, rows, title):
    return "\n" + format_table(headers, rows, title=title)


def _mean(rows, key):
    return statistics.mean(row[key] for row in rows)


def print_figures(figures, batch_size: int) -> None:
    breakdown = figures["baseline_memory_breakdown"]
    print(_table(
        ["network", "total", *FIGURE1_CLASSES.values(), "fm_fraction"],
        [[name, sum(b.values()) / GiB,
          *(b[key] / GiB for key in FIGURE1_CLASSES),
          sum(b[key] for key in ACTIVATIONS) / sum(b.values())]
         for name, b in breakdown.items()],
        title=f"Figure 1 — memory breakdown (GiB, minibatch {batch_size})"))

    print(_table(
        ["relu map", "encoding", "baseline FP32 live", "gist FP32 live",
         "gist encoded live"],
        [[r["relu"], r["encoding"], r["baseline_live"], r["gist_fp32_live"],
          r["encoded_live"]] for r in figures["figure2_lifetime_gap"]],
        title="Figure 2 — stashed-map lifetime, fraction of a step (VGG16)"))

    print(_table(
        ["network", "relu_pool", "relu_conv", "other", "stashed GiB"],
        [[name, b["relu_pool"] / sum(b.values()),
          b["relu_conv"] / sum(b.values()), b["other"] / sum(b.values()),
          sum(b.values()) / GiB]
         for name, b in figures["figure3_stash_classes"].items()],
        title="Figure 3 — stashed maps by class (fraction of bytes)"))

    table1 = figures["table1_techniques"].values()
    print(_table(
        ["stash class", "binarize", "ssdc", "dpr"],
        [[cls, *(sum(t["decisions"][cls][enc] for t in table1)
                 for enc in ("binarize", "ssdc", "dpr"))]
         for cls in ("relu_pool", "relu_conv", "other")],
        title="Table I — Schedule Builder decisions across the suite"))
    print(f"inplace-eligible edges: {sum(t['inplace_edges'] for t in table1)}")

    mfr = figures["figure8_mfr"]
    print(_table(
        ["network", "dpr fmt", "baseline GiB", "lossless MFR",
         "lossless+lossy MFR"],
        [[r["network"], r["dpr_format"], r["baseline_bytes"] / GiB,
          r["mfr_lossless"], r["mfr_full"]] for r in mfr],
        title="Figure 8 — total MFR vs the CNTK baseline"))
    print(f"averages: lossless {_mean(mfr, 'mfr_lossless'):.2f}x "
          f"(paper 1.4x), full {_mean(mfr, 'mfr_full'):.2f}x (paper 1.8x)")

    cost = figures["figure9_overheads"]
    print(_table(
        ["network", "baseline ms", "lossless %", "gist %", "naive %",
         "vdnn %", "cdma %", "vdnn/gist J"],
        [[r["network"], r["baseline_s"] * 1000,
          r["lossless_overhead"] * 100, r["gist_overhead"] * 100,
          r["naive_overhead"] * 100, r["vdnn_overhead"] * 100,
          r["cdma_overhead"] * 100, r["energy_ratio_vdnn_over_gist"]]
         for r in cost],
        title="Figures 9 and 15 — slowdown vs the baseline step, energy"))
    print("averages: " + ", ".join(
        f"{arm} {_mean(cost, arm + '_overhead'):.1%}"
        for arm in ("lossless", "gist", "naive", "vdnn", "cdma")))

    print(_table(
        ["network", "arm", "ssdc MiB", "binarize MiB", "other MiB",
         "immediate MiB", "MFR"],
        [[name, arm, arms[arm]["ssdc"] / MiB, arms[arm]["binarize"] / MiB,
          arms[arm]["other_stashed"] / MiB, arms[arm]["immediate"] / MiB,
          arms[arm]["mfr"]]
         for name, arms in figures["figure10_isolation"].items()
         for arm in FIGURE10_ARMS],
        title="Figure 10 — lossless encodings in isolation "
              "(investigation baseline)"))

    print(_table(
        ["network", "binarize %", "ssdc %"],
        [[name, r["binarize_overhead"] * 100, r["ssdc_overhead"] * 100]
         for name, r in figures["figure11_lossless_perf"].items()],
        title="Figure 11 — lossless encoding deltas (% of baseline step)"))

    if "figure12_accuracy" in figures:
        curves = figures["figure12_accuracy"]
        epochs = len(next(iter(curves.values())))
        print(_table(
            ["arm", *(f"epoch {i + 1}" for i in range(epochs))],
            [[arm, *curve] for arm, curve in curves.items()],
            title="Figure 12 — accuracy loss (1 - test accuracy) per "
                  "epoch, scaled VGG"))

    print(_table(
        ["network", "format", "stashed compression", "immediate growth",
         "total MFR"],
        [[name, r["format"], r["stashed_compression"], r["immediate_growth"],
          r["mfr"]]
         for name, rows in figures["figure13_dpr_mfr"].items()
         for r in rows],
        title="Figure 13 — DPR vs the investigation baseline"))

    if "figure14_ssdc_series" in figures:
        print(_table(
            ["relu map", "first sample", "last sample", "max"],
            [[name, v[0], v[-1], max(v)]
             for name, v in figures["figure14_ssdc_series"].items()],
            title="Figure 14 — SSDC compression ratio per layer over "
                  "training (every 4th minibatch)"))

    if "figure16_speedups" in figures:
        print(_table(
            ["network", "baseline batch", "gist batch", "baseline img/s",
             "gist img/s", "speedup %"],
            [[r["network"], r["baseline_batch"], r["gist_batch"],
              r["baseline_throughput"], r["gist_throughput"],
              (r["speedup"] - 1.0) * 100]
             for r in figures["figure16_speedups"]],
            title="Figure 16 — largest fitting minibatch (12 GB Titan X)"))

    dynamic = figures["figure17_dynamic"]
    arms = ("dynamic", "dynamic_lossless", "dynamic_full",
            "dynamic_optimized")
    print(_table(
        ["network", *arms], [[r["network"], *(r[a] for a in arms)]
                             for r in dynamic],
        title="Figure 17 — MFR vs the static baseline, dynamic allocation"))
    print("averages: " + ", ".join(f"{a} {_mean(dynamic, a):.2f}x"
                                   for a in arms))

    print(_table(
        ["network", "greedy GiB", "first-fit x", "no-sharing x"],
        [[name, r["greedy_bytes"] / GiB, r["first_fit_ratio"],
          r["no_sharing_ratio"]]
         for name, r in figures["ablation_allocator_policy"].items()],
        title="Ablation — allocator policy (relative to greedy-by-size)"))
    print(_table(
        ["sparsity", "narrow CSR x", "wide CSR x", "bitmap x"],
        [[s, r["narrow_csr"], r["wide_csr"], r["bitmap"]]
         for s, r in figures["ablation_narrow_csr"].items()],
        title="Ablation — sparse format compression over dense FP32"))
    pool = figures["ablation_pool_argmax"]
    print(f"Ablation — VGG16 lossless without the pool argmax rewrite: "
          f"{pool['without_rewrite_bytes'] / pool['with_rewrite_bytes']:.2f}x"
          f" larger")

    if "ablation_dpr_rounding" in figures:
        print(_table(
            ["rounding", "final accuracy"],
            figures["ablation_dpr_rounding"].items(),
            title="Ablation — DPR FP8 rounding mode"))

    if "groupquant_width" in figures:
        print(_table(
            ["stash format", "compression x", "final accuracy"],
            [[arm, r["compression"], r["final_accuracy"]]
             for arm, r in figures["groupquant_width"].items()],
            title="Extension — group-quantised stashes: accuracy vs "
                  "width"))

    scaling = figures["minibatch_scaling"]
    print(_table(["minibatch", "full MFR"],
                 sorted(scaling["batch"].items(), key=lambda kv: int(kv[0])),
                 title="Extension — VGG16 MFR vs minibatch"))
    print(_table(["assumed sparsity", "lossless MFR"],
                 scaling["assumed_sparsity"].items(),
                 title="Extension — VGG16 MFR vs assumed sparsity"))

    print(_table(
        ["network", "recompute MFR", "recompute ov %", "gist MFR",
         "gist ov %"],
        [[r["network"], r["recompute_mfr"], r["recompute_overhead_pct"],
          r["gist_mfr"], r["gist_overhead_pct"]]
         for r in figures["recompute_baseline"]],
        title="Section II-B — sqrt(N) checkpointing vs Gist"))

    hybrid = figures["hybrid_planner"]
    print(_table(
        ["model", "baseline MiB", "hybrid MiB", "best pure MiB", "ratio",
         "overhead %", "adopted", "gates"],
        [[r["model"], r["baseline_bytes"] / MiB, r["hybrid_bytes"] / MiB,
          min(r["pure_bytes"].values()) / MiB, r["footprint_ratio"],
          r["overhead_frac"] * 100, r["fallback_strategy"] or "mixed",
          "ok" if r["ok"] else "FAILED"]
         for r in hybrid["models"]],
        title=f"Extension — hybrid planner (minibatch "
              f"{hybrid['batch_size']}, budget "
              f"{hybrid['budget_frac']:.0%} of the step)"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--out", default="results/figures.json")
    args = parser.parse_args()

    drivers = [d for d in SWEEP_DRIVERS
               if not (FAST and d in SLOW_DRIVERS)]
    data = run_sweep(drivers, batch_size=args.batch_size)
    path = atomic_write_json(args.out, data)
    print_figures(data["figures"], args.batch_size)
    print(f"\nraw data written to {path}")


if __name__ == "__main__":
    main()
