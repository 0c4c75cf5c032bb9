"""Every shape claim of the paper's numbers, checked on the JSON.

``BENCH_figures.json`` is the checked-in ``repro sweep`` output of every
driver in :data:`repro.experiments.SWEEP_DRIVERS` (the training studies
included: they are byte-stable), and CI fails when a fresh sweep
differs from it by a byte.  So checking the file checks the
code: this module reads that file and nothing else, and costs
milliseconds.

Each :class:`Claim` is one row: the figure, a key path into the file's
``figures``, the paper's number, the band or ordering our reproduction
must keep, and the EXPERIMENTS.md section it backs.  A band is declared
once, here, and nowhere else.

Path segments, applied left to right to the rows selected so far:

* ``*`` fans out over every entry of a dict or list (list rows are
  named by their ``network`` / ``relu`` / ``format`` / ``model`` field);
  ``a,b,c`` fans out over the named entries only;
* ``mean`` / ``sum`` / ``max`` / ``min`` fold the fanned-out rows back
  into one (field by field when the rows are dicts);
* a :data:`VIEWS` name maps a derived quantity over the rows;
* any other segment is a key (for a list, the row with that name).

``check`` and ``where`` are Python expressions over the row: ``x`` is
the row itself, and a dict row's keys are names too.  A row fails when
``where`` holds and ``check`` does not; a claim whose path or ``where``
selects nothing fails as well.

A claim with a ``quote`` backs numbers EXPERIMENTS.md prints:
``quote.format(...)`` of every row it selects must appear in that file
verbatim (a fan-out path checks a table, a ``min`` / ``max`` fold a
range's end).

Figs 4 and 7 have no row here: their claims are structural and live in
``tests/layers/test_layers_behavior.py::TestBackwardNeedsMetadata`` and
``tests/memory/test_allocator.py::TestPaperExample``.
"""

from __future__ import annotations

import copy
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.experiments import SWEEP_DRIVERS

ROOT = Path(__file__).resolve().parents[1]
FIGURES_JSON = ROOT / "BENCH_figures.json"
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"

MiB = 1024 ** 2
GiB = 1024 ** 3


@dataclass(frozen=True)
class Claim:
    figure: str
    path: str
    paper: str
    check: str
    section: str
    where: Optional[str] = None
    quote: Optional[str] = None


#: Derived quantities a path segment may name.
VIEWS = {
    "total_gib": lambda by_class: sum(by_class.values()) / GiB,
    "activation_share": lambda b: (
        b["stashed_feature_maps"] + b["immediate_feature_maps"]
        + b["gradient_maps"] + b["saved_state"]) / sum(b.values()),
    "shares": lambda b: {k: v / sum(b.values()) for k, v in b.items()},
    "fp32_ratio": lambda r: r["gist_fp32_live"] / r["baseline_live"],
    "gain": lambda speedup: speedup - 1.0,
    "pct": lambda r: {k: 100 * v if k.endswith("_overhead") else v
                      for k, v in r.items()},
    "accuracy": lambda curves: {arm: 1.0 - curve[-1]
                                for arm, curve in curves.items()},
    "trend": lambda v: {"first": v[0], "late_min": min(v[len(v) // 2:]),
                        "late_max": max(v[len(v) // 2:])},
    "last": lambda series: {name: v[-1] for name, v in series.items()},
}

_FOLDS = {"mean": statistics.mean, "sum": sum, "max": max, "min": min}
_NAME_FIELDS = ("network", "relu", "format", "model")
_BUILTINS = {"len": len, "max": max, "min": min, "sum": sum}

F1 = "Figure 1"
F2 = "Figure 2"
F3 = "Figure 3"
T1 = "Table I"
F8 = "Figure 8"
F9 = "Figure 9"
F10 = "Figure 10"
F11 = "Figure 11"
F12 = "Figure 12"
F13 = "Figure 13"
F14 = "Figure 14"
F15 = "Figure 15"
F16 = "Figure 16"
F17 = "Figure 17"
ABL = "Ablations (beyond the paper)"
EXT = "Extensions beyond the paper"

CLAIMS = (
    # -- Fig 1: memory breakdown by data structure -----------------------
    Claim("Fig 1", "baseline_memory_breakdown/vgg16/total_gib",
          "VGG16 nears the 12 GB card at minibatch 64", "x > 8.0", F1,
          quote="VGG16 total {x:.1f} GiB"),
    Claim("Fig 1", "baseline_memory_breakdown/*/activation_share",
          "feature maps dominate training memory", "x > 0.4", F1),
    Claim("Fig 1", "baseline_memory_breakdown/vgg16/activation_share",
          "83% on VGG16", "x > 0.8", F1,
          quote="VGG16 activations {x:.0%}"),
    Claim("Fig 1", "baseline_memory_breakdown/inception/activation_share",
          "97% on Inception", "x > 0.9", F1, quote="Inception {x:.0%}"),
    # -- Fig 2: the gap between a stashed map's two uses (VGG16) ---------
    Claim("Fig 2", "figure2_lifetime_gap/*",
          "Gist never extends an FP32 interval",
          "gist_fp32_live <= baseline_live", F2),
    Claim("Fig 2", "figure2_lifetime_gap/*",
          "the encoded tensor carries the gap",
          "encoded_live > 0.6 * baseline_live", F2),
    Claim("Fig 2", "figure2_lifetime_gap/*",
          "long-gap maps: FP32 collapses to the forward neighbourhood",
          "gist_fp32_live < 0.2 * baseline_live", F2,
          where="baseline_live > 0.5"),
    Claim("Fig 2", "figure2_lifetime_gap/*/fp32_ratio/mean",
          "FP32 lifetime a small fraction of the baseline's", "x < 0.3", F2),
    # -- Fig 3: stashed maps by layer-pair class -------------------------
    Claim("Fig 3", "figure3_stash_classes/vgg16/shares",
          "VGG16 ReLU-Pool 40%", "0.35 < relu_pool < 0.45", F3,
          quote="{relu_pool:.1%} / {relu_conv:.1%}"),
    Claim("Fig 3", "figure3_stash_classes/vgg16/shares",
          "VGG16 ReLU-Conv 49%", "0.45 < relu_conv < 0.65", F3),
    Claim("Fig 3", "figure3_stash_classes/alexnet,nin,overfeat,vgg16/shares",
          "ReLU outputs form a major fraction",
          "relu_pool + relu_conv > 0.6", F3),
    # -- Table I: technique <-> target data structure (suite sums) -------
    Claim("Table I", "table1_techniques/*/decisions/relu_pool/ssdc/sum",
          "ReLU-Pool maps get Binarize only", "x == 0", T1),
    Claim("Table I", "table1_techniques/*/decisions/relu_pool/dpr/sum",
          "ReLU-Pool maps get Binarize only", "x == 0", T1),
    Claim("Table I", "table1_techniques/*/decisions/other/binarize/sum",
          "other stashed maps get DPR only", "x == 0", T1),
    Claim("Table I", "table1_techniques/*/decisions/other/ssdc/sum",
          "other stashed maps get DPR only", "x == 0", T1),
    Claim("Table I", "table1_techniques/*/decisions/relu_pool/binarize/sum",
          "Binarize fires", "x > 0", T1),
    Claim("Table I", "table1_techniques/*/decisions/relu_conv/ssdc/sum",
          "SSDC fires", "x > 0", T1),
    Claim("Table I", "table1_techniques/*/decisions/other/dpr/sum",
          "DPR fires", "x > 0", T1),
    Claim("Table I", "table1_techniques/*/inplace_edges/sum",
          "inplace computation fires", "x > 0", T1),
    # -- Fig 8: end-to-end MFR -------------------------------------------
    Claim("Fig 8", "figure8_mfr/*/mfr_lossless/mean",
          "1.4x average lossless", "1.25 < x < 1.6", F8,
          quote="{x:.2f} (paper 1.4)"),
    Claim("Fig 8", "figure8_mfr/*/mfr_full/mean",
          "1.8x average lossless+lossy, max 2x", "1.6 < x < 2.2", F8,
          quote="{x:.2f} (paper 1.8, max 2×)"),
    Claim("Fig 8", "figure8_mfr/*",
          "lossy adds to lossless, both reduce memory",
          "mfr_full > mfr_lossless > 1.0", F8,
          quote="| {network} | {mfr_lossless:.2f} | {mfr_full:.2f} ("),
    Claim("Fig 8", "figure8_mfr/alexnet/mfr_lossless",
          "more than 1.5x lossless on AlexNet", "x > 1.35", F8),
    Claim("Fig 8", "figure8_mfr/vgg16/mfr_lossless",
          "VGG16 lossless in the suite's band", "x > 1.3", F8),
    # -- Figs 9, 11, 15: performance overhead ----------------------------
    Claim("Fig 9, 11", "figure9_overheads/*/lossless_overhead/mean",
          "3% average lossless", "x < 0.06", F9,
          quote="lossless {x:.1%} (paper 3%)"),
    Claim("Fig 9, 15", "figure9_overheads/*/gist_overhead/mean",
          "4% average lossless+lossy", "x < 0.07", F9,
          quote="lossless+lossy {x:.1%} (paper 4%)"),
    Claim("Fig 9", "figure9_overheads/*", "7% worst case",
          "lossless_overhead < 0.12 and gist_overhead < 0.13", F9),
    # -- Fig 10: lossless encodings in isolation --------------------------
    Claim("Fig 10", "figure10_isolation/*",
          "SSDC shrinks its region", "ssdc['ssdc'] < baseline['ssdc']", F10),
    Claim("Fig 10", "figure10_isolation/*",
          "SSDC's FP32 copy becomes immediately consumed",
          "ssdc['immediate'] >= baseline['immediate']", F10),
    Claim("Fig 10", "figure10_isolation/*",
          "Binarize collapses its region (32x on the map)",
          "binarize['binarize'] < baseline['binarize'] / 4", F10,
          where="baseline['binarize'] > MiB"),
    Claim("Fig 10", "figure10_isolation/*", "an encoding never hurts",
          "baseline['mfr'] <= ssdc['mfr'] + 1e-9"
          " or baseline['mfr'] <= binarize['mfr'] + 1e-9", F10),
    Claim("Fig 10", "figure10_isolation/*", "both beat either alone",
          "both['mfr'] >= 0.98 * max(ssdc['mfr'], binarize['mfr'])", F10),
    Claim("Fig 10", "figure10_isolation/*", "inplace does not hurt",
          "both_inplace['mfr'] >= 0.98 * both['mfr']", F10),
    Claim("Fig 10", "figure10_isolation/alexnet/ssdc/mfr",
          "AlexNet SSDC-only 1.06x: marginal", "1.0 <= x < 1.1", F10,
          quote="SSDC-only total MFR **{x:.2f}×**"),
    Claim("Fig 10", "figure10_isolation/alexnet/binarize/mfr",
          "Binarize carries AlexNet's lossless MFR", "x > 1.3", F10,
          quote="Binarize-only {x:.2f}×"),
    Claim("Fig 10", "figure10_isolation/alexnet/both/mfr",
          "Binarize and SSDC together on AlexNet", "x > 1.3", F10,
          quote="both {x:.2f}×"),
    # -- Fig 11: lossless encoding performance ---------------------------
    Claim("Fig 11", "figure11_lossless_perf/*/binarize_overhead",
          "Binarize: small improvements", "x <= 0.005", F11),
    Claim("Fig 11", "figure11_lossless_perf/*/ssdc_overhead",
          "SSDC's conversions are the lossless cost", "x >= 0.0", F11),
    # -- Fig 12: training accuracy under reduced precision ---------------
    Claim("Fig 12", "figure12_accuracy/accuracy/baseline-fp32",
          "the FP32 baseline trains", "x > 0.8", F12,
          quote="| Baseline FP32 | trains | {x:.1%} accuracy |"),
    Claim("Fig 12", "figure12_accuracy/accuracy/all-fp8",
          "uniform FP8 stops training (chance is 1/8)", "x < 1 / 8 + 0.1",
          F12, quote="**stops training** ({x:.1%} accuracy"),
    Claim("Fig 12", "figure12_accuracy/accuracy",
          "delayed FP8 tracks the baseline at the same width",
          "x['gist-dpr-fp8'] > x['baseline-fp32'] - 0.15", F12,
          quote="DPR-FP8 {gist-dpr-fp8:.1%}"),
    Claim("Fig 12", "figure12_accuracy/accuracy",
          "matched width: delayed FP8 trains where uniform FP8 does not",
          "x['gist-dpr-fp8'] - x['all-fp8'] > 0.4", F12),
    Claim("Fig 12", "figure12_accuracy/accuracy",
          "DPR-FP16 and DPR-FP10 show no accuracy loss",
          "x['gist-dpr-fp16'] > x['baseline-fp32'] - 0.15"
          " and x['gist-dpr-fp10'] > x['baseline-fp32'] - 0.15", F12,
          quote="DPR-FP16 {gist-dpr-fp16:.1%}, DPR-FP10 {gist-dpr-fp10:.1%}"),
    Claim("Fig 12", "figure12_accuracy/accuracy",
          "§III-B: reducing only the gradient maps is safe",
          "x['grad-only-fp16'] > x['baseline-fp32'] - 0.15", F12,
          quote="gradient maps only, FP16) | trains | {grad-only-fp16:.1%}"),
    # -- Fig 13: DPR footprint reduction ---------------------------------
    Claim("Fig 13", "figure13_dpr_mfr/*/*",
          "the stashed region compresses by the format ratio",
          "0.85 * {'fp16': 2, 'fp10': 3, 'fp8': 4}[format]"
          " < stashed_compression"
          " <= 1.01 * {'fp16': 2, 'fp10': 3, 'fp8': 4}[format]", F13),
    Claim("Fig 13", "figure13_dpr_mfr/*/*",
          "the FP32 copies grow the immediate region, boundedly",
          "1.0 <= immediate_growth < 2.2", F13),
    Claim("Fig 13", "figure13_dpr_mfr/*/*",
          "AlexNet 1.18x with FP16, 1.48x with FP8", "mfr > 1.05", F13),
    Claim("Fig 13", "figure13_dpr_mfr/alexnet/fp16/mfr",
          "AlexNet 1.18x with FP16", "x > 1.05", F13,
          quote="FP16 total MFR {x:.2f} (paper 1.18)"),
    Claim("Fig 13", "figure13_dpr_mfr/alexnet/fp8/mfr",
          "AlexNet 1.48x with FP8", "x > 1.2", F13,
          quote="FP8 {x:.2f} (paper 1.48)"),
    Claim("Fig 13", "figure13_dpr_mfr/*",
          "a narrower format reduces more", "x[1]['mfr'] > x[0]['mfr']", F13,
          where="len(x) == 2"),
    # -- Fig 14: SSDC compression per layer over training -----------------
    Claim("Fig 14", "figure14_ssdc_series/*/trend",
          "after warm-up every SSDC layer compresses", "late_min > 1.0",
          F14),
    Claim("Fig 14", "figure14_ssdc_series/*/trend",
          "compression rises from its value at initialisation",
          "late_max > first", F14,
          quote="{first:.2f}× → {late_max:.2f}×"),
    Claim("Fig 14", "figure14_ssdc_series/last",
          "the ratio varies across layers",
          "max(x.values()) / min(x.values()) > 1.05", F14,
          quote="{relu1_1:.2f}× / {relu2_1:.2f}× / {relu3_1:.2f}×"),
    # -- Fig 15: vs naive swapping, vDNN and CDMA ------------------------
    Claim("Fig 15", "figure9_overheads/*/pct",
          "naive >> vDNN; compressed swapping below vDNN",
          "naive_overhead >= vdnn_overhead >= cdma_overhead >= 0.0", F15,
          quote="| {network} | {naive_overhead:.3f} | {vdnn_overhead:.3f} "
                "| {cdma_overhead:.3f} | {gist_overhead:.3f} |"),
    Claim("Fig 15", "figure9_overheads/*", "Gist beats naive swapping",
          "naive_overhead > gist_overhead", F15),
    Claim("Fig 15", "figure9_overheads/*/mean/pct", "30% naive vs 15% vDNN",
          "naive_overhead > 2 * vdnn_overhead", F15,
          quote="| **average** | {naive_overhead:.1f} | {vdnn_overhead:.1f} "
                "| {cdma_overhead:.1f} | {gist_overhead:.1f} |"),
    Claim("Fig 15", "figure9_overheads/*/mean",
          "compressed swapping below vDNN",
          "cdma_overhead <= vdnn_overhead", F15,
          quote="| ~15% (max 27%) | {vdnn_overhead:.1%}"),
    Claim("Fig 15", "figure9_overheads/*/mean", "15% vDNN vs 4% Gist",
          "vdnn_overhead > gist_overhead", F15,
          quote="| ~4% | {gist_overhead:.1%} |"),
    Claim("Fig 15", "figure9_overheads/*/naive_overhead/mean",
          "30% average naive swapping", "x > 0.15", F15,
          quote="| ~30% | {x:.1%} |"),
    Claim("Fig 15", "figure9_overheads/*/energy_ratio_vdnn_over_gist",
          "swapping costs more data-movement energy", "x > 2.0", F15),
    # -- Fig 16: deeper ResNets, larger minibatches ----------------------
    Claim("Fig 16", "figure16_speedups/*",
          "Gist fits a larger minibatch at every depth",
          "gist_batch / baseline_batch > 1.5", F16),
    Claim("Fig 16", "figure16_speedups/*", "a speedup at every depth",
          "speedup > 1.0", F16),
    Claim("Fig 16", "figure16_speedups", "deeper => bigger win",
          "x[-1]['speedup'] >= x[0]['speedup']", F16),
    Claim("Fig 16", "figure16_speedups/resnet-1202/speedup/gain",
          "22% at depth 1202", "0.02 < x < 0.45", F16,
          quote="→ {x:.1%})"),
    # -- Fig 17: dynamic allocation --------------------------------------
    Claim("Fig 17", "figure17_dynamic/*", "the arms are strictly ordered",
          "1.0 <= dynamic < dynamic_lossless < dynamic_full"
          " <= dynamic_optimized", F17),
    Claim("Fig 17", "figure17_dynamic/*/dynamic/mean",
          "1.2x average, dynamic alone", "1.05 < x < 1.6", F17,
          quote="| 1.2× | {x:.2f}×"),
    Claim("Fig 17", "figure17_dynamic/*/dynamic_lossless/mean",
          "1.7x average, + lossless", "1.4 < x < 2.3", F17,
          quote="| 1.7× | {x:.2f}× |"),
    Claim("Fig 17", "figure17_dynamic/*/dynamic_full/mean",
          "2.6x average, + lossless+lossy", "2.0 < x < 3.4", F17,
          quote="| 2.6× | {x:.2f}× |"),
    Claim("Fig 17", "figure17_dynamic/*/mean",
          "2.9x average with optimized software",
          "dynamic_optimized > dynamic_full", F17,
          quote="{dynamic_optimized:.2f}× avg"),
    Claim("Fig 17", "figure17_dynamic/*/dynamic_optimized/max",
          "up to 4.1x with optimized software", "x > 3.0", F17,
          quote="{x:.2f}× max"),
    # -- Ablations -------------------------------------------------------
    Claim("Ablation", "ablation_allocator_policy/*/first_fit_ratio",
          "greedy-by-size never loses to first fit", "x >= 0.999", ABL),
    Claim("Ablation", "ablation_allocator_policy/*/no_sharing_ratio",
          "memory sharing is the enabling mechanism", "x > 1.5", ABL),
    Claim("Ablation", "ablation_narrow_csr/0.3",
          "narrow indices move the breakeven from 50% to 20%",
          "narrow_csr > 1.0 > wide_csr", ABL),
    Claim("Ablation", "ablation_narrow_csr/0.1/narrow_csr",
          "below 20% not even narrow CSR wins", "x < 1.0", ABL),
    Claim("Ablation", "ablation_narrow_csr/0.7/narrow_csr",
          "narrow CSR compresses well at 70%", "x > 2.0", ABL),
    Claim("Ablation", "ablation_pool_argmax",
          "the pool argmax rewrite is worth memory",
          "without_rewrite_bytes > 1.1 * with_rewrite_bytes", ABL),
    Claim("Ablation", "ablation_dpr_rounding",
          "round-to-nearest (the paper's) does not lose to truncation",
          "nearest >= truncate - 0.05", ABL,
          quote="round-to-nearest {nearest:.1%} vs truncation "
                "{truncate:.1%}"),
    Claim("Ablation", "ablation_dpr_rounding/nearest",
          "DPR-FP8 with round-to-nearest trains", "x > 0.7", ABL),
    # -- Group-quantised stashes (extension, ActNN's direction) ----------
    Claim("Group quant", "groupquant_width/baseline/final_accuracy",
          "the FP32 baseline trains", "x > 0.8", EXT,
          quote="(FP32 {x:.1%})"),
    Claim("Group quant", "groupquant_width",
          "INT8 stashes track the baseline",
          "int8['final_accuracy'] > baseline['final_accuracy'] - 0.1", EXT,
          quote="INT8 {int8[final_accuracy]:.1%}"),
    Claim("Group quant", "groupquant_width",
          "INT4 stashes track the baseline at 2x DPR-FP8's compression",
          "int4['final_accuracy'] > baseline['final_accuracy'] - 0.1", EXT,
          quote="INT4 {int4[final_accuracy]:.1%} at "
                "{int4[compression]:.1f}× compression"),
    Claim("Group quant", "groupquant_width",
          "INT1 does visibly worse than INT4: the error budget runs out",
          "int1['final_accuracy'] < int4['final_accuracy']", EXT,
          quote="INT1 {int1[final_accuracy]:.1%}"),
    # -- Minibatch scaling (extension) -----------------------------------
    Claim("Extension", "minibatch_scaling/batch",
          "the headline MFR is not a batch-64 artifact",
          "max(x.values()) / min(x.values()) < 1.08", EXT),
    Claim("Extension", "minibatch_scaling/batch/*",
          "full-Gist VGG16 MFR at every batch", "x > 1.4", EXT),
    Claim("Extension", "minibatch_scaling/assumed_sparsity",
          "CSR below its breakeven is net-harmful",
          "x['0.0'] > x['0.25']", EXT),
    Claim("Extension", "minibatch_scaling/assumed_sparsity",
          "from 50% up, SSDC's win grows with sparsity",
          "x['0.5'] < x['0.75'] < x['0.9']", EXT),
    Claim("Extension", "minibatch_scaling/assumed_sparsity/0.9",
          "lossless MFR at 90% sparsity", "x > 1.5", EXT),
    # -- §II-B: sqrt(N) checkpointing vs Gist on the chain networks -------
    Claim("§II-B", "recompute_baseline/*", "checkpointing reduces memory",
          "recompute_mfr > 1.2", EXT),
    Claim("§II-B", "recompute_baseline/*", "so does Gist",
          "gist_mfr > 1.2", EXT),
    Claim("§II-B", "recompute_baseline/*",
          "the largest layers take the longest to recompute",
          "recompute_overhead_pct > 15.0", EXT),
    Claim("§II-B", "recompute_baseline/*", "Gist's codecs cost little",
          "gist_overhead_pct < 10.0", EXT),
    Claim("§II-B", "recompute_baseline/*",
          "recompute pays several times Gist's step time",
          "recompute_overhead_pct > 5 * gist_overhead_pct", EXT),
    Claim("§II-B", "recompute_baseline/*/recompute_mfr/min",
          "checkpointing's MFR is Gist-lossless-like (1.3-1.6)", "x > 1.2",
          EXT, quote="MFR {x:.2f}–"),
    Claim("§II-B", "recompute_baseline/*/recompute_mfr/max",
          "checkpointing's MFR is Gist-lossless-like (1.3-1.6)", "x < 1.6",
          EXT, quote="–{x:.2f}× at"),
    Claim("§II-B", "recompute_baseline/*/recompute_overhead_pct/min",
          "checkpointing costs 20-35% of the step", "x > 20.0", EXT,
          quote="at {x:.0f}–"),
    Claim("§II-B", "recompute_baseline/*/recompute_overhead_pct/max",
          "checkpointing costs 20-35% of the step", "x < 35.0", EXT,
          quote="–{x:.0f}%"),
    # -- Hybrid planner: never worse than its best single lever -----------
    Claim("Hybrid", "hybrid_planner/models/*",
          "the mix is never worse than the best single lever",
          "hybrid_bytes <= min(pure_bytes.values())", EXT),
    Claim("Hybrid", "hybrid_planner/models/*",
          "the selected cost fits the step-time budget", "budget_ok", EXT),
    Claim("Hybrid", "hybrid_planner/models/*",
          "the plan-safety and shared-concat oracles find nothing",
          "not oracle_violations", EXT),
    Claim("Hybrid", "hybrid_planner/models/*/footprint_ratio/min",
          "the mix reduces every registry model's footprint", "x > 1.0",
          EXT, quote="reaches {x:.2f}–"),
    Claim("Hybrid", "hybrid_planner/models/*/footprint_ratio/max",
          "over 2x on the deep ResNets", "x > 2.0", EXT,
          quote="–{x:.2f}× over the baseline allocation"),
)


def _entries(node):
    """``(name, child)`` for every entry of a dict or list of rows."""
    if isinstance(node, dict):
        return list(node.items())
    names = [next((str(row[f]) for f in _NAME_FIELDS
                   if isinstance(row, dict) and f in row), str(i))
             for i, row in enumerate(node)]
    return list(zip(names, node))


def _fold(fold, values):
    if isinstance(values[0], dict):
        return {k: fold([v[k] for v in values]) for k, value in
                values[0].items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool)}
    return fold(values)


def resolve(figures, path: str):
    """``[(label, row)]`` the path selects from ``figures``."""
    rows = [("", figures)]
    for segment in path.split("/"):
        if segment == "*":
            rows = [(f"{label}/{name}".lstrip("/"), child)
                    for label, node in rows for name, child in _entries(node)]
        elif "," in segment:
            wanted = segment.split(",")
            rows = [(f"{label}/{name}".lstrip("/"), child)
                    for label, node in rows
                    for name, child in _entries(node) if name in wanted]
        elif segment in _FOLDS:
            rows = [(segment, _fold(_FOLDS[segment], [r for _, r in rows]))]
        elif segment in VIEWS:
            rows = [(label, VIEWS[segment](row)) for label, row in rows]
        else:
            rows = [(label, dict(_entries(row))[segment])
                    for label, row in rows]
    return rows


def _namespace(row) -> dict:
    names = {"MiB": MiB, "x": row}
    if isinstance(row, dict):
        names.update(row)
    return names


def _holds(expression: str, row) -> bool:
    return bool(eval(expression, {"__builtins__": _BUILTINS},
                     _namespace(row)))


def _selected(claim: Claim, figures):
    """``[(label, row)]`` the claim's path selects and ``where`` keeps."""
    rows = resolve(figures, claim.path)
    if claim.where is None:
        return rows
    return [(label, row) for label, row in rows if _holds(claim.where, row)]


def _failures(claim: Claim, figures) -> List[str]:
    def fail(label, why):
        where = f"{claim.path} [{label}]" if label else claim.path
        return (f"{claim.figure}: {where} {why} (paper: {claim.paper}; "
                f"EXPERIMENTS.md § {claim.section})")

    try:
        rows = _selected(claim, figures)
        if not rows:
            return [fail("", "selects no row")]
        return [fail(label, f"fails `{claim.check}`") for label, row in rows
                if not _holds(claim.check, row)]
    except Exception as exc:  # a missing key or row fails the claim
        return [fail("", f"cannot be evaluated "
                         f"({type(exc).__name__}: {exc})")]


def check_claims(data) -> List[str]:
    """One line per :data:`CLAIMS` row that ``data`` breaks (empty: all hold).

    ``data`` is a parsed ``BENCH_figures.json``.  A line names the
    figure, the path and the failing row, the check, the paper's number
    and the EXPERIMENTS.md section.
    """
    return [line for claim in CLAIMS
            for line in _failures(claim, data["figures"])]


def _load():
    return json.loads(FIGURES_JSON.read_text())


def test_every_claim_holds_on_the_checked_in_json():
    failures = check_claims(_load())
    assert not failures, "\n".join(failures)


def test_a_broken_fig8_row_fails_naming_fig8():
    data = copy.deepcopy(_load())
    (vgg16,) = [row for row in data["figures"]["figure8_mfr"]
                if row["network"] == "vgg16"]
    vgg16["mfr_lossless"] = 1.0
    failures = check_claims(data)
    assert failures
    assert all(line.startswith("Fig 8: ") for line in failures), failures
    assert any("[vgg16]" in line for line in failures), failures


def test_a_hybrid_plan_above_its_best_lever_fails_naming_the_model():
    data = copy.deepcopy(_load())
    (row,) = [row for row in data["figures"]["hybrid_planner"]["models"]
              if row["model"] == "resnet50"]
    row["hybrid_bytes"] = min(row["pure_bytes"].values()) + 1
    failures = check_claims(data)
    assert len(failures) == 1, failures
    assert failures[0].startswith(
        "Hybrid: hybrid_planner/models/* [resnet50] fails "
        "`hybrid_bytes <= min(pure_bytes.values())`"), failures


def test_recompute_below_five_times_gist_fails_naming_the_network():
    data = copy.deepcopy(_load())
    (row,) = [row for row in data["figures"]["recompute_baseline"]
              if row["network"] == "vgg16"]
    # Both overheads stay inside their own bands (> 15 %, < 10 %).
    row["gist_overhead_pct"] = 5.0
    row["recompute_overhead_pct"] = 4.5 * row["gist_overhead_pct"]
    failures = check_claims(data)
    assert len(failures) == 1, failures
    assert failures[0].startswith(
        "§II-B: recompute_baseline/* [vgg16] fails "
        "`recompute_overhead_pct > 5 * gist_overhead_pct`"), failures


def test_a_missing_figure_fails_its_claims():
    data = copy.deepcopy(_load())
    del data["figures"]["figure13_dpr_mfr"]
    failures = check_claims(data)
    assert failures
    assert all(line.startswith("Fig 13: ") for line in failures), failures


def test_all_fp8_that_trains_fails_the_fig12_collapse_rows():
    data = copy.deepcopy(_load())
    curves = data["figures"]["figure12_accuracy"]
    curves["all-fp8"] = list(curves["baseline-fp32"])
    failures = check_claims(data)
    # The collapse row and the matched-width gap row both read all-fp8.
    assert len(failures) == 2, failures
    assert failures[0].startswith(
        "Fig 12: figure12_accuracy/accuracy/all-fp8 fails "
        "`x < 1 / 8 + 0.1`"), failures
    assert failures[1].startswith(
        "Fig 12: figure12_accuracy/accuracy fails "
        "`x['gist-dpr-fp8'] - x['all-fp8'] > 0.4`"), failures


def test_the_json_is_the_default_sweep():
    data = _load()
    assert data["drivers"] == list(SWEEP_DRIVERS)
    assert data["ok"] and not data["failed_units"]


def test_every_figure_in_the_json_is_claimed():
    claimed = {claim.path.split("/")[0] for claim in CLAIMS}
    assert claimed == set(_load()["figures"])


def test_every_claim_names_an_experiments_section():
    headings = [line[3:] for line in EXPERIMENTS_MD.read_text().splitlines()
                if line.startswith("## ")]
    for claim in CLAIMS:
        assert any(h == claim.section or h.startswith(claim.section + " — ")
                   for h in headings), claim


def test_experiments_md_quotes_the_json():
    """Each number EXPERIMENTS.md quotes for a claim is the JSON's."""
    text = EXPERIMENTS_MD.read_text()
    figures = _load()["figures"]
    quoted = [claim for claim in CLAIMS if claim.quote is not None]
    assert quoted
    missing = []
    for claim in quoted:
        rows = _selected(claim, figures)
        assert rows, claim
        for label, row in rows:
            line = claim.quote.format(**_namespace(row))
            if line not in text:
                missing.append(f"{claim.figure}: {claim.path} [{label}] "
                               f"-> {line!r}")
    assert not missing, "\n".join(missing)
