"""The paper's experiments as sweep drivers: one producer per row.

These are the only code that computes a row of the paper's figures and
tables (Figures 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15, 16 and 17,
Table I, the allocator / narrow-CSR / pool-argmax / DPR-rounding
ablations, the group-quant width sweep, minibatch scaling, the §II-B
recompute baseline and the hybrid planner against its single levers).
``BENCH_figures.json`` is their checked-in ``repro sweep`` output (every
driver of :data:`SWEEP_DRIVERS`, the default), and
``tests/test_paper_claims.py`` checks every paper claim against that
file.  Every row is ordinary dicts/lists of built-in types — directly
serialisable, directly plottable.

Static analyses accept any registered model name; the training studies
(Figures 12 and 14, group quant, DPR rounding) run on the scaled
substitution workload (see DESIGN.md §2) whatever ``models`` says.

Each driver is a set of payload-complete per-unit cores (one model, one
arm, one depth) plus a merge, so ``repro sweep`` can shard a whole
figure suite across worker processes (:mod:`repro.orchestrate`).  There
is no one-call function per figure: ``run_sweep([name])["figures"][name]``
is the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis import ConstantSparsity
from repro.core import (
    ENC_BINARIZE,
    ENC_DPR,
    ENC_SSDC,
    PAPER_DPR_FORMATS,
    STASH_CLASSES,
    Gist,
    GistConfig,
    build_gist_plan,
    stash_bytes_by_class,
)
from repro.encodings import (
    GroupQuantEncoding,
    bitmap_bytes,
    csr_bytes,
    inplace_eligible_edges,
)
from repro.encodings.groupquant import GROUPQUANT_BITS
from repro.graph import ROLE_ENCODED, ROLE_FEATURE_MAP
from repro.memory import (
    CLASS_ENCODED,
    CLASS_STASHED,
    POLICY_FIRST_FIT,
    POLICY_GREEDY_SIZE,
    POLICY_NO_SHARING,
    StaticAllocator,
    build_memory_plan,
    build_recompute_plan,
)
from repro.models import PAPER_SUITE, available_models, build_model
from repro.orchestrate import WorkUnit, run_units
from repro.perf import (
    CostModel,
    encoding_time_delta,
    larger_minibatch_speedup,
    measure_overhead,
    measure_transfer_energy,
    simulate_cdma,
    simulate_swapping,
)


def _figure8_row(name: str, batch_size: int) -> dict:
    """Figure 8: lossless and lossless+lossy MFR."""
    graph = build_model(name, batch_size=batch_size)
    cfg = GistConfig.for_network(name)
    lossless = Gist(GistConfig.lossless()).measure_mfr(graph)
    return {
        "network": name,
        "dpr_format": cfg.dpr_format,
        "baseline_bytes": lossless.baseline_bytes,
        "mfr_lossless": lossless.mfr,
        "mfr_full": Gist(cfg).measure_mfr(graph).mfr,
    }


def _figure3_bytes(name: str, batch_size: int) -> Dict[str, int]:
    """Figure 3: raw FP32 bytes of stashed maps per class (a bar's
    fraction is a class's bytes over the network's sum)."""
    return stash_bytes_by_class(build_model(name, batch_size=batch_size))


def _figure9_row(name: str, batch_size: int) -> dict:
    """Figures 9 and 15 + energy: performance/energy cost per strategy."""
    graph = build_model(name, batch_size=batch_size)
    cfg = GistConfig.for_network(name)
    lossless = measure_overhead(graph, GistConfig.lossless())
    gist = measure_overhead(graph, cfg)
    swap = simulate_swapping(graph)
    energy = measure_transfer_energy(graph, cfg)
    return {
        "network": name,
        "baseline_s": lossless.baseline_s,
        "lossless_overhead": lossless.overhead_frac,
        "gist_overhead": gist.overhead_frac,
        "vdnn_overhead": swap.vdnn_overhead,
        "naive_overhead": swap.naive_overhead,
        "cdma_overhead": simulate_cdma(graph).vdnn_overhead,
        "gist_j": energy.gist_j,
        "vdnn_j": energy.vdnn_j,
        "energy_ratio_vdnn_over_gist": energy.ratio,
    }


#: Figure 16's deep CIFAR ResNet depths (the paper's Table III picks).
FIGURE16_DEPTHS: Sequence[int] = (509, 851, 1202)


def _figure16_row(depth: int, dpr_format: str) -> dict:
    """Figure 16: larger-minibatch speedup of one deep CIFAR ResNet."""
    from repro.models import resnet_cifar
    from repro.perf import TITAN_X_MAXWELL

    config = GistConfig.full(dpr_format)
    report = larger_minibatch_speedup(
        lambda b, d=depth: resnet_cifar(d, batch_size=b),
        config,
        device=TITAN_X_MAXWELL,
        name=f"resnet-{depth}",
    )
    return {
        "network": report.model,
        "baseline_batch": report.baseline_batch,
        "gist_batch": report.gist_batch,
        "baseline_throughput": report.baseline_throughput,
        "gist_throughput": report.gist_throughput,
        "speedup": report.speedup,
    }


def scaled_study(policy, epochs: int, *, lr: float = 0.01,
                 num_samples: int = 640, seed: int = 3,
                 sparsity_every: int = 0):
    """The scaled-VGG training study behind ``repro train`` and Figures 12/14.

    One recipe (DESIGN.md §2) — the synthetic 8-class 16x16 task, a
    width-8 ``scaled_vgg`` at minibatch 32, SGD momentum 0.9,
    ``Trainer(seed=0)`` — so two arms differ only in the arguments here.

    Args:
        policy: A :data:`~repro.train.POLICY_NAMES` name, or a
            ``graph -> StashPolicy`` callable for an arm with no name.
        epochs: Passes over the training split.
        lr: SGD learning rate.
        num_samples: Synthetic training-set size.
        seed: Dataset seed.
        sparsity_every: Forwarded to :meth:`~repro.train.Trainer.train`.

    Returns:
        ``(graph, TrainResult)``.
    """
    from repro.models import scaled_vgg
    from repro.train import SGD, Trainer, make_synthetic, policy_from_name

    train_set, test_set = make_synthetic(num_samples=num_samples,
                                         num_classes=8, image_size=16,
                                         noise=1.2, seed=seed)
    graph = scaled_vgg(batch_size=32, num_classes=8, image_size=16, width=8)
    if isinstance(policy, str):
        label, built = policy, policy_from_name(policy, graph)
    else:
        label, built = "", policy(graph)
    trainer = Trainer(graph, built, SGD(lr=lr, momentum=0.9), seed=0)
    return graph, trainer.train(train_set, test_set, epochs=epochs,
                                label=label, sparsity_every=sparsity_every)


#: Figure 12's arms in plot order: paper label -> policy vocabulary name.
FIGURE12_ARMS: Dict[str, str] = {
    "baseline-fp32": "baseline",
    "all-fp16": "uniform-fp16",
    "all-fp10": "uniform-fp10",
    "all-fp8": "uniform-fp8",
    "grad-only-fp16": "grad-only-fp16",
    "gist-dpr-fp16": "gist-fp16",
    "gist-dpr-fp10": "gist-fp10",
    "gist-dpr-fp8": "gist-fp8",
}


def _figure12_arm(label: str, epochs: int, seed: int) -> List[float]:
    """Figure 12: one arm's per-epoch accuracy-loss curve."""
    _, result = scaled_study(FIGURE12_ARMS[label], epochs, seed=seed)
    return result.accuracy_loss_curve


#: The group-quant width sweep's arms (ActNN's direction, beyond the
#: paper): the FP32 baseline, then each group-quant stash width.
GROUPQUANT_ARMS: Sequence[str] = ("baseline",) + tuple(
    f"int{bits}" for bits in GROUPQUANT_BITS)


def _groupquant_arm(arm: str, epochs: int, seed: int) -> dict:
    """Group quant: one stash width's final accuracy, and its compression
    of a 1 Mi-element map over dense FP32 (group scale/offset included)."""
    if arm == "baseline":
        policy, compression = arm, 1.0
    else:
        n = 1 << 20
        policy = f"groupquant-{arm}"
        compression = 4 * n / GroupQuantEncoding(int(arm[3:])).encoded_bytes(n)
    _, result = scaled_study(policy, epochs, seed=seed)
    return {"compression": compression,
            "final_accuracy": result.final_accuracy}


#: The DPR-rounding ablation's modes (the paper rounds to nearest).
DPR_ROUNDINGS: Sequence[str] = ("nearest", "truncate")


def _dpr_rounding_arm(rounding: str, epochs: int, seed: int) -> float:
    """Ablation: final accuracy with DPR-FP8 stashes under one rounding
    mode, a config switch no policy vocabulary name carries."""
    from repro.train import GistPolicy

    _, result = scaled_study(
        lambda g: GistPolicy(g, GistConfig(dpr_format="fp8",
                                           rounding=rounding)),
        epochs, num_samples=512, seed=seed)
    return result.final_accuracy


def figure14_ssdc_series(epochs: int = 5, sample_every: int = 4,
                         seed: int = 3) -> Dict[str, List[float]]:
    """Figure 14: per-layer SSDC compression over training minibatches.

    Sample ``i`` of every series is minibatch ``i * sample_every``.  The
    study trains at ``lr`` 0.05, the rate its claims' bands were set at.
    """
    from repro.core import STASH_RELU_CONV, classify_all_stashes
    from repro.train import feature_map_elements

    graph, result = scaled_study("gist-lossless", epochs, lr=0.05,
                                 seed=seed, sparsity_every=sample_every)
    layers = [
        graph.node(nid).name
        for nid, info in classify_all_stashes(graph).items()
        if info.stash_class == STASH_RELU_CONV
        and graph.node(nid).kind == "relu"
    ]
    elements = feature_map_elements(graph)
    series: Dict[str, List[float]] = {name: [] for name in layers}
    for sample in result.sparsity_samples:
        ratios = sample.compression_ratios(elements)
        for name in layers:
            series[name].append(ratios[name])
    return series


def _figure17_row(name: str, batch_size: int) -> dict:
    """Figure 17: MFR under the dynamic allocation arms."""
    from repro.core import footprint_bytes

    graph = build_model(name, batch_size=batch_size)
    cfg = GistConfig.for_network(name)
    static_base = footprint_bytes(graph, None)
    return {
        "network": name,
        "dynamic": static_base / footprint_bytes(graph, None, dynamic=True),
        "dynamic_lossless": static_base / footprint_bytes(
            graph, GistConfig.lossless(), dynamic=True),
        "dynamic_full": static_base / footprint_bytes(
            graph, cfg, dynamic=True),
        "dynamic_optimized": static_base / footprint_bytes(
            graph, cfg.with_(optimized_software=True), dynamic=True),
    }


def _breakdown_entry(name: str, batch_size: int) -> Dict[str, int]:
    """Figure 1: full per-class byte breakdown (weights and workspace in)."""
    graph = build_model(name, batch_size=batch_size)
    plan = build_memory_plan(graph, include_weights=True,
                             include_workspace=True)
    return plan.bytes_by_class()


def _figure2_rows(name: str, batch_size: int) -> List[dict]:
    """Figure 2: live fraction of the step per encoded ReLU map."""
    graph = build_model(name, batch_size=batch_size)
    baseline = build_memory_plan(graph)
    gist = build_gist_plan(graph, GistConfig.for_network(name))
    steps = baseline.schedule.num_steps
    base_fm = {t.node_id: t for t in baseline.tensors
               if t.role == ROLE_FEATURE_MAP}
    gist_fm = {t.node_id: t for t in gist.plan.tensors
               if t.role == ROLE_FEATURE_MAP
               and not t.spec.name.endswith(".dec")}
    gist_enc = {t.node_id: t for t in gist.plan.tensors
                if t.role == ROLE_ENCODED}
    rows = []
    for node_id, decision in sorted(gist.decisions.items()):
        fp32, enc = gist_fm.get(node_id), gist_enc.get(node_id)
        if not decision.node_name.startswith("relu") or fp32 is None \
                or enc is None:
            continue
        base = base_fm[node_id]
        rows.append({
            "relu": decision.node_name,
            "encoding": decision.encoding,
            "baseline_live": (base.death - base.birth + 1) / steps,
            "gist_fp32_live": (fp32.death - fp32.birth + 1) / steps,
            "encoded_live": (enc.death - enc.birth + 1) / steps,
        })
    return rows


#: Figure 10's bars in plot order: arm -> config (investigation baseline).
FIGURE10_ARMS: Dict[str, GistConfig] = {
    "baseline": GistConfig.disabled(),
    "ssdc": GistConfig.ssdc_only(),
    "binarize": GistConfig.binarize_only(),
    "both": GistConfig.lossless(inplace=False),
    "both_inplace": GistConfig.lossless(),
}


def _figure10_arms(name: str, batch_size: int) -> Dict[str, dict]:
    """Figure 10: region bytes and total MFR per lossless arm."""
    graph = build_model(name, batch_size=batch_size)
    alloc = StaticAllocator()
    base_bytes = alloc.allocate(
        build_memory_plan(graph, investigation=True).tensors).total_bytes
    arms = {}
    for arm, config in FIGURE10_ARMS.items():
        gist = build_gist_plan(graph, config, investigation=True)
        arms[arm] = dict(
            gist.raw_region_bytes(),
            mfr=base_bytes / alloc.allocate(gist.plan.tensors).total_bytes,
        )
    return arms


def _figure11_row(name: str, batch_size: int) -> dict:
    """Figure 11: each lossless encoding's step-time delta, as a fraction
    of the baseline step (Figure 9's ``lossless_overhead`` is the sum)."""
    graph = build_model(name, batch_size=batch_size)
    cost = CostModel()
    base_s = cost.step_time(graph).total_s
    deltas = encoding_time_delta(
        build_gist_plan(graph, GistConfig.lossless()), cost)
    return {"binarize_overhead": deltas[ENC_BINARIZE] / base_s,
            "ssdc_overhead": deltas[ENC_SSDC] / base_s}


def _stashed_and_immediate(plan) -> tuple:
    stashed = immediate = 0
    for t in plan.tensors:
        if plan.classify(t) in (CLASS_STASHED, CLASS_ENCODED):
            stashed += t.size_bytes
        else:
            immediate += t.size_bytes
    return stashed, immediate


def _figure13_rows(name: str, batch_size: int) -> List[dict]:
    """Figure 13: DPR-FP16, then the smallest safe format if narrower."""
    graph = build_model(name, batch_size=batch_size)
    alloc = StaticAllocator()
    base_plan = build_memory_plan(graph, investigation=True)
    base_bytes = alloc.allocate(base_plan.tensors).total_bytes
    base_stashed, base_immediate = _stashed_and_immediate(base_plan)
    formats = ["fp16"]
    if PAPER_DPR_FORMATS.get(name, "fp16") != "fp16":
        formats.append(PAPER_DPR_FORMATS[name])
    rows = []
    for fmt in formats:
        gist = build_gist_plan(graph, GistConfig.dpr_only(fmt),
                               investigation=True)
        stashed, immediate = _stashed_and_immediate(gist.plan)
        rows.append({
            "format": fmt,
            "stashed_compression": base_stashed / stashed,
            "immediate_growth": immediate / base_immediate,
            "mfr": base_bytes / alloc.allocate(gist.plan.tensors).total_bytes,
        })
    return rows


def _table1_counts(name: str, batch_size: int) -> dict:
    """Table I: Schedule Builder decisions per (stash class, encoding)."""
    graph = build_model(name, batch_size=batch_size)
    decisions = {cls: {enc: 0 for enc in (ENC_BINARIZE, ENC_SSDC, ENC_DPR)}
                 for cls in STASH_CLASSES}
    for d in build_gist_plan(graph, GistConfig.for_network(name)) \
            .decisions.values():
        decisions[d.stash_class][d.encoding] += 1
    return {"decisions": decisions,
            "inplace_edges": len(inplace_eligible_edges(graph))}


def _allocator_policy_row(name: str, batch_size: int) -> dict:
    """Ablation: first fit and no sharing relative to greedy-by-size."""
    tensors = build_memory_plan(build_model(name,
                                            batch_size=batch_size)).tensors
    greedy, first_fit, none = (
        StaticAllocator(policy).allocate(tensors).total_bytes
        for policy in (POLICY_GREEDY_SIZE, POLICY_FIRST_FIT,
                       POLICY_NO_SHARING))
    return {"greedy_bytes": greedy, "first_fit_ratio": first_fit / greedy,
            "no_sharing_ratio": none / greedy}


#: Sparsities of the sparse-format ablation.
NARROW_CSR_SPARSITIES: Sequence[float] = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)


def _narrow_csr_ratios() -> Dict[str, dict]:
    """Ablation: compression over dense FP32 of 1-byte-index CSR, 4-byte
    index CSR and a bitmap, per sparsity (keyed ``str(sparsity)``)."""
    n = 1 << 22
    return {str(s): {"narrow_csr": 4 * n / csr_bytes(n, s, cols=256),
                     "wide_csr": 4 * n / csr_bytes(n, s, cols=1 << 20),
                     "bitmap": 4 * n / bitmap_bytes(n, s)}
            for s in NARROW_CSR_SPARSITIES}


def _pool_argmax_bytes(name: str, batch_size: int) -> dict:
    """Ablation: lossless footprint with and without the pool rewrite.

    Disabling Binarize also disables the rewrite: the pool stashes X and
    Y and ReLU-Pool maps stay FP32.
    """
    graph = build_model(name, batch_size=batch_size)
    alloc = StaticAllocator()
    with_rewrite, without = (
        alloc.allocate(build_gist_plan(graph, config).plan.tensors)
        .total_bytes
        for config in (GistConfig.lossless(),
                       GistConfig.lossless(binarize=False)))
    return {"with_rewrite_bytes": with_rewrite,
            "without_rewrite_bytes": without}


#: The paper's §II-B chain networks, where segment checkpointing applies.
CHAIN_NETWORKS: Sequence[str] = ("alexnet", "overfeat", "vgg16")


def _recompute_row(name: str, batch_size: int) -> dict:
    """§II-B: sqrt(N) segment checkpointing vs Gist, MFR and % overhead."""
    graph = build_model(name, batch_size=batch_size)
    alloc = StaticAllocator()
    base = alloc.allocate(build_memory_plan(graph).tensors).total_bytes
    recompute = build_recompute_plan(graph)
    cfg = GistConfig.for_network(name)
    return {
        "network": name,
        "recompute_mfr":
            base / alloc.allocate(recompute.plan.tensors).total_bytes,
        "recompute_overhead_pct": recompute.overhead_frac(graph) * 100,
        "gist_mfr": Gist(cfg).measure_mfr(graph).mfr,
        "gist_overhead_pct": measure_overhead(graph, cfg).overhead_frac * 100,
    }


#: The hybrid planner's minibatch (keeps the largest registry models
#: tractable) and step-time budget, as a fraction of the baseline step.
HYBRID_BATCH_SIZE = 32
HYBRID_BUDGET_FRAC = 0.15


def _hybrid_planner_row(name: str, batch_size: int,
                        budget_frac: float) -> dict:
    """The budgeted hybrid plan against its four pure arms.

    ``dominance_ok``: the hybrid footprint is at most the best pure
    arm's (the planner's argmin fallback makes it structural).
    ``budget_ok``: the selected cost fits the step-time budget.
    ``oracle_violations``: the plan-safety and shared-concat oracles.
    """
    from repro.core.policy import HybridPolicy, STRATEGY_HYBRID
    from repro.memory.hybrid import build_hybrid_plan
    from repro.verify import check_hybrid_plan, check_shared_concat

    hybrid = build_hybrid_plan(
        build_model(name, batch_size=batch_size),
        HybridPolicy(strategy=STRATEGY_HYBRID, cost_budget_frac=budget_frac),
    )
    violations = check_hybrid_plan(hybrid) + check_shared_concat(hybrid)
    row = {
        "model": name,
        "baseline_bytes": hybrid.baseline_allocated_bytes,
        "hybrid_bytes": hybrid.allocated_bytes,
        "pure_bytes": dict(sorted(hybrid.pure_footprints.items())),
        "fallback_strategy": hybrid.fallback_strategy,
        "decisions": len(hybrid.decisions),
        "overhead_frac": hybrid.overhead_frac,
        "budget_frac": budget_frac,
        "footprint_ratio": hybrid.footprint_ratio,
        "oracle_violations": [str(v) for v in violations],
        "dominance_ok":
            hybrid.allocated_bytes <= min(hybrid.pure_footprints.values()),
        "budget_ok": hybrid.total_cost_s
        <= hybrid.budget_s * (1 + 1e-9) + 1e-12,
    }
    row["ok"] = (row["dominance_ok"] and row["budget_ok"]
                 and not row["oracle_violations"])
    return row


#: Minibatch-scaling series on VGG16: full-Gist MFR per batch, and
#: lossless MFR per assumed ReLU sparsity at batch 32.
MINIBATCH_BATCHES: Sequence[int] = (16, 32, 64, 128)
ASSUMED_SPARSITIES: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9)


def _minibatch_series(series: str) -> Dict[str, float]:
    if series == "batch":
        gist = Gist(GistConfig.for_network("vgg16"))
        return {str(b): gist.measure_mfr(build_model("vgg16",
                                                     batch_size=b)).mfr
                for b in MINIBATCH_BATCHES}
    graph = build_model("vgg16", batch_size=32)
    return {str(s): Gist(GistConfig.lossless(),
                         ConstantSparsity(s)).measure_mfr(graph).mfr
            for s in ASSUMED_SPARSITIES}


# ----------------------------------------------------------------------
# Sweep work units: every driver above, enumerable and parallelisable.

#: payload["driver"] -> per-unit core.  Each core is a pure function of
#: its payload, so any worker process can run any unit.
_UNIT_RUNNERS: Dict[str, Callable[[dict], object]] = {
    "figure8_mfr": lambda p: _figure8_row(p["model"], p["batch_size"]),
    "figure3_stash_classes":
        lambda p: _figure3_bytes(p["model"], p["batch_size"]),
    "figure9_overheads": lambda p: _figure9_row(p["model"], p["batch_size"]),
    "figure12_accuracy":
        lambda p: _figure12_arm(p["arm"], p["epochs"], p["seed"]),
    "figure14_ssdc_series":
        lambda p: figure14_ssdc_series(p["epochs"], p["sample_every"],
                                       p["seed"]),
    "groupquant_width":
        lambda p: _groupquant_arm(p["arm"], p["epochs"], p["seed"]),
    "ablation_dpr_rounding":
        lambda p: _dpr_rounding_arm(p["arm"], p["epochs"], p["seed"]),
    "figure16_speedups":
        lambda p: _figure16_row(p["depth"], p["dpr_format"]),
    "figure17_dynamic":
        lambda p: _figure17_row(p["model"], p["batch_size"]),
    "baseline_memory_breakdown":
        lambda p: _breakdown_entry(p["model"], p["batch_size"]),
    "figure2_lifetime_gap":
        lambda p: _figure2_rows(p["model"], p["batch_size"]),
    "figure10_isolation":
        lambda p: _figure10_arms(p["model"], p["batch_size"]),
    "figure11_lossless_perf":
        lambda p: _figure11_row(p["model"], p["batch_size"]),
    "figure13_dpr_mfr":
        lambda p: _figure13_rows(p["model"], p["batch_size"]),
    "table1_techniques":
        lambda p: _table1_counts(p["model"], p["batch_size"]),
    "ablation_allocator_policy":
        lambda p: _allocator_policy_row(p["model"], p["batch_size"]),
    "ablation_narrow_csr": lambda p: _narrow_csr_ratios(),
    "ablation_pool_argmax":
        lambda p: _pool_argmax_bytes(p["model"], p["batch_size"]),
    "minibatch_scaling": lambda p: _minibatch_series(p["series"]),
    "recompute_baseline":
        lambda p: _recompute_row(p["model"], p["batch_size"]),
    "hybrid_planner":
        lambda p: _hybrid_planner_row(p["model"], p["batch_size"],
                                      p["budget_frac"]),
}


def run_sweep_unit(payload: dict):
    """Work-unit executor for kind ``experiment`` (runs in any process)."""
    try:
        runner = _UNIT_RUNNERS[payload["driver"]]
    except KeyError:
        raise KeyError(
            f"unknown sweep driver {payload.get('driver')!r}; known: "
            f"{sorted(_UNIT_RUNNERS)}"
        ) from None
    return runner(payload)


@dataclass(frozen=True)
class SweepDriver:
    """How one figure driver shards into work units and merges back.

    Attributes:
        name: Driver name (its key under the sweep output's ``figures``).
        enumerate_units: ``(models, batch_size) -> [WorkUnit]`` in the
            driver's canonical order.
        merge: ``(units, values) -> object`` assembling the figure's
            entry from per-unit results *in unit order*
            (order-independent of how the pool completed them).
    """

    name: str
    enumerate_units: Callable[[Optional[Sequence[str]], int],
                              List[WorkUnit]]
    merge: Callable[[Sequence[WorkUnit], Sequence[object]], object]


def _per_model_units(driver: str):
    def enumerate_units(models, batch_size):
        return [
            WorkUnit("experiment", f"{driver}:{name}",
                     {"driver": driver, "model": name,
                      "batch_size": int(batch_size)})
            for name in models or PAPER_SUITE
        ]
    return enumerate_units


def _fixed_units(driver: str, names: Sequence[str]):
    """Per-model units on a fixed network list, whatever ``models`` says
    (VGG16 for Fig 2 and the ablations, the chain networks for §II-B)."""
    per_model = _per_model_units(driver)
    return lambda models, batch_size: per_model(names, batch_size)


def _arm_units(driver: str, arms: Sequence[str], **payload):
    """One training unit per arm of a study, whatever ``models`` says
    (every study trains the scaled substitution workload)."""
    return lambda models, batch_size: [
        WorkUnit("experiment", f"{driver}:{arm}",
                 {"driver": driver, "arm": arm, **payload})
        for arm in arms
    ]


def _by_model(units, values):
    return {u.payload["model"]: v for u, v in zip(units, values)}


def _by_arm(units, values):
    return {u.payload["arm"]: v for u, v in zip(units, values)}


def _single(units, values):
    return values[0] if values else None


#: Every driver, in ``BENCH_figures.json`` order, and what ``repro sweep``
#: runs by default: the checked-in file is ``repro sweep --out
#: BENCH_figures.json``, and ``tests/test_paper_claims.py`` checks it.
SWEEP_DRIVERS: Dict[str, SweepDriver] = {d.name: d for d in (
    SweepDriver("baseline_memory_breakdown",
                _per_model_units("baseline_memory_breakdown"), _by_model),
    SweepDriver("figure3_stash_classes",
                _per_model_units("figure3_stash_classes"), _by_model),
    SweepDriver("figure8_mfr", _per_model_units("figure8_mfr"),
                lambda units, values: list(values)),
    SweepDriver("figure9_overheads", _per_model_units("figure9_overheads"),
                lambda units, values: list(values)),
    SweepDriver("figure12_accuracy",
                _arm_units("figure12_accuracy", list(FIGURE12_ARMS),
                           epochs=6, seed=3),
                _by_arm),
    SweepDriver("figure14_ssdc_series",
                lambda models, batch_size: [
                    WorkUnit("experiment", "figure14_ssdc_series",
                             {"driver": "figure14_ssdc_series", "epochs": 5,
                              "sample_every": 4, "seed": 3})
                ],
                _single),
    SweepDriver("figure16_speedups",
                lambda models, batch_size: [
                    WorkUnit("experiment", f"figure16_speedups:{depth}",
                             {"driver": "figure16_speedups",
                              "depth": int(depth), "dpr_format": "fp10"})
                    for depth in FIGURE16_DEPTHS
                ],
                lambda units, values: list(values)),
    SweepDriver("figure17_dynamic", _per_model_units("figure17_dynamic"),
                lambda units, values: list(values)),
    SweepDriver("figure2_lifetime_gap",
                _fixed_units("figure2_lifetime_gap", ["vgg16"]), _single),
    SweepDriver("figure10_isolation", _per_model_units("figure10_isolation"),
                _by_model),
    SweepDriver("figure11_lossless_perf",
                _per_model_units("figure11_lossless_perf"), _by_model),
    SweepDriver("figure13_dpr_mfr", _per_model_units("figure13_dpr_mfr"),
                _by_model),
    SweepDriver("table1_techniques", _per_model_units("table1_techniques"),
                _by_model),
    SweepDriver("ablation_allocator_policy",
                _per_model_units("ablation_allocator_policy"), _by_model),
    SweepDriver("ablation_narrow_csr",
                lambda models, batch_size: [
                    WorkUnit("experiment", "ablation_narrow_csr",
                             {"driver": "ablation_narrow_csr"})
                ],
                _single),
    SweepDriver("ablation_pool_argmax",
                _fixed_units("ablation_pool_argmax", ["vgg16"]), _single),
    SweepDriver("ablation_dpr_rounding",
                _arm_units("ablation_dpr_rounding", DPR_ROUNDINGS,
                           epochs=5, seed=3),
                _by_arm),
    SweepDriver("minibatch_scaling",
                lambda models, batch_size: [
                    WorkUnit("experiment", f"minibatch_scaling:{series}",
                             {"driver": "minibatch_scaling",
                              "series": series})
                    for series in ("batch", "assumed_sparsity")
                ],
                lambda units, values: {u.payload["series"]: v
                                       for u, v in zip(units, values)}),
    SweepDriver("groupquant_width",
                _arm_units("groupquant_width", GROUPQUANT_ARMS,
                           epochs=5, seed=3),
                _by_arm),
    SweepDriver("hybrid_planner",
                lambda models, batch_size: [
                    WorkUnit("experiment", f"hybrid_planner:{name}",
                             {"driver": "hybrid_planner", "model": name,
                              "batch_size": HYBRID_BATCH_SIZE,
                              "budget_frac": HYBRID_BUDGET_FRAC})
                    for name in available_models()
                ],
                lambda units, values: {"batch_size": HYBRID_BATCH_SIZE,
                                       "budget_frac": HYBRID_BUDGET_FRAC,
                                       "models": list(values)}),
    SweepDriver("recompute_baseline",
                _fixed_units("recompute_baseline", CHAIN_NETWORKS),
                lambda units, values: list(values)),
)}

def run_sweep(
    drivers: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    batch_size: int = 64,
    workers: int = 1,
    journal=None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
) -> dict:
    """Run figure drivers as parallel work units; merge deterministically.

    ``drivers=None`` runs every driver of :data:`SWEEP_DRIVERS`.
    Returns a JSON-serialisable mapping with one merged entry per driver
    under ``"figures"`` plus a ``"failed_units"`` list (payload + error
    for every unit that could not be computed).  The output is a pure
    function of the unit results: byte-identical for any ``workers``
    count, and resumable via ``journal`` (completed units are replayed
    from disk, only missing ones re-run).
    """
    names = list(drivers) if drivers is not None else list(SWEEP_DRIVERS)
    unknown = [n for n in names if n not in SWEEP_DRIVERS]
    if unknown:
        raise KeyError(f"unknown sweep drivers {unknown}; known: "
                       f"{sorted(SWEEP_DRIVERS)}")
    spans = [(name, SWEEP_DRIVERS[name].enumerate_units(models, batch_size))
             for name in names]
    all_units = [unit for _, units in spans for unit in units]
    results = run_units(all_units, workers=workers, timeout_s=timeout_s,
                        retries=retries, journal=journal)

    figures: Dict[str, object] = {}
    failed: List[dict] = []
    for name, units in spans:
        done = []
        for unit in units:
            result = results.get(unit.key)
            if result is not None and result.ok:
                done.append((unit, result.value))
            else:
                failed.append({
                    "key": unit.key,
                    "payload": unit.payload,
                    "error": (None if result is None else
                              {"type": result.error["type"],
                               "message": result.error["message"]}),
                    "attempts": 0 if result is None else result.attempts,
                })
        figures[name] = SWEEP_DRIVERS[name].merge(
            [u for u, _ in done], [v for _, v in done])
    return {
        "batch_size": int(batch_size),
        "drivers": names,
        "models": list(models or PAPER_SUITE),
        "figures": figures,
        "failed_units": failed,
        "ok": not failed,
    }
