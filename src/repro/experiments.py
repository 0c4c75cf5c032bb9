"""One-call drivers for the paper's experiments.

These are the only code that computes a row of the paper's static
figures (1, 3, 8, 9, 15, 16 and 17): the benchmark harness
(``benchmarks/``) asserts its shape claims on these rows, and
``BENCH_figures.json`` is their checked-in ``repro sweep`` output.  Every
function returns ordinary dicts/lists of built-in types — directly
serialisable, directly plottable.

Static analyses accept any registered model name; training studies run on
the scaled substitution workload (see DESIGN.md §2) and are configurable.

Each driver is decomposed into payload-complete per-unit cores (one
model, one arm, one depth), so ``repro sweep`` can shard a whole figure
suite across worker processes (:mod:`repro.orchestrate`) and reassemble
exactly what the one-call driver would have returned: the public
functions below are thin loops over the same cores the sweep units run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import Gist, GistConfig, stash_bytes_by_class
from repro.memory import build_memory_plan
from repro.models import PAPER_SUITE, build_model
from repro.orchestrate import WorkUnit, run_units
from repro.perf import (
    larger_minibatch_speedup,
    measure_overhead,
    measure_transfer_energy,
    simulate_cdma,
    simulate_swapping,
)


def _figure8_row(name: str, batch_size: int) -> dict:
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


def figure8_mfr(models: Optional[Sequence[str]] = None,
                batch_size: int = 64) -> List[dict]:
    """Figure 8: per-network lossless and lossless+lossy MFR."""
    return [_figure8_row(name, batch_size) for name in models or PAPER_SUITE]


def _figure3_bytes(name: str, batch_size: int) -> Dict[str, int]:
    return stash_bytes_by_class(build_model(name, batch_size=batch_size))


def figure3_stash_classes(models: Optional[Sequence[str]] = None,
                          batch_size: int = 64) -> Dict[str, Dict[str, int]]:
    """Figure 3: per-network raw FP32 bytes of stashed maps per class.

    A bar's fraction is a class's bytes over the network's sum.
    """
    return {name: _figure3_bytes(name, batch_size)
            for name in models or PAPER_SUITE}


def _figure9_row(name: str, batch_size: int) -> dict:
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


def figure9_overheads(models: Optional[Sequence[str]] = None,
                      batch_size: int = 64) -> List[dict]:
    """Figure 9 + 15 + energy: performance/energy cost per strategy."""
    return [_figure9_row(name, batch_size) for name in models or PAPER_SUITE]


#: Figure 16's deep CIFAR ResNet depths (the paper's Table III picks).
FIGURE16_DEPTHS: Sequence[int] = (509, 851, 1202)


def _figure16_row(depth: int, dpr_format: str, device=None) -> dict:
    from repro.models import resnet_cifar
    from repro.perf import TITAN_X_MAXWELL

    config = GistConfig.full(dpr_format)
    report = larger_minibatch_speedup(
        lambda b, d=depth: resnet_cifar(d, batch_size=b),
        config,
        device=device or TITAN_X_MAXWELL,
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


def figure16_speedups(depths: Sequence[int] = FIGURE16_DEPTHS,
                      dpr_format: str = "fp10",
                      device=None) -> List[dict]:
    """Figure 16: larger-minibatch speedups for deep CIFAR ResNets."""
    return [_figure16_row(depth, dpr_format, device) for depth in depths]


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
    _, result = scaled_study(FIGURE12_ARMS[label], epochs, seed=seed)
    return result.accuracy_loss_curve


def figure12_accuracy(epochs: int = 6, seed: int = 3) -> Dict[str, List[float]]:
    """Figure 12: accuracy-loss curves per stash policy (scaled workload).

    Returns ``paper label -> per-epoch accuracy-loss``.
    """
    return {label: _figure12_arm(label, epochs, seed)
            for label in FIGURE12_ARMS}


def figure14_ssdc_series(epochs: int = 3, sample_every: int = 4,
                         seed: int = 3,
                         lr: float = 0.01) -> Dict[str, List[float]]:
    """Figure 14: per-layer SSDC compression over training minibatches.

    Sample ``i`` of every series is minibatch ``i * sample_every``.
    """
    from repro.core import STASH_RELU_CONV, classify_all_stashes
    from repro.train import feature_map_elements

    graph, result = scaled_study("gist-lossless", epochs, lr=lr, seed=seed,
                                 sparsity_every=sample_every)
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


def figure17_dynamic(models: Optional[Sequence[str]] = None,
                     batch_size: int = 64) -> List[dict]:
    """Figure 17: MFR under dynamic allocation arms."""
    return [_figure17_row(name, batch_size) for name in models or PAPER_SUITE]


def _breakdown_entry(name: str, batch_size: int) -> Dict[str, int]:
    graph = build_model(name, batch_size=batch_size)
    plan = build_memory_plan(graph, include_weights=True,
                             include_workspace=True)
    return plan.bytes_by_class()


def baseline_memory_breakdown(models: Optional[Sequence[str]] = None,
                              batch_size: int = 64) -> Dict[str, Dict[str, int]]:
    """Figure 1: full per-class byte breakdown (weights and workspace in)."""
    return {name: _breakdown_entry(name, batch_size)
            for name in models or PAPER_SUITE}


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
    "figure16_speedups":
        lambda p: _figure16_row(p["depth"], p["dpr_format"]),
    "figure17_dynamic":
        lambda p: _figure17_row(p["model"], p["batch_size"]),
    "baseline_memory_breakdown":
        lambda p: _breakdown_entry(p["model"], p["batch_size"]),
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
        name: Driver name (the ``experiments`` function it mirrors).
        enumerate_units: ``(models, batch_size) -> [WorkUnit]`` in the
            driver's canonical order.
        merge: ``(units, values) -> object`` reassembling the one-call
            driver's return value from per-unit results *in unit order*
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


def _by_model(units, values):
    return {u.payload["model"]: v for u, v in zip(units, values)}


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
                lambda models, batch_size: [
                    WorkUnit("experiment", f"figure12_accuracy:{arm}",
                             {"driver": "figure12_accuracy", "arm": arm,
                              "epochs": 6, "seed": 3})
                    for arm in FIGURE12_ARMS
                ],
                lambda units, values: {u.payload["arm"]: v
                                       for u, v in zip(units, values)}),
    SweepDriver("figure14_ssdc_series",
                lambda models, batch_size: [
                    WorkUnit("experiment", "figure14_ssdc_series",
                             {"driver": "figure14_ssdc_series", "epochs": 3,
                              "sample_every": 4, "seed": 3})
                ],
                lambda units, values: values[0] if values else None),
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
)}

#: The cheap static-analysis drivers ``repro sweep`` runs by default
#: (the training studies are opt-in: they dominate wall-clock).
DEFAULT_SWEEP_DRIVERS: Sequence[str] = (
    "baseline_memory_breakdown",
    "figure3_stash_classes",
    "figure8_mfr",
    "figure9_overheads",
    "figure17_dynamic",
)


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

    Returns a JSON-serialisable mapping with one merged entry per driver
    under ``"figures"`` plus a ``"failed_units"`` list (payload + error
    for every unit that could not be computed).  The output is a pure
    function of the unit results: byte-identical for any ``workers``
    count, and resumable via ``journal`` (completed units are replayed
    from disk, only missing ones re-run).
    """
    names = list(drivers) if drivers is not None \
        else list(DEFAULT_SWEEP_DRIVERS)
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
