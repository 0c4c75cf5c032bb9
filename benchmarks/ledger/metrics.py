"""The ledger's declarations: workloads, end-to-end and per-layer metrics.

This module is the single source the rest of the benchmark reads:
``run.py`` emits exactly these names, ``compare.py`` applies these bounds,
and ``BENCHMARK.json`` at the repo root is ``benchmark_json()`` written to
disk (``tests/test_schema.py`` holds the two equal).  It imports nothing
from ``repro`` so the schema tests and ``compare.py`` run without it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: Seconds one driver run measures.  Op counts are ``BASE_OPS`` scaled by
#: ``seconds / RUN_SECONDS`` (the one recorded scale factor), so a given
#: ``--seconds`` fixes the counts on every commit.
RUN_SECONDS = 10

TRAIN_WORKLOADS = ("vgg_gist", "vgg_baseline", "densenet_hybrid")


class Workload(NamedTuple):
    name: str
    why: str
    #: Timed ops at ``RUN_SECONDS``.  An op is a training step, a planning
    #: pass over nine models, or a fuzz pass over ten corpus graphs: ops of
    #: one workload all do the same work, so the lower quartile over ops of
    #: each unit of it (the step; each model; each graph) is a fair estimate
    #: of any of them.
    base_ops: int
    #: Floor the scale factor may not push the timed count below.
    min_ops: int
    warmup_ops: int
    #: Ops in each half (untraced reference, traced) of a ``--trace 1`` run.
    trace_ops: int


WORKLOADS: List[Workload] = [
    Workload(
        "vgg_gist",
        "scaled VGG under GistPolicy: Binarize+SSDC+DPR run every step "
        "(~25% of it), so codec and stash-path work shows here",
        base_ops=160, min_ops=60, warmup_ops=5, trace_ops=40),
    Workload(
        "vgg_baseline",
        "same model, data and steps under BaselinePolicy: codecs idle, conv "
        "kernels ~80% of the step; bypass for codec work, exercise for "
        "kernels",
        base_ops=160, min_ops=60, warmup_ops=5, trace_ops=40),
    Workload(
        "densenet_hybrid",
        "DenseNet under a hybrid plan: recompute replay, shared-concat "
        "re-slice and host swap instead of codecs, and a planner call in "
        "setup_s",
        base_ops=80, min_ops=60, warmup_ops=5, trace_ops=40),
    Workload(
        "plan_suite",
        "plans nine registry graphs (22-517 nodes) per pass and touches no "
        "tensor: prices graph/core/memory/perf/rewrite, kernel work must not "
        "move it",
        base_ops=20, min_ops=10, warmup_ops=2, trace_ops=10),
    Workload(
        "verify_fuzz",
        "serial oracle battery over a fixed ten-graph fuzz corpus per pass: "
        "many tiny graphs, adversarial values; shows optimisations tuned to "
        "big regular shapes that slow small ones",
        base_ops=10, min_ops=5, warmup_ops=1, trace_ops=3),
]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "process start to first timed op at reference host speed: "
             "imports (once) + the fastest of three cold builds (model, "
             "plan, policy, executor, data, warm-up incl. autotune probes "
             "and plan-cache fills), each over the host-speed probe's "
             "slowdown around it"),
    EndToEnd("op_ms", "ms", "lower", 0.25,
             "wall time of one op, tracing off (a training step: batch fetch "
             "+ forward + backward + SGD.step; a nine-model planning pass; "
             "a ten-seed oracle-battery pass) at reference host speed: "
             "every unit of an op (the step; each model; each graph) over "
             "the host-speed probe's slowdown around it, lower quartile "
             "over all ops per kind of unit, summed over the kinds"),
    EndToEnd("footprint_mib", "MiB", "lower", 0.01,
             "the memory half, on a fixed reference input so it repeats "
             "exactly: measured stash bytes of one forward pass of a seed-0 "
             "executor (train), or static-allocator bytes of every gist "
             "plan built (plan_suite, verify_fuzz)"),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metric this layer metric is predicted to move ...
    moves: str
    #: ... and the workloads on which it should (no change elsewhere).
    on: Tuple[str, ...]


_TRAIN = TRAIN_WORKLOADS
_CODEC = ("vgg_gist", "densenet_hybrid")
_PLAN = ("plan_suite",)
_PLANNERS = ("plan_suite", "densenet_hybrid", "verify_fuzz")
_FUZZ = ("verify_fuzz",)
_ALL = tuple(w.name for w in WORKLOADS)

_NODE_KINDS = ("conv", "relu", "maxpool", "dense", "concat", "avgpool",
               "other")
_CODECS = ("binarize", "ssdc", "dpr", "identity", "hostswap")
_ARMS = ("reference", "numpy-plan", "blas-fat", "blas-chunk", "threaded",
         "reduce")
_CHOICES = ("gist", "recompute", "swap", "shared_concat", "keep")


def _per_layer() -> List[PerLayer]:
    ms, low, high = "ms", "lower", "higher"
    out = [
        PerLayer("train.forward_ms", ms, low, "op_ms", _TRAIN),
        PerLayer("train.backward_ms", ms, low, "op_ms", _TRAIN),
        PerLayer("train.optimizer_ms", ms, low, "op_ms", _TRAIN),
        PerLayer("train.data_ms", ms, low, "op_ms", _TRAIN),
        PerLayer("train.executor_self_ms", ms, low, "op_ms", _TRAIN),
        PerLayer("train.step_p50_ms", ms, low, "op_ms", _TRAIN),
        PerLayer("train.step_p90_ms", ms, low, "op_ms", _TRAIN),
        PerLayer("train.residual_pct", "%", low, "op_ms", _TRAIN),
    ]
    for kind in _NODE_KINDS:
        for phase in ("forward", "backward"):
            out.append(PerLayer(f"layers.{kind}.{phase}_ms", ms, low,
                                "op_ms", _TRAIN))
    out += [
        PerLayer("kernels.arena.pooled_mib", "MiB", low, "op_ms",
                 _TRAIN),
        PerLayer("kernels.arena.hit_ratio", "ratio", high, "op_ms",
                 _TRAIN),
        PerLayer("kernels.plan_cache.misses", "count", low, "setup_s",
                 _TRAIN),
        PerLayer("kernels.first_step_ms", ms, low, "setup_s", _TRAIN),
    ]
    out += [PerLayer(f"kernels.autotune.picks.{arm}", "count", high,
                     "op_ms", _TRAIN) for arm in _ARMS]
    for codec in _CODECS:
        for phase in ("encode", "decode"):
            out.append(PerLayer(f"encodings.{codec}.{phase}_ms", ms, low,
                                "op_ms", _CODEC))
    out += [PerLayer(f"encodings.{codec}.ratio", "ratio", high,
                     "footprint_mib", _CODEC)
            for codec in ("binarize", "ssdc", "dpr")]
    out += [
        PerLayer("encodings.raw_mib", "MiB", low, "footprint_mib", _CODEC),
        PerLayer("encodings.encoded_mib", "MiB", low, "footprint_mib",
                 _CODEC),
        PerLayer("encodings.ssdc.input_sparsity", "ratio", high,
                 "footprint_mib", ("vgg_gist",)),
        PerLayer("memory.recompute.replay_ms", ms, low, "op_ms",
                 ("densenet_hybrid",)),
        PerLayer("memory.shared_concat.slice_ms", ms, low, "op_ms",
                 ("densenet_hybrid",)),
        PerLayer("models.build_ms", ms, low, "op_ms", _PLANNERS),
        PerLayer("rewrite.apply_ms", ms, low, "op_ms", _PLAN),
        PerLayer("rewrite.changes", "count", high, "op_ms", _PLAN),
        PerLayer("graph.schedule_ms", ms, low, "op_ms", _PLAN),
        PerLayer("graph.fingerprint_ms", ms, low, "op_ms", _PLAN),
        PerLayer("memory.planner.build_ms", ms, low, "op_ms", _PLAN),
        PerLayer("core.schedule_builder.build_ms", ms, low, "op_ms",
                 _PLAN),
        PerLayer("core.mfr_geomean", "ratio", high, "footprint_mib", _PLAN),
        PerLayer("memory.allocator.allocate_ms", ms, low, "op_ms",
                 _PLAN),
        PerLayer("memory.hybrid.build_ms", ms, low, "op_ms", _PLANNERS),
        PerLayer("memory.hybrid.resnet152_ms", ms, low, "op_ms", _PLAN),
        PerLayer("memory.hybrid.ratio_geomean", "ratio", high,
                 "footprint_mib", _PLAN),
    ]
    out += [PerLayer(f"memory.hybrid.decisions.{choice}", "count",
                     low if choice == "keep" else high, "footprint_mib",
                     ("plan_suite", "densenet_hybrid"))
            for choice in _CHOICES]
    out += [
        PerLayer("perf.overhead_ms", ms, low, "op_ms", _PLAN),
        PerLayer("verify.fuzzer.gen_ms", ms, low, "op_ms", _FUZZ),
        PerLayer("verify.graph_ms", ms, low, "op_ms", _FUZZ),
        PerLayer("verify.encodings_ms", ms, low, "op_ms", _FUZZ),
        PerLayer("verify.backends_ms", ms, low, "op_ms", _FUZZ),
        PerLayer("verify.distributed_ms", ms, low, "op_ms", _FUZZ),
        PerLayer("verify.rewrite_equivalence_ms", ms, low, "op_ms",
                 _FUZZ),
        PerLayer("verify.nodes_per_graph", "count", high, "op_ms",
                 _FUZZ),
        PerLayer("verify.violations", "count", low, "op_ms", _FUZZ),
        PerLayer("diagnostics.tracer.overhead_pct", "%", low, "op_ms",
                 _ALL),
        PerLayer("diagnostics.host_slowdown", "ratio", low, "op_ms", _ALL),
        PerLayer("diagnostics.peak_rss_mib", "MiB", low, "footprint_mib",
                 _ALL),
    ]
    return out


PER_LAYER: List[PerLayer] = _per_layer()

#: plan_suite's stages, in call order; ``<stage>_ms`` is its per-layer row.
PLAN_STAGES = ("models.build", "rewrite.apply", "graph.schedule",
               "memory.planner.build", "core.schedule_builder.build",
               "memory.allocator.allocate", "memory.hybrid.build",
               "perf.overhead", "graph.fingerprint")
#: Per-layer values that repeat exactly on one commit whatever the host
#: does; ``compare.py`` requires them unchanged.
EXACT_PER_LAYER = tuple(f"memory.hybrid.decisions.{c}" for c in _CHOICES) + (
    "rewrite.changes", "core.mfr_geomean", "memory.hybrid.ratio_geomean",
    "verify.violations")
NODE_KINDS = _NODE_KINDS
CODECS = _CODECS
AUTOTUNE_ARMS = _ARMS
HYBRID_CHOICES = _CHOICES


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; "
                   f"known: {[w.name for w in WORKLOADS]}")


def op_counts(w: Workload, seconds: float, smoke: bool) -> Dict[str, int]:
    """Timed / warm-up / traced op counts for one run.

    The counts are a pure function of ``--seconds`` (never of measured
    speed), so every commit runs the same ops.  ``--smoke`` swaps in tiny
    fixed counts for the test suite.
    """
    if smoke:
        return {"timed": 2, "warmup": 1, "trace": 1}
    scale = seconds / RUN_SECONDS
    return {
        "timed": max(w.min_ops, round(w.base_ops * scale)),
        "warmup": w.warmup_ops,
        "trace": w.trace_ops,
    }


def benchmark_json() -> dict:
    """The contents of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(benchmark_json(), indent=2))
