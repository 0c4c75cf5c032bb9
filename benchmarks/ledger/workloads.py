"""The five ledger workloads.

Each workload measures its layers from outside: it only calls public
``repro`` functions and wraps them in spans (``self.span`` is a no-op
unless a traced pass is running).  One object serves one run:

* ``setup()`` builds everything up to the first timed op (warm-up
  included) and may be called again for another cold sample;
* ``op(i)`` is the closed-loop work that gets timed; it wraps each unit
  of it (the step; each model; each graph) in ``self.unit(kind)``, a no-op
  unless ``run.py`` has put a ``UnitTimer`` there;
* ``footprint_mib()`` and ``check()`` run after the timed loop, outside
  every metric; ``check()`` returns ``(name, ok, detail)`` rows;
* ``begin_trace()`` / ``layer_metrics()`` bracket the traced pass.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
from collections import Counter
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from attribution import (
    Spans,
    median_by_key,
    normalise_encoding,
    null_span,
    percentile,
    self_times,
    step_breakdown,
)
from metrics import (
    AUTOTUNE_ARMS,
    CODECS,
    HYBRID_CHOICES,
    NODE_KINDS,
    Workload,
)
from repro.core.gist import Gist
from repro.core.policy import GistConfig, HybridPolicy
from repro.core.schedule_builder import build_gist_plan
from repro.diagnostics import StepTracer
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.schedule import TrainingSchedule
from repro.kernels import (
    autotune_report,
    clear_plan_cache,
    clear_selection_cache,
    plan_cache_stats,
)
from repro.memory.allocator import StaticAllocator
from repro.memory.hybrid import build_hybrid_plan
from repro.memory.planner import build_memory_plan
from repro.models import build_model
from repro.perf.overhead import measure_overhead
from repro.rewrite import apply_passes, check_rewrite_equivalence
from repro.train import (
    SGD,
    BaselinePolicy,
    GistPolicy,
    GraphExecutor,
    HybridExecutionPolicy,
)
from repro.train.data import make_synthetic_for, minibatches
from repro.verify import (
    DEFAULT_MAX_OPS,
    GraphFuzzer,
    check_distributed,
    check_hybrid_plan,
    check_plan_safety,
    check_shared_concat,
    verify_backends,
    verify_encodings,
    verify_graph,
)

Check = Tuple[str, bool, str]
MIB = float(2 ** 20)


class _Base:
    def __init__(self, spec: Workload, seed: int, counts: Dict[str, int]):
        self.spec = spec
        self.seed = seed
        self.counts = counts
        self.span = null_span
        self.unit = null_span

    def cold_setup(self) -> float:
        """Seconds ``setup()`` takes from empty kernel caches: as cold as
        a fresh process, imports aside."""
        gc.collect()
        t0 = perf_counter()
        clear_plan_cache()
        clear_selection_cache()
        self.setup()
        return perf_counter() - t0

    def begin_trace(self, spans: Spans) -> None:
        self.span = spans.span

    def end_trace(self) -> None:
        self.span = null_span

    def trace_events(self) -> List[dict]:
        """Rows for the trace file beyond the spans (none by default)."""
        return []


# ----------------------------------------------------------------------
# vgg_gist / vgg_baseline / densenet_hybrid
# ----------------------------------------------------------------------
_TRAIN_CONFIGS = {
    "vgg_gist": ("scaled_vgg", "gist"),
    "vgg_baseline": ("scaled_vgg", "baseline"),
    "densenet_hybrid": ("densenet", "hybrid"),
}
#: Batch 16: a cold first step (autotune probes on fresh pages) costs
#: 5-15 s at batch 32 on the reference host, and setup is sampled three
#: times per run inside the driver's ~30 s per-run budget.
_BATCH = 16
#: SGD(0.002, 0.9): at batch 16 the issue's lr 0.01 diverges to NaN within
#: 165 steps on seeds 7, 9 and 11 (seed 11 under the baseline policy too),
#: and a workload must not fail on any seed; 0.002 trains all of seeds 0-19.
_LR, _MOMENTUM, _SAMPLES = 0.002, 0.9, 512

#: Per-layer rows that partition a training step (their sum is checked
#: against the step span; the forward/backward spans are their parents).
STEP_PARTS = (
    ["train.data_ms", "train.optimizer_ms", "train.executor_self_ms",
     "memory.recompute.replay_ms", "memory.shared_concat.slice_ms"]
    + [f"layers.{k}.{p}_ms" for k in NODE_KINDS
       for p in ("forward", "backward")]
    + [f"encodings.{c}.{p}_ms" for c in CODECS for p in ("encode", "decode")]
)
RESIDUAL_LIMIT_PCT = 5.0


def _bit_identical(a, b) -> bool:
    """Two ``[(loss, grads)]`` runs match in every loss and gradient."""
    if len(a) != len(b):
        return False
    for (loss_a, grads_a), (loss_b, grads_b) in zip(a, b):
        if loss_a != loss_b or grads_a.keys() != grads_b.keys():
            return False
        if any(not np.array_equal(grads_a[k], grads_b[k]) for k in grads_a):
            return False
    return True


class TrainWorkload(_Base):
    """Closed-loop SGD steps of one model under one stash policy."""

    def __init__(self, spec, seed, counts):
        super().__init__(spec, seed, counts)
        self.model, self.policy_name = _TRAIN_CONFIGS[spec.name]
        self.tracer = None

    # -- building ------------------------------------------------------
    def _build(self, policy_name: str, seed=None, **executor_kwargs):
        t0 = perf_counter()
        graph = build_model(self.model, batch_size=_BATCH)
        t1 = perf_counter()
        plan = None
        if policy_name == "hybrid":
            plan = build_hybrid_plan(graph, HybridPolicy())
            policy = HybridExecutionPolicy(plan)
        elif policy_name == "gist":
            policy = GistPolicy(graph)
        else:
            policy = BaselinePolicy()
        t2 = perf_counter()
        executor = GraphExecutor(
            graph, policy=policy, seed=self.seed if seed is None else seed,
            **executor_kwargs)
        build_ms = {"models.build_ms": (t1 - t0) * 1e3,
                    "memory.hybrid.build_ms":
                        (t2 - t1) * 1e3 if plan is not None else 0.0}
        return graph, plan, executor, build_ms

    def _batch_stream(self):
        """Minibatches cycled epoch after epoch; the seed fixes the order."""
        rng = np.random.default_rng(self.seed)
        while True:
            yield from minibatches(self.data, _BATCH, rng)

    def _step(self, executor, optimizer, batches, span=null_span):
        with span("train.data"):
            images, labels = next(batches)
        with span("train.forward"):
            loss = executor.forward(images, labels)
        with span("train.backward"):
            grads = executor.backward()
        with span("train.optimizer"):
            optimizer.step(executor.parameters(), grads)
        return loss, grads

    def setup(self) -> None:
        self.graph, self.plan, self.executor, self.build_ms = self._build(
            self.policy_name)
        shape = self.graph.node(self.graph.input_id).output_shape
        self.data, _ = make_synthetic_for(shape, num_samples=_SAMPLES,
                                          seed=self.seed)
        self.optimizer = SGD(lr=_LR, momentum=_MOMENTUM)
        self.batches = self._batch_stream()
        self.losses: List[float] = []
        for i in range(self.counts["warmup"]):
            t0 = perf_counter()
            self.op(i)
            if i == 0:
                self.first_step_ms = (perf_counter() - t0) * 1e3

    # -- the timed op --------------------------------------------------
    def op(self, i: int) -> None:
        with self.unit("step"):
            loss, _ = self._step(self.executor, self.optimizer,
                                 self.batches, self.span)
        self.losses.append(loss)
        if self.tracer is not None:
            self.sparsity.append(dict(self.executor.last_sparsity))

    def footprint_mib(self) -> float:
        # Seed 0 whatever --seed says, and at initialisation: how sparse
        # the maps are swings SSDC's bytes by 4% from seed to seed at
        # initialisation and by 10% once trained, and this metric is the
        # one that must repeat exactly.
        graph, _, executor, _ = self._build(self.policy_name, seed=0)
        shape = graph.node(graph.input_id).output_shape
        data, _ = make_synthetic_for(shape, num_samples=_SAMPLES, seed=0)
        executor.forward(data.images[:_BATCH], data.labels[:_BATCH])
        return sum(executor.stash_bytes().values()) / MIB

    # -- correctness ---------------------------------------------------
    def _run_fresh(self, policy_name: str, steps: int, **executor_kwargs):
        """``steps`` SGD steps on a fresh graph (layer RNG is graph state)
        over the same batches the measured run started with."""
        _, _, executor, _ = self._build(policy_name, **executor_kwargs)
        optimizer = SGD(lr=_LR, momentum=_MOMENTUM)
        batches = self._batch_stream()
        out = []
        for _ in range(steps):
            loss, grads = self._step(executor, optimizer, batches)
            out.append((loss, {k: v.copy() for k, v in grads.items()}))
        return out

    def check(self) -> List[Check]:
        losses = self.losses
        checks = [("losses-finite", all(math.isfinite(x) for x in losses),
                   f"{len(losses)} losses")]
        if self.spec.name == "vgg_baseline":
            ok = _bit_identical(
                self._run_fresh("baseline", 2),
                self._run_fresh("baseline", 2, use_kernel_plans=False,
                                kernel_backend="reference"))
            checks.append(("ground-truth-arm-bit-identical", ok,
                           "2 steps vs reference loop kernels"))
        elif self.spec.name == "densenet_hybrid":
            ok = _bit_identical(self._run_fresh("hybrid", 3),
                                self._run_fresh("baseline", 3))
            checks.append(("hybrid-bit-identical-to-baseline", ok,
                           "3 steps"))
        else:
            reference = [loss for loss, _ in self._run_fresh("baseline", 3)]
            n = min(3, len(losses))
            worst = max(abs(a - b) / abs(b)
                        for a, b in zip(losses[:n], reference[:n]))
            checks.append(("gist-tracks-baseline", worst <= 1e-2,
                           f"first {n} losses, worst rel diff {worst:.2e}"))
            if len(losses) >= 60:
                tail = statistics.median(losses[-20:])
                checks.append(("gist-converges", tail < 0.5 * losses[0],
                               f"median last 20 {tail:.4f} vs first "
                               f"{losses[0]:.4f}"))
        return checks

    # -- traced pass ---------------------------------------------------
    def begin_trace(self, spans: Spans) -> None:
        super().begin_trace(spans)
        self.tracer = StepTracer(keep_events=True)
        self.executor.tracer = self.tracer
        self.sparsity: List[Dict[str, float]] = []

    def end_trace(self) -> None:
        super().end_trace()
        self.executor.tracer = None

    def layer_metrics(self, spans: Spans, untraced_ms: List[float]
                      ) -> Tuple[Dict[str, float], List[Check]]:
        tracer = self.tracer
        kinds = {n.name: n.kind for n in self.graph.nodes}
        # The tracer was attached at traced op 0, so its step index is
        # the span op id.
        by_step = step_breakdown(tracer.events, kinds.__getitem__)
        rows = []
        for op, span_ms in sorted(spans.per_op_ms().items()):
            row = dict(by_step[op])
            nodes_and_codecs = sum(row.values())
            row["op"] = span_ms["op"]
            for part in ("data", "forward", "backward", "optimizer"):
                row[f"train.{part}_ms"] = span_ms[f"train.{part}"]
            row["train.executor_self_ms"] = (
                span_ms["train.forward"] + span_ms["train.backward"]
                - nodes_and_codecs)
            rows.append(row)
        out = median_by_key(rows)
        step_ms = out.pop("op")
        residual = 100.0 * (step_ms - sum(out.get(k, 0.0)
                                          for k in STEP_PARTS)) / step_ms
        out["train.residual_pct"] = residual
        out["train.step_p50_ms"] = statistics.median(untraced_ms)
        out["train.step_p90_ms"] = percentile(untraced_ms, 0.9)
        checks = [
            ("self-time-sums-to-step", abs(residual) <= RESIDUAL_LIMIT_PCT,
             f"residual {residual:+.2f}% of a {step_ms:.1f} ms step"),
            ("executor-self-time-nonnegative",
             out["train.executor_self_ms"] >= 0.0,
             f"{out['train.executor_self_ms']:.3f} ms"),
        ]

        steps = tracer.steps
        hits = sum(s.arena_hits for s in steps)
        rents = hits + sum(s.arena_misses for s in steps)
        out["kernels.arena.pooled_mib"] = steps[-1].arena_pooled_bytes / MIB
        out["kernels.arena.hit_ratio"] = hits / rents if rents else 0.0
        out["kernels.plan_cache.misses"] = plan_cache_stats()["misses"]
        out["kernels.first_step_ms"] = self.first_step_ms
        picks = Counter(r["backend"] for r in autotune_report())
        for arm in AUTOTUNE_ARMS:
            out[f"kernels.autotune.picks.{arm}"] = picks.get(arm, 0)

        raw: Counter = Counter()
        encoded: Counter = Counter()
        for s in steps:
            for name, nbytes in s.raw_bytes.items():
                raw[normalise_encoding(name)] += nbytes
            for name, nbytes in s.encoded_bytes.items():
                encoded[normalise_encoding(name)] += nbytes
        for codec in ("binarize", "ssdc", "dpr"):
            out[f"encodings.{codec}.ratio"] = (
                raw[codec] / encoded[codec] if encoded[codec] else 0.0)
        out["encodings.raw_mib"] = statistics.median(
            s.total_raw_bytes for s in steps) / MIB
        out["encodings.encoded_mib"] = statistics.median(
            s.total_encoded_bytes for s in steps) / MIB
        ssdc_nodes = {ev.node for ev in tracer.events
                      if ev.phase == "encode"
                      and normalise_encoding(ev.encoding) == "ssdc"}
        if ssdc_nodes:
            out["encodings.ssdc.input_sparsity"] = statistics.median(
                statistics.mean(step[n] for n in ssdc_nodes if n in step)
                for step in self.sparsity)

        out.update(self.build_ms)
        if self.plan is not None:
            choices = Counter(d.choice for d in self.plan.decisions.values())
            for choice in HYBRID_CHOICES:
                out[f"memory.hybrid.decisions.{choice}"] = choices[choice]
        return out, checks

    def trace_events(self) -> List[dict]:
        """StepTracer events with their self times, for the trace file."""
        return [
            {"step": ev.step, "node": ev.node, "phase": ev.phase,
             "encoding": ev.encoding, "wall_ms": ev.wall_s * 1e3,
             "self_ms": self_s * 1e3}
            for ev, self_s in self_times(self.tracer.events)
        ]


# ----------------------------------------------------------------------
# plan_suite
# ----------------------------------------------------------------------
PLAN_MODELS = ("alexnet", "nin", "overfeat", "vgg16", "inception",
               "resnet50", "resnet152", "densenet", "lstm")
PLAN_BATCH = 64


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class PlanSuite(_Base):
    """Plans the nine registry graphs per pass; touches no tensor."""

    def setup(self) -> None:
        # The seed drives the one input there is: the model order.
        self.order_rng = random.Random(self.seed)
        self.first: Dict[str, dict] = {}
        self.mismatched_passes = 0
        for i in range(self.counts["warmup"]):
            self.op(i)

    def _plan_model(self, name: str) -> dict:
        span = self.span
        with span("models.build", name):
            graph = build_model(name, batch_size=PLAN_BATCH)
        with span("rewrite.apply", name):
            rewritten = apply_passes(graph)
        with span("graph.schedule", name):
            schedule = TrainingSchedule(graph)
        with span("memory.planner.build", name):
            baseline = build_memory_plan(graph, schedule)
        config = GistConfig.for_network(name)
        with span("core.schedule_builder.build", name):
            gist = build_gist_plan(graph, config, schedule=schedule)
        with span("memory.allocator.allocate", name):
            allocator = StaticAllocator()
            base_bytes = allocator.allocate(baseline.tensors).total_bytes
            gist_bytes = allocator.allocate(gist.plan.tensors).total_bytes
        with span("memory.hybrid.build", name):
            hybrid = build_hybrid_plan(graph, HybridPolicy(),
                                       schedule=schedule)
        with span("perf.overhead", name):
            overhead = measure_overhead(graph, config)
        with span("graph.fingerprint", name):
            fingerprint = graph_fingerprint(graph)
        choices = Counter(d.choice for d in hybrid.decisions.values())
        return {
            "exact": (base_bytes, gist_bytes, hybrid.allocated_bytes,
                      hybrid.baseline_allocated_bytes,
                      tuple(sorted(choices.items())),
                      rewritten.total_changes, fingerprint,
                      overhead.baseline_s, overhead.gist_s),
            "graph": graph, "config": config, "gist": gist,
            "hybrid": hybrid, "choices": choices,
            "changes": rewritten.total_changes,
            "base_bytes": base_bytes, "gist_bytes": gist_bytes,
        }

    def op(self, i: int) -> None:
        results = {}
        for name in self.order_rng.sample(PLAN_MODELS, len(PLAN_MODELS)):
            with self.unit(name):
                results[name] = self._plan_model(name)
        if not self.first:
            self.first = results
        elif any(results[m]["exact"] != self.first[m]["exact"]
                 for m in PLAN_MODELS):
            self.mismatched_passes += 1

    def footprint_mib(self) -> float:
        return sum(r["gist_bytes"] for r in self.first.values()) / MIB

    def check(self) -> List[Check]:
        violations = []
        mfr_mismatch = []
        for name, r in self.first.items():
            violations += check_plan_safety(
                r["gist"], baseline_allocated=r["base_bytes"],
                gist_allocated=r["gist_bytes"])
            violations += check_hybrid_plan(r["hybrid"])
            violations += check_shared_concat(r["hybrid"])
            report = Gist(r["config"]).measure_mfr(r["graph"])
            if (report.baseline_bytes, report.gist_bytes) != (
                    r["base_bytes"], r["gist_bytes"]):
                mfr_mismatch.append(name)
        return [
            ("plans-pass-oracles", not violations,
             "; ".join(f"{v.oracle}: {v.detail}" for v in violations[:3])
             or "plan-safety, hybrid-plan, shared-concat on 9 models"),
            ("mfr-equals-facade", not mfr_mismatch,
             f"differs on {mfr_mismatch}" if mfr_mismatch
             else "pieced-together MFR == Gist.measure_mfr"),
            ("counts-identical-every-pass", self.mismatched_passes == 0,
             f"{self.mismatched_passes} passes differed from the first"),
        ]

    def layer_metrics(self, spans: Spans, untraced_ms: List[float]
                      ) -> Tuple[Dict[str, float], List[Check]]:
        out = {f"{name}_ms": ms for name, ms in
               median_by_key(spans.per_op_ms().values()).items()
               if name != "op"}
        out["memory.hybrid.resnet152_ms"] = median_by_key(
            spans.per_op_ms(tag="resnet152").values())["memory.hybrid.build"]
        first = self.first.values()
        out["rewrite.changes"] = sum(r["changes"] for r in first)
        out["core.mfr_geomean"] = _geomean(
            r["base_bytes"] / r["gist_bytes"] for r in first)
        out["memory.hybrid.ratio_geomean"] = _geomean(
            r["hybrid"].footprint_ratio for r in first)
        choices = sum((r["choices"] for r in first), Counter())
        for choice in HYBRID_CHOICES:
            out[f"memory.hybrid.decisions.{choice}"] = choices[choice]
        return out, []


# ----------------------------------------------------------------------
# verify_fuzz
# ----------------------------------------------------------------------
#: The fixed fuzz corpus: graph seeds 100..109, every pass.  It does not
#: move with ``--seed`` because per-graph battery time has a coefficient of
#: variation of ~0.7, so a fresh sample per seed would spread ``op_ms`` by
#: more than its bound.  ``--seed`` drives the value streams every oracle
#: draws (parameters, data, adversarial inputs).
CORPUS = tuple(range(100, 110))


class VerifyFuzz(_Base):
    """The serial oracle battery, as ``verify_seed`` composes it, over the
    corpus.  The warm-up pass fills the kernel caches, so the autotune
    probes a CI seed pays land in ``setup_s`` and ``op_ms`` prices the
    planners, oracles and kernels themselves."""

    def setup(self) -> None:
        self.violations: list = []
        self.nodes: List[int] = []
        for i in range(self.counts["warmup"]):
            self.op(i)

    def op(self, i: int) -> None:
        span = self.span
        self.nodes.clear()
        for graph_seed in CORPUS:
            value_seed = 1000 * self.seed + graph_seed
            with self.unit(f"graph-{graph_seed}"):
                with span("verify.fuzzer.gen"):
                    graph = GraphFuzzer(graph_seed).graph(
                        max_ops=DEFAULT_MAX_OPS)
                with span("verify.graph"):
                    violations = verify_graph(graph, value_seed)
                with span("verify.encodings"):
                    violations += verify_encodings(value_seed)
                with span("verify.backends"):
                    violations += verify_backends(value_seed)
                with span("verify.distributed"):
                    violations += check_distributed(value_seed)
            self.violations += violations
            self.nodes.append(len(graph.nodes))

    def footprint_mib(self) -> float:
        total = 0
        for graph_seed in CORPUS:
            graph = GraphFuzzer(graph_seed).graph(max_ops=DEFAULT_MAX_OPS)
            plan = build_gist_plan(graph, GistConfig.lossless())
            total += StaticAllocator().allocate(plan.plan.tensors).total_bytes
        return total / MIB

    def check(self) -> List[Check]:
        first = self.violations[0] if self.violations else None
        return [("zero-violations", first is None,
                 f"{len(self.violations)} violations; first: "
                 f"{first.oracle} seed {first.seed}: {first.detail}"
                 if first else f"every pass over {len(CORPUS)} seeds clean")]

    def layer_metrics(self, spans: Spans, untraced_ms: List[float]
                      ) -> Tuple[Dict[str, float], List[Check]]:
        out = {f"{name}_ms": ms for name, ms in
               median_by_key(spans.per_op_ms().values()).items()
               if name != "op"}
        # verify_graph runs this oracle inside its own span; one more
        # standalone pass over the corpus prices it.
        graphs = [(GraphFuzzer(g).graph(max_ops=DEFAULT_MAX_OPS),
                   1000 * self.seed + g) for g in CORPUS]
        t0 = perf_counter()
        for graph, value_seed in graphs:
            check_rewrite_equivalence(graph, seed=value_seed)
        out["verify.rewrite_equivalence_ms"] = (perf_counter() - t0) * 1e3
        out["verify.nodes_per_graph"] = statistics.mean(self.nodes)
        out["verify.violations"] = len(self.violations)
        return out, []


def make_workload(spec: Workload, seed: int, counts: Dict[str, int]):
    if spec.name in _TRAIN_CONFIGS:
        return TrainWorkload(spec, seed, counts)
    if spec.name == "plan_suite":
        return PlanSuite(spec, seed, counts)
    return VerifyFuzz(spec, seed, counts)
