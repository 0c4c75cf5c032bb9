"""Lossless-execution oracle: every lossless arm trains like baseline.

North star of the lossless arms: bit-identical to the FP32 baseline
through every composition.  The fuzzer is where compositions are random,
so every fuzzed graph is trained as built for :data:`STEPS` SGD steps
under ``baseline``, then once more, from the same initial parameters on
the same batches, under one lossless arm picked by the seed:

* ``gist-lossless`` — the Table-I selector's Binarize / SSDC stashes;
* ``hybrid-recompute`` / ``hybrid-swap`` — the budgeted selector held to
  one lever, so every recompute replay or host swap it picks runs;
* ``hybrid`` — the default mix;
* ``hybrid-shared_concat`` — only on graphs with a concat chain.

Every per-step loss and every parameter gradient must match the baseline
run bit for bit, and no gradient may appear or vanish.  The rewrite
oracle (:func:`repro.rewrite.equivalence.check_rewrite_equivalence`)
trains through the same three pieces — :func:`make_batches`,
:func:`train` and :func:`compare_runs` — so a divergence is detected and
worded in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.policy import (
    STRATEGY_RECOMPUTE,
    STRATEGY_SWAP,
    HybridPolicy,
)
from repro.graph.graph import Graph
from repro.kernels.plan import bit_identical
from repro.memory.hybrid import HybridPlan, build_hybrid_plan
from repro.train.executor import GraphExecutor
from repro.train.stash import (
    BaselinePolicy,
    HybridExecutionPolicy,
    StashPolicy,
    policy_from_name,
)
from repro.verify.oracles import ORACLE_LOSSLESS, Violation

#: SGD steps per training run.  Two, so a stash that leaks from one step
#: into the next (a stale host copy, an advanced mask stream) shows.
STEPS = 2
LR = 0.05

Batches = Sequence[Tuple[np.ndarray, np.ndarray]]


@dataclass
class TrainRun:
    """What :func:`train` observed: the batches it ran, per-step losses
    and gradients, the parameters it started from and its executor."""

    batches: Batches
    losses: List[float]
    grads: List[Dict[str, np.ndarray]]
    start: Dict[str, np.ndarray]
    executor: GraphExecutor


def make_batches(graph: Graph, seed: int) -> Batches:
    """Deterministic per-step (images, labels) batches for ``graph``."""
    input_shape = graph.node(graph.input_id).output_shape
    logits_shape = graph.node(
        graph.node(graph.output_id).inputs[0]
    ).output_shape
    classes = int(logits_shape[-1])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE0_1D]))
    batches = []
    for _ in range(STEPS):
        images = rng.standard_normal(input_shape).astype(np.float32)
        labels = rng.integers(0, classes, size=input_shape[0]).astype(np.int64)
        batches.append((images, labels))
    return batches


def train(
    graph: Graph,
    policy: StashPolicy,
    batches: Batches,
    initial_params: Optional[Dict[str, np.ndarray]] = None,
) -> TrainRun:
    """Run one SGD step (rate :data:`LR`) per batch under ``policy``.

    When ``initial_params`` is given, matching parameters are copied in
    before the first step (the caller compares the name sets).
    """
    # Layers (and so their dropout mask streams) are shared between runs
    # on one graph, and between an original and a rewritten graph; the
    # constructor rewinds them, so every run gets the same draws.
    ex = GraphExecutor(graph, policy, seed=0)
    params = ex.parameters()
    if initial_params is not None:
        for key, value in params.items():
            if key in initial_params:
                value[...] = initial_params[key]
    start = {k: v.copy() for k, v in params.items()}
    losses: List[float] = []
    grad_steps: List[Dict[str, np.ndarray]] = []
    for images, labels in batches:
        loss = ex.forward(images, labels)
        grads = ex.backward()
        losses.append(loss)
        grad_steps.append({k: g.copy() for k, g in grads.items()})
        for key, g in grads.items():
            params[key] -= LR * g
    return TrainRun(batches, losses, grad_steps, start, ex)


def compare_runs(reference: TrainRun, run: TrainRun, label: str,
                 ref_name: str, run_name: str) -> List[str]:
    """One detail string per divergence of ``run`` from ``reference``.

    ``label`` prefixes every detail; ``ref_name`` / ``run_name`` name the
    two sides.  Neither side may invent or drop a parameter, and every
    loss and gradient must match by bytes (``+0.0`` is not ``-0.0``).
    """
    details: List[str] = []
    run_names = {k for step in run.grads for k in step}
    for key in sorted(run_names - set(reference.start)):
        details.append(f"{label}: {run_name} grew parameter {key!r} "
                       f"absent from the {ref_name}")
    for key in sorted(set(reference.grads[0]) - set(run.grads[0])):
        details.append(f"{label}: gradient for {key!r} vanished in the "
                       f"{run_name}")
    for step, (la, lb) in enumerate(zip(reference.losses, run.losses)):
        if not bit_identical(np.asarray(la), np.asarray(lb)):
            details.append(f"{label} step {step}: loss diverged ({la!r} "
                           f"{ref_name} vs {lb!r} {run_name})")
    for step, (ga, gb) in enumerate(zip(reference.grads, run.grads)):
        for key in sorted(set(ga) & set(gb)):
            if not bit_identical(ga[key], gb[key]):
                details.append(f"{label} step {step}: gradient {key!r} "
                               f"not bit-identical ({ref_name} vs "
                               f"{run_name})")
    return details


def _strategy_arm(graph: Graph, strategy: str) -> StashPolicy:
    return HybridExecutionPolicy(
        build_hybrid_plan(graph, HybridPolicy(strategy=strategy)))


def lossless_arms(
    graph: Graph, hybrid: HybridPlan,
    shared_concat: Optional[HybridPlan] = None,
) -> List[Tuple[str, Callable[[], StashPolicy]]]:
    """The lossless arms in selection order, as ``(label, build)`` pairs.

    ``hybrid`` and ``shared_concat`` are the plans the plan battery
    already built; only the arm a seed picks is ever constructed.
    """
    arms = [
        ("gist-lossless", lambda: policy_from_name("gist-lossless", graph)),
        ("hybrid-recompute", lambda: _strategy_arm(graph,
                                                   STRATEGY_RECOMPUTE)),
        ("hybrid-swap", lambda: _strategy_arm(graph, STRATEGY_SWAP)),
        ("hybrid", lambda: HybridExecutionPolicy(hybrid)),
    ]
    if shared_concat is not None:
        arms.append(("hybrid-shared_concat",
                     lambda: HybridExecutionPolicy(shared_concat)))
    return arms


def baseline_run(graph: Graph, seed: int) -> TrainRun:
    """The reference: ``graph`` trained under ``baseline`` on the seed's
    batches."""
    return train(graph, BaselinePolicy(), make_batches(graph, seed))


def check_lossless_execution(
    graph: Graph, seed: int, reference: TrainRun,
    arms: Sequence[Tuple[str, Callable[[], StashPolicy]]],
) -> List[Violation]:
    """Train ``arms[seed % len(arms)]`` against the ``reference`` run.

    ``reference`` is :func:`baseline_run`; the arm replays its batches
    from its initial parameters.  Returns one violation per divergence,
    its subject the arm's label.
    """
    label, build = arms[seed % len(arms)]
    run = train(graph, build(), reference.batches, reference.start)
    return [Violation(ORACLE_LOSSLESS, detail, seed, label)
            for detail in compare_runs(reference, run, f"arm {label}",
                                       "baseline", label)]

