"""Rewrite-equivalence oracle: rewritten graphs must train identically.

The property fuzzed over the whole pass pipeline: take a graph, apply the
rewrite passes, train the original graph once under ``baseline`` and the
rewritten graph under each lossless stash policy, from identical initial
parameters on identical batches — every per-step loss and every
parameter gradient of every rewritten run must match the one baseline
reference bit-for-bit.  No pass deletes a parameterised node, so every
original gradient must still be there; anything missing or differing is
a rewriter or codec bug.

The oracle is deliberately end-to-end: it exercises the fused kernels, the
argmax-map pool flags, the inplace executor path, the stash classifier on
rewritten graphs and the Gist encodings all at once, so any pass that
bends a float fails loudly with the policy/step/tensor that diverged.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.kernels.plan import bit_identical
from repro.rewrite.base import RewritePass, RewriteResult
from repro.rewrite.manager import apply_passes
from repro.train.executor import GraphExecutor
from repro.train.stash import LOSSLESS_POLICY_NAMES, policy_from_name
from repro.verify.oracles import ORACLE_REWRITE, Violation


def make_batches(
    graph: Graph, seed: int, steps: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Deterministic per-step (images, labels) batches for ``graph``."""
    input_shape = graph.node(graph.input_id).output_shape
    logits_shape = graph.node(
        graph.node(graph.output_id).inputs[0]
    ).output_shape
    classes = int(logits_shape[-1])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE0_1D]))
    batches = []
    for _ in range(steps):
        images = rng.standard_normal(input_shape).astype(np.float32)
        labels = rng.integers(0, classes, size=input_shape[0]).astype(np.int64)
        batches.append((images, labels))
    return batches


def _train(
    graph: Graph,
    policy_name: str,
    batches: Sequence[Tuple[np.ndarray, np.ndarray]],
    initial_params: Optional[Dict[str, np.ndarray]] = None,
    lr: float = 0.05,
) -> Tuple[List[float], List[Dict[str, np.ndarray]], Dict[str, np.ndarray]]:
    """Run SGD steps; returns (losses, per-step grads, initial params).

    When ``initial_params`` is given, matching parameters are copied in
    before the first step (the caller checks name-set compatibility).
    """
    # Layers (and so their dropout mask streams) are shared between the
    # original and rewritten graph; the constructor rewinds them, so both
    # runs get the same draws.
    ex = GraphExecutor(graph, policy_from_name(policy_name, graph), seed=0)
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
            params[key] -= lr * g
    return losses, grad_steps, start


def check_rewrite_equivalence(
    graph: Graph,
    seed: int = 0,
    passes: Optional[Iterable[RewritePass]] = None,
    steps: int = 2,
    rewrite_result: Optional[RewriteResult] = None,
) -> List[Violation]:
    """Fuzzable oracle: the rewritten graph trains bit-identically.

    Applies the passes (or uses ``rewrite_result`` if the caller already
    ran them), trains the original graph for ``steps`` SGD steps under
    ``baseline`` — the one reference — and compares the rewritten graph
    under each lossless policy against it: lossless means bit-identical
    to baseline through every rewrite.  Returns an empty list when the
    rewrite is a no-op or equivalence holds; otherwise one
    :class:`Violation` per divergence, carrying the policy, step and
    tensor that differed.
    """
    result = (
        rewrite_result
        if rewrite_result is not None
        else apply_passes(graph, passes)
    )
    if not result.changed:
        return []
    rewritten = result.graph
    violations: List[Violation] = []

    def bad(detail: str) -> None:
        violations.append(
            Violation(ORACLE_REWRITE, detail, seed=seed, subject=graph.name)
        )

    batches = make_batches(graph, seed, steps)
    losses_a, grads_a, init_a = _train(graph, "baseline", batches)
    a_grad_names = set(grads_a[0]) if grads_a else set()
    for policy_name in LOSSLESS_POLICY_NAMES:
        losses_b, grads_b, _ = _train(
            rewritten, policy_name, batches, initial_params=init_a
        )
        # Parameter-name accounting: passes neither invent nor drop
        # parameters, so both name sets must match exactly.
        b_names = {k for step in grads_b for k in step}
        for key in sorted(b_names - set(init_a)):
            bad(f"policy {policy_name}: rewritten graph grew parameter "
                f"{key!r} absent from the original")
        for key in sorted(a_grad_names - set(grads_b[0] if grads_b else {})):
            bad(f"policy {policy_name}: gradient for {key!r} vanished "
                f"after rewrite")
        for step, (la, lb) in enumerate(zip(losses_a, losses_b)):
            if not bit_identical(np.asarray(la), np.asarray(lb)):
                bad(f"policy {policy_name} step {step}: loss diverged "
                    f"({la!r} original under baseline vs {lb!r} "
                    f"rewritten)")
        for step, (ga, gb) in enumerate(zip(grads_a, grads_b)):
            for key in sorted(set(ga) & set(gb)):
                if not bit_identical(ga[key], gb[key]):
                    bad(f"policy {policy_name} step {step}: gradient "
                        f"{key!r} not bit-identical after rewrite "
                        f"(original under baseline vs rewritten)")
        if violations:
            # One policy's divergence details are enough to debug; later
            # policies would usually repeat the same root cause.
            break
    return violations
