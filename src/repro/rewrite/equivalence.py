"""Rewrite-equivalence oracle: rewritten graphs must train identically.

The property fuzzed over the whole pass pipeline: take a graph, apply the
rewrite passes, train the original graph once under ``baseline`` and the
rewritten graph under each lossless stash policy, from identical initial
parameters on identical batches — every per-step loss and every
parameter gradient of every rewritten run must match the one baseline
reference bit-for-bit.  No pass deletes a parameterised node, so every
original gradient must still be there; anything missing or differing is
a rewriter or codec bug.

The oracle is deliberately end-to-end: it trains the rewritten graph
through the executor, the stash classifier and the Gist encodings all
at once, so any pass that bends a float fails loudly with the
policy/step/tensor that diverged.  (The inplace pass only sets
``OpNode.inplace``, which no executor runs; a pass that swaps, merges or
drops layers is what this oracle can still catch.)
It trains and compares through :mod:`repro.verify.execution`, the
lossless-execution oracle's own pieces, so both word a divergence alike.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.graph.graph import Graph
from repro.rewrite.base import RewritePass
from repro.rewrite.manager import apply_passes
from repro.train.stash import LOSSLESS_POLICY_NAMES, policy_from_name
from repro.verify.execution import baseline_run, compare_runs, train
from repro.verify.oracles import ORACLE_REWRITE, Violation


def check_rewrite_equivalence(
    graph: Graph,
    seed: int = 0,
    passes: Optional[Iterable[RewritePass]] = None,
) -> List[Violation]:
    """Fuzzable oracle: the rewritten graph trains bit-identically.

    Applies the passes, trains the original graph for
    :data:`~repro.verify.execution.STEPS` SGD steps under ``baseline`` —
    the one reference — and compares the rewritten graph under each
    lossless policy against it: lossless means bit-identical to baseline
    through every rewrite.  Returns an empty list when the rewrite is a
    no-op or equivalence holds; otherwise one :class:`Violation` per
    divergence, carrying the policy, step and tensor that differed.
    """
    result = apply_passes(graph, passes)
    if not result.changed:
        return []
    rewritten = result.graph
    reference = baseline_run(graph, seed)
    for policy_name in LOSSLESS_POLICY_NAMES:
        run = train(rewritten, policy_from_name(policy_name, rewritten),
                    reference.batches, reference.start)
        details = compare_runs(reference, run, f"policy {policy_name}",
                               "original under baseline", "rewritten")
        if details:
            # One policy's divergence details are enough to debug; later
            # policies would usually repeat the same root cause.
            return [Violation(ORACLE_REWRITE, detail, seed=seed,
                              subject=graph.name) for detail in details]
    return []
