"""Pass manager: one ordered sweep of the rewrite passes.

The order is the passes' one dependency: the two structural passes
(fusion, then the pool rewrite) change layers, and the flag-marking
inplace pass then recomputes eligibility on the graph they leave.  No
pass creates work for an earlier one — a fused node is no longer a conv,
an argmax pool is no longer a plain max-pool — so the sweep's output is
already a fixed point: a second sweep applies nothing.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.graph.graph import Graph
from repro.rewrite.base import PassStats, RewritePass, RewriteResult
from repro.rewrite.passes import FuseConvReLUPass, InplacePass, PoolArgmaxPass

#: The pipeline, in sweep order.  Passes hold no state between runs.
DEFAULT_PASSES = (FuseConvReLUPass(), PoolArgmaxPass(), InplacePass())


def apply_passes(
    graph: Graph,
    passes: Optional[Iterable[RewritePass]] = None,
) -> RewriteResult:
    """Run ``passes`` (default: :data:`DEFAULT_PASSES`) once, in order.

    The input graph is never mutated.  Returns a
    :class:`~repro.rewrite.base.RewriteResult` whose ``stats`` hold each
    pass's rewrite count (in pass-list order) and whose ``graph`` is the
    result — identical to the input object when nothing applied.
    """
    current = graph
    stats = []
    for p in DEFAULT_PASSES if passes is None else passes:
        current, changes = p.run(current)
        stats.append(PassStats(p.name, changes))
    return RewriteResult(graph=current, stats=stats)
