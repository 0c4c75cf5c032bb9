"""Pass manager: one sweep of the rewrite passes.

The default sweep is the inplace pass alone.  It recomputes eligibility
from scratch and changes no layer, so its output is already a fixed
point: a second sweep applies nothing.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.graph.graph import Graph
from repro.rewrite.base import PassStats, RewritePass, RewriteResult
from repro.rewrite.passes import InplacePass

#: The pipeline, in sweep order.  Passes hold no state between runs.
DEFAULT_PASSES = (InplacePass(),)


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
