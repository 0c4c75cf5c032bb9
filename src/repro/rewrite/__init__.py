"""Graph rewrite layer: composable, equivalence-fuzzed graph→graph passes.

Promotes Gist's graph-level optimisations from *classifications* inside
the memory planner to executed transforms that run before planning:

* :class:`~repro.rewrite.passes.FuseConvReLUPass` — conv+ReLU fusion;
* :class:`~repro.rewrite.passes.PoolArgmaxPass` — argmax-map max-pools
  (paper Section IV-A);
* :class:`~repro.rewrite.passes.CSEPass` — merge duplicated subexpressions;
* :class:`~repro.rewrite.passes.DeadStashEliminationPass` — drop branches
  whose stashes never reach the loss;
* :class:`~repro.rewrite.passes.InplacePass` — mark immediately-consumed
  maps for in-buffer execution (paper Section III-C).

Every pass is individually toggleable through
:func:`~repro.rewrite.manager.apply_passes`, and the whole pipeline is
held to a bit-for-bit training-equivalence oracle
(:func:`~repro.rewrite.equivalence.check_rewrite_equivalence`) wired into
the fuzz harness.
"""

from repro.rewrite.base import PassStats, RewritePass, RewriteResult
from repro.rewrite.equivalence import (
    check_rewrite_equivalence,
)
from repro.rewrite.manager import (
    DEFAULT_PASSES,
    PASS_FACTORIES,
    apply_passes,
    resolve_passes,
)
from repro.rewrite.passes import (
    CSEPass,
    DeadStashEliminationPass,
    FuseConvReLUPass,
    InplacePass,
    PoolArgmaxPass,
)

__all__ = [
    "CSEPass",
    "DEFAULT_PASSES",
    "DeadStashEliminationPass",
    "FuseConvReLUPass",
    "InplacePass",
    "PASS_FACTORIES",
    "PassStats",
    "PoolArgmaxPass",
    "RewritePass",
    "RewriteResult",
    "apply_passes",
    "check_rewrite_equivalence",
    "resolve_passes",
]
