"""Graph rewrite layer: equivalence-fuzzed graph→graph passes.

Promotes Gist's graph-level optimisations from *classifications* inside
the memory planner to executed transforms that run before planning:

* :class:`~repro.rewrite.passes.FuseConvReLUPass` — conv+ReLU fusion;
* :class:`~repro.rewrite.passes.PoolArgmaxPass` — argmax-map max-pools
  (paper Section IV-A);
* :class:`~repro.rewrite.passes.InplacePass` — mark immediately-consumed
  maps for in-buffer execution (paper Section III-C).

:func:`~repro.rewrite.manager.apply_passes` runs them once, in that
order, and the pipeline is held to a bit-for-bit training-equivalence
oracle (:func:`~repro.rewrite.equivalence.check_rewrite_equivalence`)
that ``repro fuzz --rewrite-shapes`` runs on every seed.
"""

from repro.rewrite.base import PassStats, RewritePass, RewriteResult
from repro.rewrite.equivalence import (
    check_rewrite_equivalence,
)
from repro.rewrite.manager import apply_passes
from repro.rewrite.passes import (
    FuseConvReLUPass,
    InplacePass,
    PoolArgmaxPass,
)

__all__ = [
    "FuseConvReLUPass",
    "InplacePass",
    "PassStats",
    "PoolArgmaxPass",
    "RewritePass",
    "RewriteResult",
    "apply_passes",
    "check_rewrite_equivalence",
]
