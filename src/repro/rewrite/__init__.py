"""Graph rewrite layer: equivalence-fuzzed graph→graph passes.

The one pass, :class:`~repro.rewrite.passes.InplacePass`, marks
immediately-consumed maps for in-buffer execution (paper Section III-C).
It only sets ``OpNode.inplace`` flags, so a rewritten graph keeps every
layer and Gist's Schedule Builder sees the producer/consumer pairs it
classifies on.

:func:`~repro.rewrite.manager.apply_passes` runs it once, and the sweep
is held to a bit-for-bit training-equivalence oracle
(:func:`~repro.rewrite.equivalence.check_rewrite_equivalence`) that
``repro fuzz --rewrite-shapes`` runs on every seed.
"""

from repro.rewrite.base import PassStats, RewritePass, RewriteResult
from repro.rewrite.equivalence import (
    check_rewrite_equivalence,
)
from repro.rewrite.manager import apply_passes
from repro.rewrite.passes import InplacePass

__all__ = [
    "InplacePass",
    "PassStats",
    "RewritePass",
    "RewriteResult",
    "apply_passes",
    "check_rewrite_equivalence",
]
