"""Graph rewrite layer: equivalence-checked graph→graph passes.

The one pass, :class:`~repro.rewrite.passes.InplacePass`, marks
immediately-consumed maps as inplace consumers (paper Section III-C).
It only sets ``OpNode.inplace`` flags, so a rewritten graph keeps every
layer and Gist's Schedule Builder sees the producer/consumer pairs it
classifies on.  No executor runs the flag: the plan prices inplace
through ``GistConfig.inplace``.

:func:`~repro.rewrite.manager.apply_passes` runs it once, and the sweep
is held to a bit-for-bit training-equivalence oracle
(:func:`~repro.rewrite.equivalence.check_rewrite_equivalence`) that
``tests/rewrite`` runs.
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
