"""Shape-static runtime kernel layer: plan cache + workspace arena.

The training graph never changes shape between iterations, so all index
arithmetic for the conv/pool lowering is done once (:mod:`.plan`);
every scratch buffer is rented through one seam (:mod:`.arena`) and
freed when its last reference dies.  Conv is the one op with
interchangeable arms (:data:`.backends.CONV_ARMS`, chosen by proof in
:mod:`.autotune`); max-pool and the codecs run one body each.  There is
no global switch: ``GraphExecutor(kernel_backend="reference")`` forces
the original per-call Python-loop conv kernels for A/B verification.
See the "Runtime kernel layer" section of ``docs/architecture.md``.
"""

from repro.kernels.arena import NULL_ARENA, WorkspaceArena
from repro.kernels.autotune import (
    autotune_report,
    clear_selection_cache,
)
from repro.kernels.backends import CONV_ARMS
from repro.kernels.plan import (
    KernelPlan,
    clear_plan_cache,
    get_plan,
    plan_cache_stats,
)

__all__ = [
    "CONV_ARMS",
    "KernelPlan",
    "NULL_ARENA",
    "WorkspaceArena",
    "autotune_report",
    "clear_plan_cache",
    "clear_selection_cache",
    "get_plan",
    "plan_cache_stats",
]
