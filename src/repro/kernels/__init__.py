"""Shape-static runtime kernel layer: plan cache + workspace arena.

The training graph never changes shape between iterations, so all index
arithmetic for the conv/pool lowering is done once (:mod:`.plan`) and
all scratch buffers are pooled per executor (:mod:`.arena`).  Conv is
the one op with interchangeable arms (:mod:`.backends`, chosen by proof
in :mod:`.autotune`); max-pool and the codecs run one body each.  The
one global switch lives in :mod:`.config` (env var
``REPRO_KERNEL_BACKEND``); forcing the ``reference`` arm restores the
original per-call Python-loop conv kernels for A/B verification.  See
the "Runtime kernel layer" section of ``docs/architecture.md``.
"""

from repro.kernels.arena import NULL_ARENA, WorkspaceArena
from repro.kernels.autotune import (
    autotune_report,
    clear_selection_cache,
)
from repro.kernels.backends import (
    KernelBackend,
    backends_for,
    default_backend,
    get_backend,
    register_backend,
    select_backend,
    unregister_backend,
)
from repro.kernels.config import (
    backend_override,
)
from repro.kernels.plan import (
    KernelPlan,
    clear_plan_cache,
    get_plan,
    plan_cache_stats,
)

__all__ = [
    "KernelBackend",
    "KernelPlan",
    "NULL_ARENA",
    "WorkspaceArena",
    "autotune_report",
    "backend_override",
    "backends_for",
    "clear_plan_cache",
    "clear_selection_cache",
    "default_backend",
    "get_backend",
    "get_plan",
    "plan_cache_stats",
    "register_backend",
    "select_backend",
    "unregister_backend",
]
