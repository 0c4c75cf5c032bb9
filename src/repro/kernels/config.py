"""The one global switch of the runtime kernel layer.

``REPRO_KERNEL_BACKEND`` forces conv's backend selection instead of the
chooser's: it names one registered ``conv2d`` arm (``reference``,
``numpy-plan``, ``blas-fat``).  ``auto`` (or unset) keeps the chooser in
charge.  The name is validated lazily against the live registry — see
:func:`repro.kernels.backends.resolve_forced_backend` — and an unknown
one produces a one-time ``RuntimeWarning`` instead of a silent fallback.
Max-pool and the codecs run one body each, so nothing here reaches them.

``REPRO_KERNEL_BACKEND=reference`` is the A/B baseline: every conv runs
the original per-call Python-loop kernels.

This module is import-cycle-free on purpose (it needs only
:mod:`repro.kernels.arena`, which needs only NumPy): layers import it
directly (``repro.kernels.config``) while the heavier plan machinery
imports the layer helpers.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

from repro.kernels.arena import NULL_ARENA, WorkspaceArena


def _parse_backend_env(raw: Optional[str]) -> Optional[str]:
    """The arm name a ``REPRO_KERNEL_BACKEND`` value forces; ``None`` for
    unset, empty or ``auto``.  Name validity is checked against the
    registry at dispatch time (the registry may not be imported yet)."""
    name = (raw or "").strip()
    return None if name.lower() in ("", "auto") else name


_forced_backend: Optional[str] = _parse_backend_env(
    os.environ.get("REPRO_KERNEL_BACKEND")
)


def forced_backend() -> Optional[str]:
    """The conv arm name ``REPRO_KERNEL_BACKEND`` forces; ``None`` means
    the chooser decides."""
    return _forced_backend


@contextmanager
def backend_override(spec: Optional[str]):
    """Temporarily apply a ``REPRO_KERNEL_BACKEND`` value."""
    global _forced_backend
    previous, _forced_backend = _forced_backend, _parse_backend_env(spec)
    try:
        yield
    finally:
        _forced_backend = previous


def resolve_arena(ctx) -> WorkspaceArena:
    """The workspace arena of a layer call — always an arena.

    Standalone contexts (gradient-check harness, ``ctx=None`` inference)
    carry none and get the shared pass-through ``NULL_ARENA``;
    ``GraphExecutor(use_kernel_plans=False)`` carries a disabled one of
    its own.  Both allocate fresh on every ``rent``, through the same
    statements a pooling arena runs.
    """
    return getattr(ctx, "arena", NULL_ARENA)
