"""The one global switch of the runtime kernel layer.

``REPRO_KERNEL_BACKEND`` forces the registry's backend selection instead
of the chooser's.  It accepts a bare backend name
(``reference``, ``numpy-plan``, ``blas-fat``, ``numpy``, ``loop``)
applied to every op that registers it, or comma-separated ``op=name``
pairs (``conv2d=blas-fat,maxpool2d=reference``) for per-op control.
``auto`` (or unset; also per op, ``conv2d=auto``) keeps the chooser in
charge.  Syntax is validated at import time; names are validated lazily
against the live registry — see
:func:`repro.kernels.backends.resolve_forced_backend` — and an unknown
one produces a ``RuntimeWarning`` instead of a silent fallback.

``REPRO_KERNEL_BACKEND=reference`` is the A/B baseline: every conv and
max-pool runs the original per-call Python-loop kernels.

This module is import-cycle-free on purpose (it needs only
:mod:`repro.kernels.arena`, which needs only NumPy): layers import it
directly (``repro.kernels.config``) while the heavier plan machinery
imports the layer helpers.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Dict, Optional

from repro.kernels.arena import NULL_ARENA, WorkspaceArena


def _parse_backend_env(raw: Optional[str]) -> Dict[str, str]:
    """Parse ``REPRO_KERNEL_BACKEND`` into an ``{op_or_*: name}`` map.

    A bare name maps from ``"*"`` (all ops); ``op=name`` pairs scope the
    force to one op.  ``auto``/empty — bare or as ``op=auto`` — forces
    nothing.  Syntax is validated here; *name* validity is checked
    against the registry at dispatch time (the registry may not be
    imported yet).
    """
    forced: Dict[str, str] = {}
    if raw is None:
        return forced
    for part in raw.split(","):
        part = part.strip()
        if not part or part.lower() == "auto":
            continue
        if "=" in part:
            op, _, name = part.partition("=")
            op, name = op.strip(), name.strip()
            if not op or not name:
                warnings.warn(
                    f"REPRO_KERNEL_BACKEND entry {part!r} is malformed "
                    f"(expected op=name); ignoring it",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if name.lower() != "auto":
                forced[op] = name
        else:
            forced["*"] = part
    return forced


_forced_backends: Dict[str, str] = _parse_backend_env(
    os.environ.get("REPRO_KERNEL_BACKEND")
)


def forced_backend(op: str) -> Optional[str]:
    """The backend name ``REPRO_KERNEL_BACKEND`` forces for ``op``.

    Per-op entries win over a bare (``*``) name; ``None`` means the
    chooser decides.
    """
    return _forced_backends.get(op, _forced_backends.get("*"))


def set_forced_backends(forced: Optional[Dict[str, str]]) -> Dict[str, str]:
    """Replace the forced-backend map (tests/benchmarks); returns the old."""
    global _forced_backends
    previous = _forced_backends
    _forced_backends = dict(forced or {})
    return previous


@contextmanager
def backend_override(spec: Optional[str]):
    """Temporarily apply a ``REPRO_KERNEL_BACKEND``-style spec string."""
    previous = set_forced_backends(_parse_backend_env(spec))
    try:
        yield
    finally:
        set_forced_backends(previous)


def resolve_arena(ctx) -> WorkspaceArena:
    """The workspace arena of a layer call — always an arena.

    Standalone contexts (gradient-check harness, ``ctx=None`` inference)
    carry none and get the shared pass-through ``NULL_ARENA``;
    ``GraphExecutor(use_kernel_plans=False)`` carries a disabled one of
    its own.  Both allocate fresh on every ``rent``, through the same
    statements a pooling arena runs.
    """
    return getattr(ctx, "arena", NULL_ARENA)
