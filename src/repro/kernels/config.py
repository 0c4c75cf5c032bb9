"""Global switches for the runtime kernel layer.

Two environment variables control the layer; both are validated at
import time and unknown values produce a ``RuntimeWarning`` instead of a
silent fallback:

* ``REPRO_KERNEL_PLANS`` — boolean; ``0/false/off/no`` falls back to the
  original per-call Python-loop kernels (the A/B baseline), anything in
  ``1/true/on/yes`` (the default) enables the shape-static plan cache +
  workspace arena and, with it, the multi-backend registry.
* ``REPRO_KERNEL_BACKEND`` — forces the registry's backend selection
  instead of the measured autotuner.  Accepts a bare backend name
  (``reference``, ``numpy-plan``, ``blas-fat``, ``blas-chunk``, ``reduce``,
  ``numpy``, ``loop``, ``searchsorted``) applied to every op that registers it, or
  comma-separated ``op=name`` pairs (``conv2d=blas-fat,maxpool2d=reference``)
  for per-op control.  ``auto`` (or unset) keeps the autotuner in charge.
  Names are validated lazily against the live registry — see
  :func:`repro.kernels.backends.resolve_forced_backend`.

A third, optional, variable ``REPRO_KERNEL_AUTOTUNE_CACHE`` points the
measured backend chooser at a JSON file for cross-process persistence of
per-signature selections (see :mod:`repro.kernels.autotune`).

This module is import-cycle-free on purpose: layers import it directly
(``repro.kernels.config``) while the heavier plan machinery imports the
layer helpers.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

_FALSEY = ("0", "false", "off", "no")
_TRUTHY = ("1", "true", "on", "yes")


def _parse_bool_env(name: str, default: bool) -> bool:
    """Validated boolean env parse: warn (once, at import) on unknown."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _FALSEY:
        return False
    if value in _TRUTHY:
        return True
    warnings.warn(
        f"{name}={raw!r} is not a recognised boolean "
        f"({'/'.join(_TRUTHY)} or {'/'.join(_FALSEY)}); "
        f"using the default ({'on' if default else 'off'})",
        RuntimeWarning,
        stacklevel=2,
    )
    return default


def _parse_backend_env(raw: Optional[str]) -> Dict[str, str]:
    """Parse ``REPRO_KERNEL_BACKEND`` into an ``{op_or_*: name}`` map.

    A bare name maps from ``"*"`` (all ops); ``op=name`` pairs scope the
    force to one op.  ``auto``/empty clears the force.  Syntax is
    validated here; *name* validity is checked against the registry at
    dispatch time (the registry may not be imported yet).
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
            forced[op] = name
        else:
            forced["*"] = part
    return forced


_enabled: bool = _parse_bool_env("REPRO_KERNEL_PLANS", True)
_forced_backends: Dict[str, str] = _parse_backend_env(
    os.environ.get("REPRO_KERNEL_BACKEND")
)
#: Optional JSON path for cross-process autotune persistence.
autotune_cache_path: Optional[str] = (
    os.environ.get("REPRO_KERNEL_AUTOTUNE_CACHE") or None
)


def plans_enabled() -> bool:
    """Whether the shape-static kernel plans are globally enabled."""
    return _enabled


def set_plans_enabled(flag: bool) -> bool:
    """Set the global switch; returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextmanager
def plans_override(flag: bool):
    """Temporarily force the global switch (for A/B tests)."""
    previous = set_plans_enabled(flag)
    try:
        yield
    finally:
        set_plans_enabled(previous)


def forced_backend(op: str) -> Optional[str]:
    """The backend name ``REPRO_KERNEL_BACKEND`` forces for ``op``.

    Per-op entries win over a bare (``*``) name; ``None`` means the
    measured chooser decides.
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


def resolve_kernel_state(ctx) -> Tuple[bool, Optional[object]]:
    """Resolve (enabled, arena) for a layer call.

    An executor-provided :class:`~repro.layers.base.OpContext` may carry
    ``kernels_enabled`` and ``arena`` attributes; standalone contexts
    (gradient-check harness, ``ctx=None`` inference) fall back to the
    global switch and a fresh-allocation arena.
    """
    enabled = getattr(ctx, "kernels_enabled", None)
    if enabled is None:
        enabled = _enabled
    arena = getattr(ctx, "arena", None) if enabled else None
    return bool(enabled), arena
