"""Workspace arena: a buffer pool keyed by (shape, dtype).

The paper's premise is that a training graph is shape-static, so every
iteration needs exactly the same scratch buffers.  Instead of allocating
them afresh each step (what the seed kernels did), ops *rent* buffers
from an arena owned by the executor and either release them as soon as
their contents are dead, or let them escape (returned gradients, encoded
stashes) until the executor calls :meth:`WorkspaceArena.reset` at the
top of the next step.

Invariants that make reuse safe:

* ``rent`` never hands out a buffer that is currently outstanding — a
  buffer moves back to the free pool only via ``release``/``reset``.
* ``release`` is only valid for the exact array object ``rent`` returned
  (views of it are ignored), so a kernel cannot accidentally free a
  buffer it does not own.
* ``reset`` reclaims everything outstanding at once; callers must only
  invoke it at a point where all tensors from the previous step are dead
  (the executor does so at the start of ``forward``).

Scratch memory is *always* an arena: there is no "no arena" value.  A
disabled arena degrades to plain ``np.empty`` allocation with no pooling
— ``GraphExecutor(use_kernel_plans=False)`` owns one, and
:data:`NULL_ARENA` is the shared one every arena-taking signature
defaults to and standalone layer calls get — so pooled and unpooled
callers run the same statements, and every rent site must initialise
whatever it relies on (a rented buffer arrives with arbitrary bytes
either way).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

_Key = Tuple[Tuple[int, ...], str]


class WorkspaceArena:
    """Reusable scratch-buffer pool for the shape-static kernels."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._free: Dict[_Key, List[np.ndarray]] = {}
        #: id(array) -> (pool key, array), for every rented buffer.
        self._outstanding: Dict[int, Tuple[_Key, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        #: Optional rent observer (the diagnostics arena-alias checker):
        #: an object with ``on_rent(arr)`` called for every pooled rent.
        #: ``None`` (the default) keeps the rent path observer-free.
        self.observer = None

    @staticmethod
    def _key(shape, dtype) -> _Key:
        return (tuple(int(d) for d in shape), np.dtype(dtype).str)

    def rent(self, shape, dtype=np.float32) -> np.ndarray:
        """Check out an uninitialised buffer of ``shape``/``dtype``."""
        if not self.enabled:
            return np.empty(shape, dtype=dtype)
        key = self._key(shape, dtype)
        stack = self._free.get(key)
        if stack:
            arr = stack.pop()
            self.hits += 1
        else:
            arr = np.empty(shape, dtype=dtype)
            self.misses += 1
        self._outstanding[id(arr)] = (key, arr)
        if self.observer is not None:
            self.observer.on_rent(arr)
        return arr

    def release(self, arr: np.ndarray) -> None:
        """Return a rented buffer whose contents are dead."""
        if not self.enabled or arr is None:
            return
        entry = self._outstanding.pop(id(arr), None)
        if entry is None:
            return  # not a buffer we handed out (e.g. a view) — ignore
        key, base = entry
        self._free.setdefault(key, []).append(base)

    def reset(self) -> None:
        """Reclaim every outstanding buffer (start-of-step boundary)."""
        if not self.enabled:
            return
        for key, arr in self._outstanding.values():
            self._free.setdefault(key, []).append(arr)
        self._outstanding.clear()

    @property
    def outstanding(self) -> int:
        """Number of buffers currently checked out."""
        return len(self._outstanding)

    def pooled_bytes(self) -> int:
        """Total bytes held across free and outstanding buffers."""
        total = sum(a.nbytes for stack in self._free.values() for a in stack)
        total += sum(a.nbytes for _, a in self._outstanding.values())
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkspaceArena(enabled={self.enabled}, hits={self.hits}, "
            f"misses={self.misses}, outstanding={self.outstanding})"
        )


#: Shared pass-through arena for calls outside an executor: every rent is
#: a fresh allocation, so standalone layer invocations can never alias.
NULL_ARENA = WorkspaceArena(enabled=False)


def resolve_arena(ctx) -> WorkspaceArena:
    """The workspace arena of a layer call — always an arena.

    Standalone contexts (gradient-check harness, ``ctx=None`` inference)
    carry none and get the shared pass-through :data:`NULL_ARENA`;
    ``GraphExecutor(use_kernel_plans=False)`` carries a disabled one of
    its own.  Both allocate fresh on every ``rent``, through the same
    statements a pooling arena runs.
    """
    return getattr(ctx, "arena", NULL_ARENA)
