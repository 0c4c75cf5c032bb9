"""Workspace arena: the one seam every kernel rents scratch through.

A rent is a fresh ``np.empty``.  A buffer is freed when its last
reference dies, and the allocator reuses that memory by size, so a map
whose lifetime Gist shortens gives its bytes back as soon as it dies.

The class exists so a test can substitute a fake: a poisoned arena whose
every rent arrives filled with garbage proves that every rent site
initialises whatever it relies on (``tests/kernels/test_arena.py``).
Every arena-taking signature defaults to the shared :data:`NULL_ARENA`,
and an executor's ``arena`` attribute is that instance until a test
assigns another.
"""

from __future__ import annotations

import numpy as np


class WorkspaceArena:
    """Scratch-buffer source for the shape-static kernels."""

    def rent(self, shape, dtype=np.float32) -> np.ndarray:
        """An uninitialised buffer of ``shape``/``dtype``."""
        return np.empty(shape, dtype=dtype)


#: The one default arena: standalone layer calls and every executor rent
#: through it.
NULL_ARENA = WorkspaceArena()


def resolve_arena(ctx) -> WorkspaceArena:
    """The workspace arena of a layer call — always an arena.

    Standalone contexts (gradient-check harness, ``ctx=None`` inference)
    carry none and get :data:`NULL_ARENA`; an executor's context carries
    the executor's ``arena``.
    """
    return getattr(ctx, "arena", NULL_ARENA)
