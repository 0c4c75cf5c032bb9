"""Encoding interface.

Each Gist encoding plays two roles, mirroring the static/runtime split of
the whole library:

* **Static size model** — ``encoded_bytes(num_elements, **ctx)`` tells the
  schedule builder how many bytes the stashed representation occupies, so
  the memory planner can account for it exactly.
* **Runtime codec** — ``encode``/``decode`` transform real NumPy arrays, so
  the training executor stores what the paper's CUDA kernels would have
  stored and the accuracy experiments see the true injected error.

Both roles are played by one object per decision:
:func:`repro.core.schedule_builder.gist_codec` builds the codec the
selector sizes a ``PlanDecision`` with (``resident_bytes``, ``lossless``)
and the stash policies then run.

``decode(encode(x))`` must reproduce ``x`` exactly for lossless encodings
(Binarize reproduces the information ReLU's backward pass needs — the
positivity mask — rather than the values; see its docstring).
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.kernels.arena import NULL_ARENA


class Encoding(abc.ABC):
    """A storage transform applied to a stashed feature map."""

    #: Identifier used in plans, reports and policy configuration.
    name: str = "encoding"
    #: Whether the backward pass sees bit-identical information.
    lossless: bool = True
    #: Workspace arena the runtime codec rents buffers from (set by the
    #: executor via :meth:`bind_arena`).
    arena = NULL_ARENA

    def bind_arena(self, arena) -> None:
        """Attach a workspace arena.

        The executor binds its ``arena`` before each stash, so a test
        that assigns a poisoned one reaches the codec fast paths too.
        """
        self.arena = arena

    @abc.abstractmethod
    def encoded_bytes(self, num_elements: int, **ctx) -> int:
        """Size of the encoded representation, in bytes.

        Context keyword arguments are encoding-specific (e.g. ``sparsity``
        for SSDC).
        """

    @abc.abstractmethod
    def encode(self, x: np.ndarray) -> Any:
        """Produce the compact stashed representation of ``x``."""

    @abc.abstractmethod
    def decode(self, encoded: Any) -> np.ndarray:
        """Reconstruct the array (or mask) the backward pass consumes."""

    def expected_decode(self, x: np.ndarray) -> np.ndarray:
        """Reference value ``decode(encode(x))`` must reproduce bit-exactly.

        Only meaningful for lossless encodings; the diagnostics round-trip
        checker digests this at encode time and compares it against the
        actual decode.  Defaults to ``x`` itself (Identity, SSDC);
        mask-based encodings override it (Binarize returns ``x > 0``).
        """
        if not self.lossless:
            raise ValueError(
                f"{self.name}: expected_decode is defined only for "
                f"lossless encodings"
            )
        return x

    def measure_bytes(self, encoded: Any) -> int:
        """Actual bytes of a runtime-encoded object (for sparsity studies)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class IdentityEncoding(Encoding):
    """Baseline 'encoding': stash the raw FP32 array."""

    name = "identity"
    lossless = True

    def encoded_bytes(self, num_elements: int, **ctx) -> int:
        return 4 * num_elements

    def encode(self, x: np.ndarray) -> np.ndarray:
        return x

    def decode(self, encoded: np.ndarray) -> np.ndarray:
        return encoded

    def measure_bytes(self, encoded: np.ndarray) -> int:
        # The stash is the array itself, so its true byte count is just
        # nbytes — correct for FP16 or integer stashes too, not only FP32.
        return int(encoded.nbytes)


class HostSwapEncoding(IdentityEncoding):
    """Simulated host swap: the stash lives in host DRAM, not on device.

    Numerically an identity transform — a DMA copy is bit-exact — but the
    *device* footprint of the stash is zero: the memory planner charges
    only a short-lived prefetch buffer across the backward uses (see
    :mod:`repro.memory.hybrid`).  ``encode`` is the offload and
    ``decode`` the prefetch.  ``encode`` stashes every map as an alias
    of the live forward value, a non-contiguous view too (a concat chain
    member is a channel prefix of its chain's buffer).  That is safe
    because no op writes a stashed map in place.
    """

    name = "host-swap"
    lossless = True

    def encoded_bytes(self, num_elements: int, **ctx) -> int:
        # Device-resident bytes across the stash gap: none.
        return 0

    def measure_bytes(self, encoded: np.ndarray) -> int:
        # The copy lives in (simulated) host DRAM; device footprint is 0,
        # matching ``encoded_bytes`` and the planner's resident-bytes claim.
        return 0
