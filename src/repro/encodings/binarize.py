"""Binarize: the 1-bit encoding for ReLU-Pool feature maps.

Paper Section IV-A: for a ReLU whose only consumer is a max-pool, the ReLU
output's two backward uses are (a) ReLU's own backward pass, which needs
only whether each element is positive, and (b) the pool's backward pass,
which — once the pool is rewritten to record a Y-to-X argmax map in its
forward pass — does not need the values at all.  So the stashed FP32 map
is replaced by a 1-bit positivity mask: 32x compression for the ReLU
output, and the pool's stash shrinks to a 4-bit-per-output-element map
(8x for the pool side; ~16x combined for the ReLU-Pool pair).

This module supplies the mask's bit packing: :func:`pack_bits`, one of
the two codec packers (with :func:`repro.encodings.ssdc.csr_encode`).
It has one body and, beside it, the loop kernel it is checked against
byte for byte (:func:`pack_bits_reference`;
:mod:`repro.verify.differential`).  The pool's argmax map is priced at
4 bits (:meth:`repro.layers.pool.MaxPool2D.argmax_map_spec`) and
held as uint8; nothing packs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.dtypes import BIT1
from repro.encodings.base import Encoding
from repro.kernels.arena import NULL_ARENA


def pack_bits(mask: np.ndarray, arena=NULL_ARENA) -> np.ndarray:
    """Pack a boolean array into uint32 words, 32 values per word
    (little-endian bit order).

    The padded word buffer is rented from ``arena`` and the words are
    written directly into it — no concatenate/copy chain.
    """
    flat = np.asarray(mask, dtype=bool).ravel()
    buf = arena.rent((4 * ((flat.size + 31) // 32),), np.uint8)
    packed = np.packbits(flat, bitorder="little")
    buf[: packed.size] = packed
    buf[packed.size:] = 0  # rented buffers arrive uninitialised
    return buf.view(np.uint32)


def pack_bits_reference(mask: np.ndarray) -> np.ndarray:
    """Ground truth of :func:`pack_bits`: 8 shift-or passes, one per bit
    position, into zeroed words."""
    flat = np.asarray(mask, dtype=bool).ravel()
    out = np.zeros(4 * ((flat.size + 31) // 32), np.uint8)
    for b in range(8):
        part = flat[b::8]
        out[: part.size] |= part.astype(np.uint8) << np.uint8(b)
    return out.view(np.uint32)


def unpack_bits(words: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns a boolean array of ``shape``."""
    n = int(np.prod(shape))
    bits = np.unpackbits(words.view(np.uint8), count=n, bitorder="little")
    # unpackbits yields fresh 0/1 uint8 storage, so a bool view is free.
    return bits.view(bool).reshape(shape)


@dataclass(frozen=True)
class BinarizedTensor:
    """Packed 1-bit positivity mask plus the original shape."""

    words: np.ndarray
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Storage bytes (whole 32-bit words)."""
        return self.words.size * 4


class BinarizeEncoding(Encoding):
    """1-bit-per-element stash for ReLU outputs feeding a max-pool.

    ``decode`` returns the boolean positivity mask — the exact information
    ReLU's backward pass consumes (``dX = dY * mask``) — not the FP32
    values, which by construction nothing downstream needs.  The encoding
    is lossless with respect to every gradient computed from it.
    """

    name = "binarize"
    lossless = True

    def encoded_bytes(self, num_elements: int, **ctx) -> int:
        return BIT1.size_bytes(num_elements)

    def encode(self, x: np.ndarray) -> BinarizedTensor:
        mask = self.arena.rent(x.shape, np.bool_)
        np.greater(x, 0, out=mask)
        return BinarizedTensor(pack_bits(mask, arena=self.arena),
                               tuple(x.shape))

    def decode(self, encoded: BinarizedTensor) -> np.ndarray:
        return unpack_bits(encoded.words, encoded.shape)

    def expected_decode(self, x: np.ndarray) -> np.ndarray:
        """The positivity mask — all the information decode reconstructs."""
        return x > 0

    def measure_bytes(self, encoded: BinarizedTensor) -> int:
        return encoded.nbytes
