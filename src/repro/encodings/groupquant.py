"""Per-group affine integer quantisation (follow-on-work direction).

Work that followed Gist (notably ActNN) pushed stashed activations to 4
and even 2 bits by quantising *per group* with a stored scale/offset:
each run of ``group_size`` values is affinely mapped onto the integer
grid ``[0, 2**bits - 1]`` using its own min/max.  DPR's minifloats spend
bits on exponent range every value; group quantisation amortises range
information across the group, which is why it reaches lower widths.

Provided here as a library-level encoding so the ablation bench can ask
Gist's own question one step further: how low can the *stash* width go
before backward-only error stops being harmless?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.encodings.base import Encoding

#: Bytes of per-group metadata: one float32 scale + one float32 offset.
_GROUP_META_BYTES = 8

#: Supported code widths (32 must be divisible by each), widest first.
GROUPQUANT_BITS = (8, 4, 2, 1)


@dataclass(frozen=True)
class GroupQuantTensor:
    """Packed integer codes plus per-group scale/offset."""

    words: np.ndarray      # packed uint32
    scales: np.ndarray     # float32, one per group
    offsets: np.ndarray    # float32, one per group
    shape: Tuple[int, ...]
    bits: int
    group_size: int

    @property
    def nbytes(self) -> int:
        """Storage: packed codes + group metadata."""
        return (self.words.size * 4
                + self.scales.nbytes + self.offsets.nbytes)


class GroupQuantEncoding(Encoding):
    """Affine b-bit quantisation with per-group min/max scaling.

    Args:
        bits: Code width; 32 must be divisible by it (8, 4, 2, 1).
        group_size: Values sharing one scale/offset pair.
    """

    lossless = False

    def __init__(self, bits: int = 4, group_size: int = 256):
        if bits not in GROUPQUANT_BITS:
            raise ValueError(f"bits must be one of 1/2/4/8, got {bits}")
        if group_size <= 0:
            raise ValueError(f"group_size must be positive, got {group_size}")
        self.bits = bits
        self.group_size = group_size
        self.name = f"groupquant-int{bits}"

    # ------------------------------------------------------------------
    def encoded_bytes(self, num_elements: int, **ctx) -> int:
        values_per_word = 32 // self.bits
        words = -(-num_elements // values_per_word)
        groups = -(-num_elements // self.group_size)
        return words * 4 + groups * _GROUP_META_BYTES

    def encode(self, x: np.ndarray) -> GroupQuantTensor:
        flat = np.asarray(x, dtype=np.float32).ravel()
        n = flat.size
        groups = -(-n // self.group_size)
        padded = np.empty(groups * self.group_size, dtype=np.float32)
        padded[:n] = flat
        # Pad the ragged tail with the last *real* value: it already
        # belongs to the last group, so per-group min/max — and hence the
        # quantisation grid — are computed over real values only.  (Zero
        # padding would drag lo/hi towards 0 and collapse the last
        # group's grid whenever its values live far from zero.)
        padded[n:] = flat[n - 1] if n else 0.0
        mat = padded.reshape(groups, self.group_size)
        lo = mat.min(axis=1)
        hi = mat.max(axis=1)
        span = np.maximum(hi - lo, 1e-12)
        levels = (1 << self.bits) - 1
        scale = (span / levels).astype(np.float32)
        codes = np.rint((mat - lo[:, None]) / scale[:, None])
        # Store only the real n codes (the group padding is reconstructed
        # at decode time), so the byte count matches the static model.
        codes = np.clip(codes, 0, levels).astype(np.uint32).ravel()[:n]
        # Pack codes into 32-bit words.
        values_per_word = 32 // self.bits
        pad = (-codes.size) % values_per_word
        if pad:
            codes = np.concatenate([codes, np.zeros(pad, np.uint32)])
        lanes = codes.reshape(-1, values_per_word)
        words = np.zeros(lanes.shape[0], dtype=np.uint32)
        for lane in range(values_per_word):
            words |= lanes[:, lane] << np.uint32(lane * self.bits)
        return GroupQuantTensor(words, scale, lo.astype(np.float32),
                                tuple(x.shape), self.bits, self.group_size)

    def decode(self, encoded: GroupQuantTensor) -> np.ndarray:
        n = int(np.prod(encoded.shape))
        values_per_word = 32 // encoded.bits
        mask = np.uint32((1 << encoded.bits) - 1)
        lanes = [
            (encoded.words >> np.uint32(lane * encoded.bits)) & mask
            for lane in range(values_per_word)
        ]
        codes = np.stack(lanes, axis=1).ravel()[:n]
        total = encoded.scales.size * encoded.group_size
        padded = np.zeros(total, dtype=np.uint32)
        padded[:n] = codes
        codes = padded.reshape(encoded.scales.size, encoded.group_size)
        values = (codes.astype(np.float32) * encoded.scales[:, None]
                  + encoded.offsets[:, None])
        return values.ravel()[:n].reshape(encoded.shape).astype(np.float32)

    def measure_bytes(self, encoded: GroupQuantTensor) -> int:
        return encoded.nbytes

