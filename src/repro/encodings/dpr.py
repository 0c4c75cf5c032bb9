"""Delayed Precision Reduction (DPR): Gist's lossy encoding.

DPR stores a stashed feature map in FP16, FP10 or FP8 *only for the gap
between its forward and backward uses*; computation stays FP32 on both
ends.  Values are packed 2, 3 or 4 per 32-bit word (FP10 wastes 2 bits per
word — the paper packs three 10-bit values into 4 bytes).

The crucial property reproduced here: because the reduction is applied
*after* the forward consumer has read the full-precision value, the
quantisation error reaches only the backward pass, which tolerates as few
as 8 bits — whereas quantising in the forward pass (the prior-work
"All-FP16" baseline in Figure 12) compounds error layer over layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.dtypes import DPR_FORMATS, DType
from repro.encodings.base import Encoding
from repro.encodings.floatsim import decode_minifloat, encode_minifloat

# Bit offsets of each packed value within a 32-bit word, per format.
_OFFSETS = {2: (0, 16), 3: (0, 10, 20), 4: (0, 8, 16, 24)}
#: Code widths whose packing is a view of the codes as uint32 words.
_VIEW_BITS = (8, 16)


def pack_codes(codes: np.ndarray, dtype: DType) -> np.ndarray:
    """Pack ``dtype.bits``-wide codes into uint32 words."""
    if dtype.values_per_word not in _OFFSETS:
        raise ValueError(f"dtype {dtype.name} is not a packable DPR format")
    k = dtype.values_per_word
    flat = np.asarray(codes, dtype=np.uint32).ravel()
    pad = (-flat.size) % k
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.uint32)])
    lanes = flat.reshape(-1, k)
    words = np.zeros(lanes.shape[0], dtype=np.uint32)
    for lane, offset in enumerate(_OFFSETS[k]):
        words |= lanes[:, lane] << np.uint32(offset)
    return words


def unpack_codes(words: np.ndarray, n: int, dtype: DType) -> np.ndarray:
    """Extract ``n`` codes from packed uint32 words."""
    k = dtype.values_per_word
    mask = np.uint32((1 << dtype.bits) - 1)
    lanes = [
        (words >> np.uint32(offset)) & mask for offset in _OFFSETS[k]
    ]
    inter = np.stack(lanes, axis=1).ravel()
    return inter[:n]


def encode_words(x: np.ndarray, dtype: DType,
                 rounding: str = "nearest") -> np.ndarray:
    """Quantise ``x`` to ``dtype`` and pack it: the whole DPR encode.

    Always equal to ``pack_codes(encode_minifloat(x, dtype, rounding),
    dtype)``.  8- and 16-bit codes come back at their storage width, so
    viewing them as uint32 *is* the 4- or 2-per-word packing (first code
    in the low bits: hosts are little-endian, as the bit packers' uint8 ->
    uint32 views already assume); FP10's three 10-bit lanes take
    :func:`pack_codes`' shifts.
    """
    codes = encode_minifloat(x, dtype, rounding).ravel()
    if dtype.bits not in _VIEW_BITS:
        return pack_codes(codes, dtype)
    pad = (-codes.size) % dtype.values_per_word
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, codes.dtype)])
    return codes.view(np.uint32)


def decode_words(words: np.ndarray, n: int, dtype: DType) -> np.ndarray:
    """The first ``n`` values of packed ``words`` as flat float32: always
    equal to ``decode_minifloat(unpack_codes(words, n, dtype), dtype)``,
    with 8- and 16-bit codes read through a view of the words."""
    if dtype.bits in _VIEW_BITS:
        codes = words.view(f"u{dtype.bits // 8}")[:n]
    else:
        codes = unpack_codes(words, n, dtype)
    return decode_minifloat(codes, dtype)


@dataclass(frozen=True)
class DPRTensor:
    """Packed reduced-precision stash plus reconstruction metadata."""

    words: np.ndarray
    shape: Tuple[int, ...]
    dtype: DType

    @property
    def nbytes(self) -> int:
        """Storage bytes (whole 32-bit words)."""
        return self.words.size * 4


class DPREncoding(Encoding):
    """Store a feature map as packed FP16/FP10/FP8 between its two uses."""

    lossless = False

    def __init__(self, dtype: DType, rounding: str = "nearest"):
        if dtype.values_per_word not in _OFFSETS:
            raise ValueError(
                f"DPR supports {sorted(DPR_FORMATS)}, got {dtype.name!r}"
            )
        self.dtype = dtype
        self.rounding = rounding
        self.name = f"dpr-{dtype.name}"

    def encoded_bytes(self, num_elements: int, **ctx) -> int:
        return self.dtype.size_bytes(num_elements)

    def encode(self, x: np.ndarray) -> DPRTensor:
        words = encode_words(x, self.dtype, self.rounding)
        return DPRTensor(words, tuple(x.shape), self.dtype)

    def decode(self, encoded: DPRTensor) -> np.ndarray:
        n = int(np.prod(encoded.shape))
        return decode_words(encoded.words, n, encoded.dtype).reshape(
            encoded.shape)

    def measure_bytes(self, encoded: DPRTensor) -> int:
        return encoded.nbytes


def dpr_encoding(format_name: str, rounding: str = "nearest") -> DPREncoding:
    """Build a :class:`DPREncoding` from a format name (fp16/fp10/fp8)."""
    try:
        dtype = DPR_FORMATS[format_name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown DPR format {format_name!r}; choose from {sorted(DPR_FORMATS)}"
        ) from None
    return DPREncoding(dtype, rounding)
