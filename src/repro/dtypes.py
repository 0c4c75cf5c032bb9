"""Data type descriptors with byte-exact storage accounting.

Gist's entire premise is that a value's *storage format* can differ from its
*compute format*.  This module defines descriptors for every storage format
used in the paper:

* ``FP32`` — the compute format (IEEE single precision).
* ``FP16`` — IEEE half precision (1 sign / 5 exponent / 10 mantissa bits),
  packed two values per 32-bit word.
* ``FP10`` — Gist's 10-bit minifloat (1/5/4), packed three per 32-bit word
  (the paper notes 2 bits of each word are wasted — we model that exactly).
* ``FP8``  — Gist's 8-bit minifloat (1/4/3), packed four per 32-bit word.
* ``BIT1`` — the Binarize encoding, 32 booleans per word.
* ``NIBBLE4`` — 4-bit pool argmax indices, eight per word (the largest pool
  window in the paper's suite is 3x3, so 4 bits suffice).
* ``UINT8`` — narrow CSR column indices (the narrow-value optimisation).
* ``INT32``/``UINT32`` — CSR row pointers and packed words themselves.

Storage is always rounded up to whole 32-bit words for the packed formats,
matching the CUDA implementations described in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class DType:
    """A storage format descriptor.

    Attributes:
        name: Human-readable identifier, e.g. ``"fp10"``.
        bits: Nominal bits occupied per value (before word padding).
        kind: One of ``"float"``, ``"int"``, ``"bit"``.
        values_per_word: If set, values are packed this many per 32-bit word
            and storage rounds up to whole words.  If ``None`` the format is
            byte-addressable (``bits`` must be a multiple of 8).
        exponent_bits: For minifloats, width of the exponent field.
        mantissa_bits: For minifloats, width of the mantissa field.
    """

    name: str
    bits: int
    kind: str
    values_per_word: Optional[int] = None
    exponent_bits: Optional[int] = None
    mantissa_bits: Optional[int] = None

    def size_bytes(self, num_elements: int) -> int:
        """Bytes needed to store ``num_elements`` values in this format."""
        if num_elements < 0:
            raise ValueError(f"num_elements must be >= 0, got {num_elements}")
        if num_elements == 0:
            return 0
        if self.values_per_word is not None:
            words = math.ceil(num_elements / self.values_per_word)
            return words * 4
        if self.bits % 8 != 0:
            raise ValueError(
                f"dtype {self.name} is not byte addressable and has no packing"
            )
        return num_elements * (self.bits // 8)

    @property
    def exponent_bias(self) -> int:
        """IEEE-style exponent bias, ``2**(e-1) - 1``."""
        if self.exponent_bits is None:
            raise ValueError(f"dtype {self.name} has no exponent field")
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def max_finite(self) -> float:
        """Largest representable finite magnitude.

        The all-ones exponent is reserved (IEEE convention), so the largest
        biased exponent is ``2**e - 2``.  Gist clamps out-of-range values
        at this maximum rather than producing infinities.  For FP16 this
        yields exactly IEEE half precision's 65504.
        """
        if self.exponent_bits is None or self.mantissa_bits is None:
            raise ValueError(f"dtype {self.name} is not a float format")
        max_exp = (1 << self.exponent_bits) - 2 - self.exponent_bias
        mant = 2.0 - 2.0 ** (-self.mantissa_bits)
        return mant * (2.0**max_exp)

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude (denormals are flushed to 0)."""
        if self.exponent_bits is None:
            raise ValueError(f"dtype {self.name} is not a float format")
        return 2.0 ** (1 - self.exponent_bias)

    def __str__(self) -> str:
        return self.name


FP32 = DType("fp32", 32, "float", exponent_bits=8, mantissa_bits=23)
FP16 = DType("fp16", 16, "float", values_per_word=2, exponent_bits=5, mantissa_bits=10)
FP10 = DType("fp10", 10, "float", values_per_word=3, exponent_bits=5, mantissa_bits=4)
FP8 = DType("fp8", 8, "float", values_per_word=4, exponent_bits=4, mantissa_bits=3)
BIT1 = DType("bit1", 1, "bit", values_per_word=32)
NIBBLE4 = DType("nibble4", 4, "int", values_per_word=8)
UINT8 = DType("uint8", 8, "int")
INT32 = DType("int32", 32, "int")
UINT32 = DType("uint32", 32, "int")

#: DPR storage formats by name, as selectable in :class:`repro.core.policy.GistConfig`.
DPR_FORMATS = {"fp16": FP16, "fp10": FP10, "fp8": FP8}
