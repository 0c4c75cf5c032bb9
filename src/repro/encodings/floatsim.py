"""Bit-exact minifloat quantisation (the substrate for DPR).

Implements the paper's reduced-precision storage formats:

* FP16 — 1 sign / 5 exponent / 10 mantissa bits,
* FP10 — 1 sign / 5 exponent / 4 mantissa bits,
* FP8  — 1 sign / 4 exponent / 3 mantissa bits,

with the paper's exact conversion rules: round-to-nearest, clamping at the
format's maximum/minimum representable magnitude (no infinities), and
denormals flushed to zero ("we ignore denormalized numbers as they have
negligible effect on CNN accuracy").

Two levels of API:

* :func:`encode_minifloat` / :func:`decode_minifloat` — produce and consume
  raw integer *bit patterns*, used by the DPR packer.
  :func:`encode_half` / :func:`decode_half` are their FP16
  round-to-nearest special case as integer operations on the float32
  bits: bit-identical, and a few times cheaper than the generic chain.
* :func:`quantize` — encode-then-decode in one step, used wherever only the
  value error matters (accuracy experiments, error-bound property tests).
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import DType


def _check_minifloat(dtype: DType) -> None:
    if dtype.exponent_bits is None or dtype.mantissa_bits is None:
        raise ValueError(f"dtype {dtype.name} is not a float format")
    if dtype.bits > 32:
        raise ValueError(f"dtype {dtype.name} too wide for 32-bit codes")


def encode_minifloat(x: np.ndarray, dtype: DType, rounding: str = "nearest") -> np.ndarray:
    """Quantise FP32 values to integer bit patterns of ``dtype``.

    Args:
        x: Input array (any shape); converted to float32 first.
        dtype: Target minifloat format.
        rounding: ``"nearest"`` (round-half-even, the paper's choice) or
            ``"truncate"`` (ablation).

    Returns:
        ``uint32`` array of ``x.shape`` holding ``dtype.bits``-wide codes.
    """
    _check_minifloat(dtype)
    if rounding not in ("nearest", "truncate"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    eb, mb = dtype.exponent_bits, dtype.mantissa_bits
    bias = dtype.exponent_bias
    x = np.asarray(x, dtype=np.float32)

    # The whole pipeline stays in float32/int32: every intermediate
    # (frexp output, 1.f remainder, the scaled mantissa f * 2**mb) is
    # exactly representable in float32, so the codes are bit-for-bit the
    # ones the original float64 formulation produced, at half the memory
    # traffic and with in-place ops instead of fresh temporaries.
    sign = (np.signbit(x)).astype(np.uint32)
    mag = np.abs(x)
    # NaNs have no meaning in feature maps; map them to zero for safety.
    mag[np.isnan(mag)] = 0.0
    # Clamp overflow at the largest finite magnitude (paper: "the value is
    # clamped at maximum/minimum value").
    np.minimum(mag, np.float32(dtype.max_finite), out=mag)

    with np.errstate(divide="ignore"):
        frac, exp = np.frexp(mag)  # mag == frac * 2**exp, frac in [0.5, 1)
    # Re-normalise to 1.f * 2**e form: scaled = (frac*2 - 1) * 2**mb,
    # computed in place (frac is owned and each step is exact).
    frac *= np.float32(2.0)
    frac -= np.float32(1.0)
    frac *= np.float32(1 << mb)
    if rounding == "nearest":
        mant = np.rint(frac).astype(np.int32)
    else:
        mant = np.floor(frac).astype(np.int32)
    # Mantissa overflow carries into the exponent.
    carry = mant >= (1 << mb)
    mant[carry] = 0
    biased = exp  # frexp's exponent array, owned: reuse for e + bias
    biased += np.int32(bias - 1)
    biased += carry
    # After the carry the magnitude may exceed max_finite: clamp the code.
    # The all-ones exponent is reserved (IEEE convention), so the largest
    # usable biased exponent is 2**eb - 2.
    max_biased = (1 << eb) - 2
    over = biased > max_biased
    biased[over] = max_biased
    mant[over] = (1 << mb) - 1
    # Denormals (biased exponent < 1) flush to zero; so does exact zero.
    zero = biased < 1
    zero |= mag == 0.0
    biased[zero] = 0
    mant[zero] = 0
    sign[zero] = 0

    code = sign
    code <<= np.uint32(eb + mb)
    code |= biased.astype(np.uint32) << np.uint32(mb)
    code |= mant.astype(np.uint32)
    return code


def decode_minifloat(codes: np.ndarray, dtype: DType) -> np.ndarray:
    """Expand integer bit patterns of ``dtype`` back to FP32 values."""
    _check_minifloat(dtype)
    eb, mb = dtype.exponent_bits, dtype.mantissa_bits
    bias = dtype.exponent_bias
    codes = np.asarray(codes, dtype=np.uint32)
    sign = (codes >> np.uint32(eb + mb)) & np.uint32(1)
    biased = (codes >> np.uint32(mb)) & np.uint32((1 << eb) - 1)
    mant = codes & np.uint32((1 << mb) - 1)
    # 1.f * 2**e evaluated in float32: the fraction has mb <= 10 bits and
    # every decoded value is a normal float32, so ldexp is exact and the
    # result matches the original float64 formulation bit-for-bit.
    frac = mant.astype(np.float32)
    frac *= np.float32(1.0 / (1 << mb))
    frac += np.float32(1.0)
    value = np.ldexp(frac, biased.astype(np.int32) - np.int32(bias))
    value[biased == 0] = 0.0
    np.negative(value, out=value, where=sign == 1)
    return value


# FP16 is IEEE half with three paper-rule differences: no infinities
# (clamp at +-65504, NaN -> +0), no denormals, and no negative zero.  The
# flush threshold is *not* 2**-14: the generic path rounds first and
# flushes after, so it keeps every magnitude that rounds up to 2**-14 at
# normal (10-bit) precision, i.e. from 2**-14 - 2**-26 = 0x387FF000.  IEEE
# would also round [2**-14 - 2**-25, 2**-14 - 2**-26) up, through the
# denormal range; those must flush.  As float32 bits: a magnitude is kept
# iff it lies in [0x387FF000, 0x7F800000] (+Inf included, NaN not), and it
# is clamped at 0x477FE000 (65504).
_FP16_KEEP_LO = np.uint32(0x387FF000)
_FP16_KEEP_SPAN = np.uint32(0x7F800000 - 0x387FF000)
_FP16_CLAMP = np.uint32(0x477FE000)
#: float32 minus FP16 exponent bias (127 - 15), at FP16's exponent field.
_FP16_REBIAS = np.uint32(112 << 10)


def encode_half(x: np.ndarray) -> np.ndarray:
    """``encode_minifloat(x, FP16, "nearest")`` as flat ``uint16`` codes,
    rounded to nearest-even on the float32 bits as integers."""
    bits = np.asarray(x, dtype=np.float32).ravel().view(np.uint32)
    mag = bits & np.uint32(0x7FFFFFFF)
    # One unsigned range test: magnitudes below the floor wrap to huge.
    keep = mag - _FP16_KEEP_LO
    keep = keep <= _FP16_KEEP_SPAN
    np.minimum(mag, _FP16_CLAMP, out=mag)
    # Round half to even at bit 13: add 0xFFF plus the kept LSB; a
    # mantissa carry runs into the exponent, as the generic path's does.
    lsb = mag >> np.uint32(13)
    lsb &= np.uint32(1)
    mag += lsb
    mag += np.uint32(0xFFF)
    # The shift writes the uint16 codes directly; from here on the
    # arithmetic is mod 2**16, where the rebias 0x1C000 is 0xC000.
    code = np.right_shift(mag, np.uint32(13), casting="unsafe",
                          out=np.empty(mag.shape, np.uint16))
    code -= np.uint16(_FP16_REBIAS & 0xFFFF)
    sign = np.right_shift(bits, np.uint32(16), casting="unsafe",
                          out=np.empty(mag.shape, np.uint16))
    sign &= np.uint16(0x8000)
    code |= sign
    code *= keep  # zero every value not kept: NaN, +-0 and the flushed
    return code


def decode_half(codes: np.ndarray) -> np.ndarray:
    """``decode_minifloat(codes, FP16)`` for ``uint16`` codes, on the bits.

    Every code is read by the paper rule, not IEEE's: denormal codes are
    signed zeros and the reserved top exponent is one more binade (2**16),
    never Inf/NaN.
    """
    word = np.asarray(codes, dtype=np.uint16).astype(np.uint32)
    sign = word >> np.uint32(15)
    sign <<= np.uint32(31)
    word &= np.uint32(0x7FFF)
    normal = word >= np.uint32(0x0400)  # exponent field != 0
    word += _FP16_REBIAS
    word <<= np.uint32(13)
    word *= normal
    word |= sign
    return word.view(np.float32)


def quantize(x: np.ndarray, dtype: DType, rounding: str = "nearest") -> np.ndarray:
    """Round-trip ``x`` through ``dtype``: the value error DPR injects."""
    return decode_minifloat(encode_minifloat(x, dtype, rounding), dtype)


def max_relative_error(dtype: DType) -> float:
    """Worst-case relative rounding error for in-range normal values.

    Half a unit in the last place: ``2 ** -(mantissa_bits + 1)``.
    """
    _check_minifloat(dtype)
    return 2.0 ** -(dtype.mantissa_bits + 1)
