"""Bit-exact minifloat quantisation (the substrate for DPR).

Implements the paper's reduced-precision storage formats:

* FP16 — 1 sign / 5 exponent / 10 mantissa bits,
* FP10 — 1 sign / 5 exponent / 4 mantissa bits,
* FP8  — 1 sign / 4 exponent / 3 mantissa bits,

with the paper's exact conversion rules: round-to-nearest, clamping at the
format's maximum/minimum representable magnitude (no infinities), and
denormals flushed to zero ("we ignore denormalized numbers as they have
negligible effect on CNN accuracy").

* :func:`encode_minifloat` / :func:`decode_minifloat` — produce and consume
  raw integer *bit patterns*, used by the DPR packer: one body, integer
  operations on the float32 bits, for every format and both roundings.
* :func:`encode_minifloat_reference` / :func:`decode_minifloat_reference`
  — the frexp/ldexp chain the body is held to byte for byte (tests only).
* :func:`quantize` — encode-then-decode in one step, used wherever only the
  value error matters (accuracy experiments, error-bound property tests).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.dtypes import DType


def _check_minifloat(dtype: DType) -> None:
    if dtype.exponent_bits is None or dtype.mantissa_bits is None:
        raise ValueError(f"dtype {dtype.name} is not a float format")
    if dtype.bits > 32:
        raise ValueError(f"dtype {dtype.name} too wide for 32-bit codes")


@functools.lru_cache(maxsize=None)
def _decoder(dtype: DType) -> tuple:
    """:func:`decode_minifloat`'s constants, built once per format: the
    code width (eb + mb), its field mask, the smallest normal code, the
    float32 rebias ``(127 - bias) << mb`` and the mantissa shift 23 - mb."""
    _check_minifloat(dtype)
    mb, width = dtype.mantissa_bits, dtype.exponent_bits + dtype.mantissa_bits
    u = np.uint32
    return (u(width), u((1 << width) - 1), u(1 << mb),
            u((127 - dtype.exponent_bias) << mb), u(23 - mb))


@functools.lru_cache(maxsize=None)
def _encoder(dtype: DType, rounding: str) -> tuple:
    """:func:`encode_minifloat`'s constants, built once per (format,
    rounding)."""
    width, _, _, rebias, shift = map(int, _decoder(dtype))
    if rounding not in ("nearest", "truncate"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    u, store = np.uint32, np.min_scalar_type((1 << dtype.bits) - 1).type
    # Round to nearest keeps what rounds up to min_normal: from half a
    # code ULP (at the binade below) under it.  IEEE would round more up,
    # through the denormal range; that flushes.  mb = 23 rounds nothing.
    half = 1 << (shift - 1) if rounding == "nearest" and shift else 0
    lo = int(np.float32(dtype.min_normal).view(u)) - half
    return (u(lo), u(0x7F800000 - lo), np.float32(dtype.max_finite).view(u),
            u(max(half - 1, 0)), u(shift), store,
            store(rebias & np.iinfo(store).max), u(31 - width),
            store(1 << width))


def encode_minifloat(x: np.ndarray, dtype: DType, rounding: str = "nearest") -> np.ndarray:
    """Quantise FP32 values to integer bit patterns of ``dtype``.

    Args:
        x: Input array (any shape); converted to float32 first.
        dtype: Target minifloat format.
        rounding: ``"nearest"`` (round-half-even, the paper's choice) or
            ``"truncate"`` (ablation).

    Returns:
        Array of ``x.shape`` holding ``dtype.bits``-wide codes at their
        storage width: ``uint16`` for FP16 and FP10, ``uint8`` for FP8.
    """
    lo, span, clamp, round_add, shift, store, rebias, sign_shift, sign_bit = (
        _encoder(dtype, rounding))
    x = np.asarray(x, dtype=np.float32)
    bits = x.ravel().view(np.uint32)
    mag = bits & np.uint32(0x7FFFFFFF)
    # Kept iff lo <= |bits| <= +Inf, as one unsigned compare (smaller
    # magnitudes wrap to huge): NaN, +-0 and what flushes fail it.
    keep = mag - lo
    keep = keep <= span
    # Clamp overflow at the largest finite magnitude (paper: "the value is
    # clamped at maximum/minimum value").
    np.minimum(mag, clamp, out=mag)
    if round_add:
        # Round half to even: add half an ULP minus one plus the kept
        # LSB; a mantissa carry runs into the exponent.
        lsb = mag >> shift
        lsb &= np.uint32(1)
        mag += lsb
        mag += round_add
    # The shift writes the codes at their storage width; from here on the
    # arithmetic wraps at that width, where every kept code fits.
    code = np.right_shift(mag, shift, casting="unsafe",
                          out=np.empty(mag.shape, store))
    code -= rebias
    sign = np.right_shift(bits, sign_shift, casting="unsafe",
                          out=np.empty(mag.shape, store))
    sign &= sign_bit
    code |= sign
    code *= keep  # zero every value not kept
    return code.reshape(x.shape)


def decode_minifloat(codes: np.ndarray, dtype: DType) -> np.ndarray:
    """Expand integer bit patterns of ``dtype`` back to FP32 values.

    Every code is read by the paper rule, not IEEE's: denormal codes are
    signed zeros and the reserved top exponent is one more binade, never
    Inf/NaN.
    """
    width, mask, min_code, rebias, shift = _decoder(dtype)
    word = np.array(codes, dtype=np.uint32)
    sign = word >> width
    sign <<= np.uint32(31)  # drops any bits above the code's own
    word &= mask
    normal = word >= min_code  # exponent field != 0
    word += rebias
    word <<= shift
    word *= normal
    word |= sign
    return word.view(np.float32)


def encode_minifloat_reference(x: np.ndarray, dtype: DType,
                               rounding: str = "nearest") -> np.ndarray:
    """:func:`encode_minifloat` as a frexp/rint chain in float32, with
    ``uint32`` codes: the ground truth its integer body is held to."""
    _check_minifloat(dtype)
    if rounding not in ("nearest", "truncate"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    eb, mb = dtype.exponent_bits, dtype.mantissa_bits
    bias = dtype.exponent_bias
    x = np.asarray(x, dtype=np.float32)

    # Every intermediate (frexp output, 1.f remainder, the scaled
    # mantissa f * 2**mb) is exactly representable in float32.
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


def decode_minifloat_reference(codes: np.ndarray, dtype: DType) -> np.ndarray:
    """:func:`decode_minifloat` as an ldexp chain: its ground truth."""
    _check_minifloat(dtype)
    eb, mb = dtype.exponent_bits, dtype.mantissa_bits
    bias = dtype.exponent_bias
    codes = np.asarray(codes, dtype=np.uint32)
    sign = (codes >> np.uint32(eb + mb)) & np.uint32(1)
    biased = (codes >> np.uint32(mb)) & np.uint32((1 << eb) - 1)
    mant = codes & np.uint32((1 << mb) - 1)
    # 1.f * 2**e in float32: the fraction has mb <= 10 bits and every
    # decoded value is a normal float32, so ldexp is exact.
    frac = mant.astype(np.float32)
    frac *= np.float32(1.0 / (1 << mb))
    frac += np.float32(1.0)
    value = np.ldexp(frac, biased.astype(np.int32) - np.int32(bias))
    value[biased == 0] = 0.0
    np.negative(value, out=value, where=sign == 1)
    return value


def quantize(x: np.ndarray, dtype: DType, rounding: str = "nearest") -> np.ndarray:
    """Round-trip ``x`` through ``dtype``: the value error DPR injects."""
    return decode_minifloat(encode_minifloat(x, dtype, rounding), dtype)


def max_relative_error(dtype: DType) -> float:
    """Worst-case relative rounding error for in-range normal values.

    Half a unit in the last place: ``2 ** -(mantissa_bits + 1)``.
    """
    _check_minifloat(dtype)
    return 2.0 ** -(dtype.mantissa_bits + 1)
