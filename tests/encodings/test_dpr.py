"""Tests for DPR packing and the DPR encoding."""

import numpy as np
import pytest

from repro.dtypes import FP8, FP10, FP16, FP32
from repro.encodings.dpr import (
    DPREncoding,
    decode_words,
    dpr_encoding,
    encode_words,
    pack_codes,
    unpack_codes,
)
from repro.encodings.floatsim import (
    decode_minifloat,
    decode_minifloat_reference,
    encode_minifloat,
    encode_minifloat_reference,
    quantize,
)


@pytest.mark.parametrize("dtype", [FP16, FP10, FP8], ids=lambda d: d.name)
class TestPacking:
    def test_roundtrip(self, dtype, rng):
        n = 101  # deliberately not a multiple of values_per_word
        codes = rng.integers(0, 1 << dtype.bits, n).astype(np.uint32)
        words = pack_codes(codes, dtype)
        np.testing.assert_array_equal(unpack_codes(words, n, dtype), codes)

    def test_word_count(self, dtype):
        n = 100
        words = pack_codes(np.zeros(n, np.uint32), dtype)
        expected = -(-n // dtype.values_per_word)
        assert words.size == expected

    def test_no_cross_lane_bleed(self, dtype):
        # All-ones codes in every lane must unpack to all-ones exactly.
        k = dtype.values_per_word
        codes = np.full(k, (1 << dtype.bits) - 1, np.uint32)
        words = pack_codes(codes, dtype)
        assert words.size == 1
        np.testing.assert_array_equal(unpack_codes(words, k, dtype), codes)


class TestDPREncoding:
    @pytest.mark.parametrize("name", ["fp16", "fp10", "fp8"])
    def test_decode_equals_quantize(self, name, rng):
        enc = dpr_encoding(name)
        x = rng.normal(0, 1, (8, 13)).astype(np.float32)
        out = enc.decode(enc.encode(x))
        np.testing.assert_array_equal(out, quantize(x, enc.dtype))

    def test_shape_restored(self, rng):
        enc = dpr_encoding("fp8")
        x = rng.normal(0, 1, (2, 3, 4, 5)).astype(np.float32)
        assert enc.decode(enc.encode(x)).shape == (2, 3, 4, 5)

    def test_static_size_matches_runtime(self, rng):
        for name in ("fp16", "fp10", "fp8"):
            enc = dpr_encoding(name)
            x = rng.normal(0, 1, 997).astype(np.float32)
            assert enc.measure_bytes(enc.encode(x)) == enc.encoded_bytes(997)

    def test_compression_ratios(self):
        # FP16 = 2x, FP10 ~ 3x (2 wasted bits), FP8 = 4x.
        n = 3 * 2 * 4 * 100
        assert dpr_encoding("fp16").encoded_bytes(n) * 2 == 4 * n
        assert dpr_encoding("fp8").encoded_bytes(n) * 4 == 4 * n
        fp10 = dpr_encoding("fp10").encoded_bytes(n)
        assert 4 * n / fp10 == pytest.approx(3.0)

    def test_lossless_flag(self):
        assert not dpr_encoding("fp16").lossless

    def test_rejects_fp32(self):
        with pytest.raises(ValueError):
            DPREncoding(FP32)

    def test_unknown_format(self):
        with pytest.raises(KeyError):
            dpr_encoding("fp12")

    def test_name(self):
        assert dpr_encoding("fp10").name == "dpr-fp10"


def _reference_encode(x, dtype, rounding="nearest"):
    return pack_codes(encode_minifloat_reference(x, dtype, rounding), dtype)


def _reference_decode(words, n, dtype):
    return decode_minifloat_reference(unpack_codes(words, n, dtype), dtype)


def _sweep(dtype):
    """Every float32 exponent x every (mb+1)-bit mantissa prefix (the mb
    kept bits and the rounding bit) x the low-bit patterns that decide a
    tie, both signs: NaN, +-Inf, denormals and +-0 included, odd length."""
    low_bits = 22 - dtype.mantissa_bits  # below the rounding bit
    exponent = np.arange(256, dtype=np.uint32)[:, None, None] << 23
    prefix = np.arange(2 << dtype.mantissa_bits,
                       dtype=np.uint32)[None, :, None] << low_bits
    ones = (1 << low_bits) - 1
    low = np.array([0, 1, ones >> 1, (ones >> 1) + 1, ones - 1, ones],
                   np.uint32)[None, None, :]
    magnitude = (exponent | prefix | low).ravel()
    bits = np.concatenate([magnitude, magnitude | np.uint32(1 << 31)])
    return bits[:-1].view(np.float32)


_FORMATS_AND_ROUNDINGS = [(dtype, rounding) for dtype in (FP16, FP10, FP8)
                          for rounding in ("nearest", "truncate")]


class TestFusedWords:
    """One integer body for every format and rounding: ``encode_words`` /
    ``decode_words`` and ``encode_minifloat`` / ``decode_minifloat`` are
    the frexp/ldexp reference chain bit for bit."""

    @pytest.mark.parametrize("dtype,rounding", _FORMATS_AND_ROUNDINGS,
                             ids=lambda v: getattr(v, "name", v))
    def test_structured_sweep_is_the_reference(self, dtype, rounding):
        x = _sweep(dtype)
        assert x.size == 2 * 256 * (2 << dtype.mantissa_bits) * 6 - 1
        codes = encode_minifloat(x, dtype, rounding)
        want_codes = encode_minifloat_reference(x, dtype, rounding)
        assert codes.dtype == (np.uint8 if dtype.bits == 8 else np.uint16)
        assert np.array_equal(codes, want_codes)
        want = pack_codes(want_codes, dtype)
        words = encode_words(x, dtype, rounding)
        assert words.dtype == want.dtype == np.uint32
        assert np.array_equal(words, want)
        got = decode_words(words, x.size, dtype)
        assert got.dtype == np.float32
        assert got.tobytes() == _reference_decode(want, x.size, dtype).tobytes()
        assert (decode_minifloat(codes, dtype).tobytes()
                == decode_minifloat_reference(want_codes, dtype).tobytes())

    @pytest.mark.parametrize("dtype", [FP10, FP8], ids=lambda d: d.name)
    def test_decode_of_every_code(self, dtype):
        # FP16's own test below; the same paper-rule facts per format.
        codes = np.arange(1 << dtype.bits, dtype=np.uint32)
        want = decode_minifloat_reference(codes, dtype)
        assert decode_minifloat(codes, dtype).tobytes() == want.tobytes()
        words = pack_codes(codes, dtype)
        got = decode_words(words, codes.size, dtype)
        assert got.tobytes() == want.tobytes()
        sign = 1 << (dtype.bits - 1)
        assert np.signbit(got[sign]) and got[sign] == 0
        top_exponent = (1 << dtype.exponent_bits) - 1  # reserved by IEEE
        top = top_exponent << dtype.mantissa_bits
        assert got[top] == 2.0 ** (top_exponent - dtype.exponent_bias)
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("dtype,rounding", _FORMATS_AND_ROUNDINGS,
                             ids=lambda v: getattr(v, "name", v))
    def test_flush_boundary(self, dtype, rounding):
        # Round to nearest keeps what rounds up to min_normal: from half a
        # code ULP (at the binade below) under it; truncation from it.
        normal = int(np.float32(dtype.min_normal).view(np.uint32))
        floor = normal
        if rounding == "nearest":
            floor -= 1 << (22 - dtype.mantissa_bits)
        bits = np.array([floor - 1, floor, normal], np.uint32)
        x = np.concatenate([bits, bits | np.uint32(1 << 31)]).view(np.float32)
        min_code = 1 << dtype.mantissa_bits
        sign = 1 << (dtype.bits - 1)
        codes = encode_minifloat(x, dtype, rounding)
        assert list(codes) == [0, min_code, min_code,
                               0, sign | min_code, sign | min_code]
        assert np.array_equal(codes,
                              encode_minifloat_reference(x, dtype, rounding))

    def test_fp16_flush_boundary_is_the_paper_rule_not_ieee(self):
        # IEEE half rounds [2**-14 - 2**-25, 2**-14 - 2**-26) up to 2**-14
        # through the denormal range; the paper rule flushes it.
        bits = np.array([0x387FEFFF, 0x387FF000, 0x387FE000, 0x38800000],
                        np.uint32)
        x = np.concatenate([bits, bits | np.uint32(1 << 31)]).view(np.float32)
        assert list(x[:3].astype(np.float16).view(np.uint16)) == [0x0400] * 3
        codes = encode_words(x, FP16).view(np.uint16)
        assert list(codes) == [0, 0x0400, 0, 0x0400, 0, 0x8400, 0, 0x8400]
        assert np.array_equal(encode_words(x, FP16), _reference_encode(x, FP16))

    def test_fp16_decode_of_every_code(self):
        # Including what the encoder never emits: 0x8000 -> -0.0, denormal
        # codes -> signed zero, the reserved top exponent -> 2**16 * 1.f.
        codes = np.arange(1 << 16, dtype=np.uint32)
        words = pack_codes(codes, FP16)
        got = decode_words(words, codes.size, FP16)
        assert got.tobytes() == decode_minifloat_reference(codes, FP16).tobytes()
        assert np.signbit(got[0x8000]) and got[0x8000] == 0
        assert got[0x7C00] == 65536.0 and np.isfinite(got).all()

    def test_encode_leaves_its_input_alone(self, rng):
        x = rng.normal(0, 100, 33).astype(np.float32)
        x[:3] = (np.nan, -0.0, 1e9)
        before = x.tobytes()
        for dtype, rounding in _FORMATS_AND_ROUNDINGS:
            encode_words(x, dtype, rounding)
        assert x.tobytes() == before

    @pytest.mark.parametrize("shape", [(0,), (1,), (3, 5), (2, 3, 4, 4)])
    def test_fp16_encoding_any_shape_and_layout(self, shape, rng):
        x = rng.normal(0, 1, shape).astype(np.float32)
        if x.ndim == 4:
            x = x.transpose(0, 2, 3, 1)  # NHWC-strided view, as convs emit
        enc = DPREncoding(FP16)
        stash = enc.encode(x)
        assert np.array_equal(stash.words, _reference_encode(x, FP16))
        assert np.array_equal(enc.decode(stash), quantize(x, FP16))
