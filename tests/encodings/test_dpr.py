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
    encode_minifloat,
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


def _generic_encode(x, dtype, rounding="nearest"):
    return pack_codes(encode_minifloat(x, dtype, rounding), dtype)


def _generic_decode(words, n, dtype):
    return decode_minifloat(unpack_codes(words, n, dtype), dtype)


def _fp16_sweep():
    """Every float32 exponent x every 11-bit mantissa prefix (the 10 kept
    bits and the rounding bit) x the low-bit patterns that decide a tie,
    both signs: NaN, +-Inf, denormals and +-0 included, odd length."""
    exponent = np.arange(256, dtype=np.uint32)[:, None, None] << 23
    prefix = np.arange(2048, dtype=np.uint32)[None, :, None] << 12
    low13 = np.array([0, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF],
                     np.uint32)[None, None, :]
    magnitude = (exponent | prefix | low13).ravel()
    bits = np.concatenate([magnitude, magnitude | np.uint32(1 << 31)])
    return bits[:-1].view(np.float32)


class TestFusedWords:
    """``encode_words`` / ``decode_words`` are the generic two-call chains
    bit for bit; FP16 round-to-nearest takes the integer half codec."""

    def test_fp16_route_is_bit_identical_on_the_structured_sweep(self):
        x = _fp16_sweep()
        assert x.size % 2 == 1 and x.size > 6_000_000
        want = _generic_encode(x, FP16)
        words = encode_words(x, FP16)
        assert words.dtype == want.dtype == np.uint32
        assert np.array_equal(words, want)
        got = decode_words(words, x.size, FP16)
        assert got.dtype == np.float32
        assert got.tobytes() == _generic_decode(want, x.size, FP16).tobytes()

    def test_fp16_flush_boundary_is_the_paper_rule_not_ieee(self):
        # IEEE half rounds [2**-14 - 2**-25, 2**-14 - 2**-26) up to 2**-14
        # through the denormal range; the paper rule flushes it.
        bits = np.array([0x387FEFFF, 0x387FF000, 0x387FE000, 0x38800000],
                        np.uint32)
        x = np.concatenate([bits, bits | np.uint32(1 << 31)]).view(np.float32)
        assert list(x[:3].astype(np.float16).view(np.uint16)) == [0x0400] * 3
        codes = encode_words(x, FP16).view(np.uint16)
        assert list(codes) == [0, 0x0400, 0, 0x0400, 0, 0x8400, 0, 0x8400]
        assert np.array_equal(encode_words(x, FP16), _generic_encode(x, FP16))

    def test_fp16_decode_of_every_code(self):
        # Including what the encoder never emits: 0x8000 -> -0.0, denormal
        # codes -> signed zero, the reserved top exponent -> 2**16 * 1.f.
        codes = np.arange(1 << 16, dtype=np.uint32)
        words = pack_codes(codes, FP16)
        got = decode_words(words, codes.size, FP16)
        assert got.tobytes() == decode_minifloat(codes, FP16).tobytes()
        assert np.signbit(got[0x8000]) and got[0x8000] == 0
        assert got[0x7C00] == 65536.0 and np.isfinite(got).all()

    def test_encode_leaves_its_input_alone(self, rng):
        x = rng.normal(0, 100, 33).astype(np.float32)
        x[:3] = (np.nan, -0.0, 1e9)
        before = x.tobytes()
        encode_words(x, FP16)
        assert x.tobytes() == before

    @pytest.mark.parametrize("dtype,rounding", [
        (FP16, "truncate"), (FP10, "nearest"), (FP10, "truncate"),
        (FP8, "nearest"), (FP8, "truncate"),
    ], ids=lambda v: getattr(v, "name", v))
    def test_other_formats_keep_the_generic_path(self, dtype, rounding, rng):
        x = rng.normal(0, 8, (5, 21)).astype(np.float32)
        words = encode_words(x, dtype, rounding)
        assert np.array_equal(words, _generic_encode(x, dtype, rounding))
        got = decode_words(words, x.size, dtype)
        assert got.tobytes() == _generic_decode(words, x.size, dtype).tobytes()

    @pytest.mark.parametrize("shape", [(0,), (1,), (3, 5), (2, 3, 4, 4)])
    def test_fp16_encoding_any_shape_and_layout(self, shape, rng):
        x = rng.normal(0, 1, shape).astype(np.float32)
        if x.ndim == 4:
            x = x.transpose(0, 2, 3, 1)  # NHWC-strided view, as convs emit
        enc = DPREncoding(FP16)
        stash = enc.encode(x)
        assert np.array_equal(stash.words, _generic_encode(x, FP16))
        assert np.array_equal(enc.decode(stash), quantize(x, FP16))
