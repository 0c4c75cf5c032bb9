"""Tests for the dtype descriptors and their byte accounting."""

import pytest

from repro.dtypes import (
    BIT1,
    DPR_FORMATS,
    FP8,
    FP10,
    FP16,
    FP32,
    NIBBLE4,
    UINT8,
)


class TestSizeAccounting:
    def test_fp32(self):
        assert FP32.size_bytes(10) == 40

    def test_fp16_packs_two_per_word(self):
        assert FP16.size_bytes(2) == 4
        assert FP16.size_bytes(3) == 8  # rounds up to whole words
        assert FP16.size_bytes(1000) == 2000

    def test_fp10_packs_three_per_word(self):
        # The paper: 3 x 10-bit values per 4 bytes, 2 bits wasted.
        assert FP10.size_bytes(3) == 4
        assert FP10.size_bytes(4) == 8
        assert FP10.size_bytes(999) == 4 * 333

    def test_fp8_packs_four_per_word(self):
        assert FP8.size_bytes(4) == 4
        assert FP8.size_bytes(5) == 8

    def test_bit1_is_32x_smaller(self):
        n = 32 * 1000
        assert FP32.size_bytes(n) / BIT1.size_bytes(n) == 32.0

    def test_nibble_is_8x_smaller(self):
        n = 8 * 100
        assert FP32.size_bytes(n) / NIBBLE4.size_bytes(n) == 8.0

    def test_zero_elements(self):
        for dt in (FP32, FP16, FP10, FP8, BIT1, NIBBLE4, UINT8):
            assert dt.size_bytes(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FP32.size_bytes(-1)


class TestMinifloatFields:
    def test_paper_field_layouts(self):
        # FP16: 1/5/10, FP10: 1/5/4, FP8: 1/4/3 (paper Section IV-A).
        assert (FP16.exponent_bits, FP16.mantissa_bits) == (5, 10)
        assert (FP10.exponent_bits, FP10.mantissa_bits) == (5, 4)
        assert (FP8.exponent_bits, FP8.mantissa_bits) == (4, 3)

    def test_bias(self):
        assert FP16.exponent_bias == 15
        assert FP8.exponent_bias == 7
        assert FP32.exponent_bias == 127

    def test_max_finite_ordering(self):
        assert FP8.max_finite < FP10.max_finite < FP16.max_finite
        assert FP16.max_finite == 65504.0  # IEEE half precision
        assert FP8.max_finite == 240.0

    def test_min_normal(self):
        assert FP16.min_normal == 2.0**-14
        assert FP8.min_normal == 2.0**-6

    def test_non_float_has_no_exponent(self):
        with pytest.raises(ValueError):
            _ = BIT1.exponent_bias
        with pytest.raises(ValueError):
            _ = UINT8.max_finite


class TestLookup:
    def test_by_name(self):
        assert DPR_FORMATS["fp10"] is FP10
        assert DPR_FORMATS["fp8"] is FP8

    def test_dpr_formats_registry(self):
        assert set(DPR_FORMATS) == {"fp16", "fp10", "fp8"}

    def test_is_minifloat(self):
        # The DPR registry holds exactly the reduced-precision floats.
        def minifloat(d):
            return d.kind == "float" and d.bits < 32

        assert all(minifloat(d) for d in DPR_FORMATS.values())
        assert not minifloat(FP32)
        assert not minifloat(UINT8)
