"""Tests for the minifloat quantisation substrate."""

import numpy as np
import pytest

from repro.dtypes import BIT1, FP8, FP10, FP16
from repro.encodings.floatsim import (
    decode_minifloat,
    encode_minifloat,
    max_relative_error,
    quantize,
)


class TestFP16AgainstNumPy:
    """IEEE half precision is our cross-check oracle on normals."""

    def test_matches_numpy_half_on_normals(self, rng):
        x = rng.normal(0, 10, 5000).astype(np.float32)
        x = x[np.abs(x) >= 2.0**-14]  # normals only (we flush denormals)
        ours = quantize(x, FP16)
        ref = x.astype(np.float16).astype(np.float32)
        np.testing.assert_array_equal(ours, ref)

    def test_clamps_instead_of_inf(self):
        x = np.array([1e38, -1e38], dtype=np.float32)
        q = quantize(x, FP16)
        assert q[0] == pytest.approx(65504.0)
        assert q[1] == pytest.approx(-65504.0)

    def test_denormals_flush_to_zero(self):
        x = np.array([1e-8, -1e-8], dtype=np.float32)
        np.testing.assert_array_equal(quantize(x, FP16), [0.0, 0.0])


@pytest.mark.parametrize("dtype", [FP16, FP10, FP8], ids=lambda d: d.name)
class TestGenericMinifloat:
    def test_zero_is_exact(self, dtype):
        assert quantize(np.zeros(3, np.float32), dtype).tolist() == [0, 0, 0]

    def test_sign_preserved(self, dtype, rng):
        x = rng.normal(0, 1, 500).astype(np.float32)
        q = quantize(x, dtype)
        nz = q != 0
        assert (np.sign(q[nz]) == np.sign(x[nz])).all()

    def test_relative_error_bound(self, dtype, rng):
        x = rng.normal(0, 1, 4000).astype(np.float32)
        in_range = (np.abs(x) >= dtype.min_normal) & (
            np.abs(x) <= dtype.max_finite
        )
        x = x[in_range]
        q = quantize(x, dtype)
        rel = np.abs(q - x) / np.abs(x)
        assert rel.max() <= max_relative_error(dtype) * (1 + 1e-6)

    def test_idempotent(self, dtype, rng):
        x = rng.normal(0, 2, 1000).astype(np.float32)
        once = quantize(x, dtype)
        twice = quantize(once, dtype)
        np.testing.assert_array_equal(once, twice)

    def test_powers_of_two_exact(self, dtype):
        exps = np.arange(1 - dtype.exponent_bias, 4)
        x = (2.0**exps).astype(np.float32)
        np.testing.assert_array_equal(quantize(x, dtype), x)

    def test_monotonic(self, dtype):
        x = np.linspace(-5, 5, 2001, dtype=np.float32)
        q = quantize(x, dtype)
        assert (np.diff(q) >= 0).all()

    def test_clamp_at_max(self, dtype):
        over = np.array([dtype.max_finite * 4], np.float32)
        assert quantize(over, dtype)[0] == pytest.approx(dtype.max_finite,
                                                         rel=1e-6)

    def test_codes_fit_bit_width(self, dtype, rng):
        x = rng.normal(0, 100, 1000).astype(np.float32)
        codes = encode_minifloat(x, dtype)
        assert codes.max() < (1 << dtype.bits)

    def test_decode_encode_identity_on_codes(self, dtype, rng):
        x = rng.normal(0, 1, 300).astype(np.float32)
        codes = encode_minifloat(x, dtype)
        values = decode_minifloat(codes, dtype)
        codes2 = encode_minifloat(values, dtype)
        np.testing.assert_array_equal(codes, codes2)

    def test_codes_at_storage_width(self, dtype, rng):
        x = rng.normal(0, 1, (3, 7)).astype(np.float32)
        codes = encode_minifloat(x, dtype)
        assert codes.shape == x.shape
        assert codes.itemsize * 8 == (8 if dtype.bits == 8 else 16)

    def test_nan_maps_to_zero(self, dtype):
        x = np.array([np.nan], dtype=np.float32)
        assert quantize(x, dtype)[0] == 0.0

    def test_truncate_rounds_toward_zero(self, dtype, rng):
        x = np.abs(rng.normal(0, 1, 1000).astype(np.float32)) + dtype.min_normal
        trunc = quantize(x, dtype, rounding="truncate")
        in_range = x <= dtype.max_finite
        assert (trunc[in_range] <= x[in_range] + 1e-12).all()


class TestValidation:
    def test_rejects_non_float_dtype(self):
        with pytest.raises(ValueError):
            encode_minifloat(np.ones(2, np.float32), BIT1)

    def test_rejects_unknown_rounding(self):
        with pytest.raises(ValueError):
            encode_minifloat(np.ones(2, np.float32), FP16, rounding="up")

    def test_shape_preserved(self, rng):
        x = rng.normal(0, 1, (3, 4, 5)).astype(np.float32)
        assert quantize(x, FP10).shape == (3, 4, 5)
