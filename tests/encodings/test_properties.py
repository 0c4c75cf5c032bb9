"""Hypothesis property-based tests for the encoding substrates.

These assert the invariants every experiment leans on: exact round-trips
for lossless codecs, bounded error and idempotence for lossy ones, and
byte-accounting consistency between the static size models and the runtime
representations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.dtypes import FP8, FP10, FP16
from repro.encodings.binarize import pack_bits, unpack_bits
from repro.encodings.dpr import dpr_encoding, pack_codes, unpack_codes
from repro.encodings.floatsim import max_relative_error, quantize
from repro.encodings.ssdc import csr_bytes, csr_decode, csr_encode

DPR_DTYPES = [FP16, FP10, FP8]

_F32_BOUND = float(np.float32(1e30))
finite_f32 = st.floats(min_value=-_F32_BOUND, max_value=_F32_BOUND, width=32)

f32_arrays = hnp.arrays(
    dtype=np.float32,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=40),
    elements=finite_f32,
)

bool_arrays = hnp.arrays(
    dtype=bool,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=300),
)


class TestBitPackingProperties:
    @given(mask=bool_arrays)
    def test_pack_unpack_identity(self, mask):
        np.testing.assert_array_equal(
            unpack_bits(pack_bits(mask), mask.shape), mask
        )

    @given(mask=bool_arrays)
    def test_packed_words_are_exactly_ceil(self, mask):
        words = pack_bits(mask)
        assert words.size == -(-mask.size // 32)


class TestMinifloatProperties:
    @given(x=f32_arrays, dtype_idx=st.integers(0, 2))
    def test_idempotent(self, x, dtype_idx):
        dtype = DPR_DTYPES[dtype_idx]
        once = quantize(x, dtype)
        np.testing.assert_array_equal(quantize(once, dtype), once)

    @given(x=f32_arrays, dtype_idx=st.integers(0, 2))
    def test_error_bound_or_flush_or_clamp(self, x, dtype_idx):
        dtype = DPR_DTYPES[dtype_idx]
        q = quantize(x, dtype)
        mag = np.abs(x)
        in_range = (mag >= dtype.min_normal) & (mag <= dtype.max_finite)
        if in_range.any():
            rel = np.abs(q[in_range] - x[in_range]) / mag[in_range]
            assert rel.max() <= max_relative_error(dtype) * (1 + 1e-6)
        # Below range: flushed to zero; above range: clamped to max.
        below = mag < dtype.min_normal * (1 - max_relative_error(dtype))
        assert (q[below] == 0).all()
        above = mag > dtype.max_finite
        np.testing.assert_allclose(
            np.abs(q[above]), dtype.max_finite, rtol=1e-6
        )

    @given(x=f32_arrays, dtype_idx=st.integers(0, 2))
    def test_sign_never_flips(self, x, dtype_idx):
        dtype = DPR_DTYPES[dtype_idx]
        q = quantize(x, dtype)
        assert (q * x >= 0).all()  # zero or same sign

    @given(codes=hnp.arrays(np.uint32, st.integers(1, 200),
                            elements=st.integers(0, (1 << 10) - 1)),
           dtype_idx=st.integers(0, 2))
    def test_pack_codes_roundtrip(self, codes, dtype_idx):
        dtype = DPR_DTYPES[dtype_idx]
        codes = codes & np.uint32((1 << dtype.bits) - 1)
        words = pack_codes(codes, dtype)
        np.testing.assert_array_equal(
            unpack_codes(words, codes.size, dtype), codes
        )


class TestDPRProperties:
    @settings(max_examples=30)
    @given(x=f32_arrays, name=st.sampled_from(["fp16", "fp10", "fp8"]))
    def test_decode_equals_quantize(self, x, name):
        enc = dpr_encoding(name)
        np.testing.assert_array_equal(
            enc.decode(enc.encode(x)), quantize(x, enc.dtype)
        )

    @settings(max_examples=30)
    @given(x=f32_arrays, name=st.sampled_from(["fp16", "fp10", "fp8"]))
    def test_measured_bytes_match_model(self, x, name):
        enc = dpr_encoding(name)
        assert enc.measure_bytes(enc.encode(x)) == enc.encoded_bytes(x.size)


sparse_arrays = hnp.arrays(
    dtype=np.float32,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=30),
    elements=st.one_of(st.just(0.0), finite_f32),
)


class TestSparseProperties:
    @settings(max_examples=60)
    @given(x=sparse_arrays)
    def test_csr_exact_roundtrip(self, x):
        np.testing.assert_array_equal(csr_decode(csr_encode(x)), x)

    @settings(max_examples=60)
    @given(x=sparse_arrays)
    def test_csr_bytes_model_matches(self, x):
        enc = csr_encode(x)
        assert enc.nbytes == csr_bytes(x.size, float((x == 0).mean()))

    @settings(max_examples=60)
    @given(x=sparse_arrays, cols=st.sampled_from([16, 100, 256]))
    def test_csr_any_row_width(self, x, cols):
        np.testing.assert_array_equal(
            csr_decode(csr_encode(x, cols=cols)), x
        )
