"""Tests for TensorSpec."""

import pytest

from repro.dtypes import BIT1, FP16, FP32
from repro.tensor import TensorSpec


class TestTensorSpec:
    def test_elements_and_bytes(self):
        spec = TensorSpec("t", (64, 3, 224, 224))
        assert spec.num_elements == 64 * 3 * 224 * 224
        assert spec.size_bytes == 4 * spec.num_elements

    def test_packed_dtype_bytes(self):
        spec = TensorSpec("t", (33,), BIT1)
        assert spec.size_bytes == 8  # two words

    def test_with_dtype_renames(self):
        spec = TensorSpec("fm", (10, 10))
        enc = spec.with_dtype(FP16, ".enc")
        assert enc.name == "fm.enc"
        assert enc.dtype is FP16
        assert spec.dtype is FP32  # original untouched

    def test_size_bytes_is_derived_not_identity(self):
        # Computed once at construction: recomputed for a re-typed copy,
        # and no part of equality, hash or repr.
        spec = TensorSpec("fm", (10, 10))
        assert spec.with_dtype(FP16).size_bytes == spec.size_bytes // 2
        assert spec == TensorSpec("fm", (10, 10))
        assert hash(spec) == hash(TensorSpec("fm", (10, 10)))
        assert "size_bytes" not in repr(spec)

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            TensorSpec("t", ())

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            TensorSpec("t", (4, 0))

    def test_str(self):
        assert "4x2" in str(TensorSpec("t", (4, 2)))
