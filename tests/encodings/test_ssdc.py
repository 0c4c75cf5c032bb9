"""Tests for SSDC (CSR + narrow value optimisation) and the bitmap ablation."""

import numpy as np
import pytest

from repro.dtypes import FP8, FP10, FP16, FP32
from repro.encodings.floatsim import quantize
from repro.encodings.ssdc import (
    NARROW_COLS,
    SSDCEncoding,
    bitmap_bytes,
    csr_bytes,
    csr_decode,
    csr_encode,
    csr_encode_reference,
)


def sparse_array(rng, shape, sparsity):
    x = rng.normal(0, 1, shape).astype(np.float32)
    x[rng.random(shape) < sparsity] = 0.0
    return x


class TestCSRRoundtrip:
    @pytest.mark.parametrize("sparsity", [0.0, 0.2, 0.5, 0.8, 0.99, 1.0])
    def test_exact(self, rng, sparsity):
        x = sparse_array(rng, (32, 300), sparsity)
        np.testing.assert_array_equal(csr_decode(csr_encode(x)), x)

    def test_4d_shape(self, rng):
        x = sparse_array(rng, (2, 8, 7, 7), 0.7)
        out = csr_decode(csr_encode(x))
        assert out.shape == x.shape
        np.testing.assert_array_equal(out, x)

    def test_small_array(self, rng):
        x = sparse_array(rng, (5,), 0.4)
        np.testing.assert_array_equal(csr_decode(csr_encode(x)), x)

    def test_all_zero(self):
        x = np.zeros((10, 10), np.float32)
        enc = csr_encode(x)
        assert enc.nnz == 0
        np.testing.assert_array_equal(csr_decode(enc), x)

    def test_narrow_indices_are_uint8(self, rng):
        enc = csr_encode(sparse_array(rng, (4, 1000), 0.5))
        assert enc.col_idx.dtype == np.uint8

    def test_wide_indices_are_int32(self, rng):
        enc = csr_encode(sparse_array(rng, (4, 1000), 0.5), cols=4000)
        assert enc.col_idx.dtype == np.int32

    def test_rejects_bad_cols(self):
        with pytest.raises(ValueError):
            csr_encode(np.zeros(4, np.float32), cols=0)

    @pytest.mark.parametrize("cols", [0, -3])
    @pytest.mark.parametrize("entry", [
        lambda cols: csr_encode(np.ones(10, np.float32), cols),
        lambda cols: csr_encode_reference(np.ones(10, np.float32), cols),
        lambda cols: csr_bytes(10, 0.5, cols=cols),
        lambda cols: SSDCEncoding(cols=cols).encode(np.ones(10, np.float32)),
        lambda cols: SSDCEncoding(cols=cols).encoded_bytes(10, 0.5),
    ], ids=["csr_encode", "csr_encode_reference", "csr_bytes",
            "SSDCEncoding.encode", "SSDCEncoding.encoded_bytes"])
    def test_every_entry_point_rejects_a_non_positive_width(self, entry,
                                                            cols):
        # A negative width once gave a CSR holding 7 of 10 values and a
        # 33-byte size model; zero divided by zero in the size model.
        with pytest.raises(ValueError, match="cols must be positive"):
            entry(cols)


class TestNarrowValueOptimisation:
    """Paper: narrow indices move the breakeven sparsity from 50% to 20%."""

    def test_narrow_breakeven_near_20pct(self):
        n = 256 * 1024
        dense = 4 * n
        # At 25% sparsity narrow CSR must already compress...
        assert csr_bytes(n, 0.25, cols=NARROW_COLS) < dense
        # ...but wide (cuSPARSE-default, 4-byte) CSR must not.
        assert csr_bytes(n, 0.25, cols=100000) > dense

    def test_wide_breakeven_near_50pct(self):
        n = 1 << 20
        assert csr_bytes(n, 0.55, cols=100000) < 4 * n
        assert csr_bytes(n, 0.45, cols=100000) > 4 * n

    def test_size_model_matches_runtime(self, rng):
        for sparsity in (0.3, 0.6, 0.9):
            x = sparse_array(rng, (64, 512), sparsity)
            enc = csr_encode(x)
            actual = (x == 0).mean()
            assert enc.nbytes == csr_bytes(x.size, actual)

    def test_80pct_sparsity_compression(self):
        # VGG16 regime: >80% sparse maps compress well over 4x.
        n = 1 << 20
        assert 4 * n / csr_bytes(n, 0.85) > 4.5


class TestSSDCWithDPR:
    def test_zero_pattern_positions_preserved(self, rng):
        x = sparse_array(rng, (16, 256), 0.7)
        enc = csr_encode(x, value_dtype=FP8)
        out = csr_decode(enc)
        # Every stored position decodes to the FP8 quantisation of x.
        np.testing.assert_array_equal(out, quantize(x, FP8))

    def test_meta_arrays_untouched_by_dpr(self, rng):
        x = sparse_array(rng, (16, 256), 0.7)
        plain = csr_encode(x)
        lossy = csr_encode(x, value_dtype=FP16)
        np.testing.assert_array_equal(plain.col_idx, lossy.col_idx)
        np.testing.assert_array_equal(plain.row_ptr, lossy.row_ptr)

    def test_dpr_reduces_bytes(self, rng):
        x = sparse_array(rng, (16, 256), 0.5)
        assert csr_encode(x, value_dtype=FP8).nbytes < csr_encode(x).nbytes

    def test_encoding_class(self, rng):
        enc = SSDCEncoding()
        assert enc.lossless
        lossy = SSDCEncoding(value_dtype=FP8)
        assert not lossy.lossless
        assert "dpr-fp8" in lossy.name
        x = sparse_array(rng, (8, 300), 0.6)
        np.testing.assert_array_equal(enc.decode(enc.encode(x)), x)
        assert enc.measure_bytes(enc.encode(x)) == csr_bytes(
            x.size, (x == 0).mean()
        )

    @pytest.mark.parametrize("dtype", [FP32, FP16, FP10, FP8], ids=str)
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.99, 1.0])
    def test_size_model_per_value_dtype(self, rng, dtype, sparsity):
        """Values cost whole 32-bit words of the dtype's packing (1, 2, 3
        or 4 per word), ``nnz == 0`` included, exactly as the encoded
        stash measures."""
        x = sparse_array(rng, (8, 300), sparsity)
        nnz, rows = np.count_nonzero(x), -(-x.size // NARROW_COLS)
        per_word = {32: 1, 16: 2, 10: 3, 8: 4}[dtype.bits]
        expected = -(-nnz // per_word) * 4 + nnz + 4 * (rows + 1)
        model = csr_bytes(x.size, (x == 0).mean(), value_dtype=dtype)
        assert model == expected
        dpr = None if dtype is FP32 else dtype
        assert csr_encode(x, value_dtype=dpr).nbytes == model
        assert SSDCEncoding(value_dtype=dpr).encoded_bytes(
            x.size, (x == 0).mean()) == model

    def test_static_sparsity_validation(self):
        with pytest.raises(ValueError):
            csr_bytes(100, 1.5)


class TestBitmapAblation:
    def test_size_model(self, rng):
        # 1 bit per element in whole 32-bit words + 4 bytes per nonzero.
        x = sparse_array(rng, (128, 128), 0.75)
        words = -(-x.size // 32)
        assert bitmap_bytes(x.size, (x == 0).mean()) == (
            4 * words + 4 * np.count_nonzero(x))

    def test_bitmap_beats_csr_at_moderate_sparsity(self):
        # Bitmap meta is 1 bit/elem vs CSR's 1 byte/nnz: at moderate
        # sparsity bitmap's meta is cheaper...
        n = 1 << 20
        assert bitmap_bytes(n, 0.5) < csr_bytes(n, 0.5)
        # ...but CSR wins at extreme sparsity (bitmap still pays n bits).
        assert csr_bytes(n, 0.995) < bitmap_bytes(n, 0.995)


class TestGroundTruthArm:
    """The stash must not depend on whether ``csr_encode``'s one body or
    the row loop beside it built it."""

    @pytest.mark.parametrize("cols", [7, 256, 300])
    @pytest.mark.parametrize("value_dtype", [None, FP16, FP10, FP8],
                             ids=lambda d: getattr(d, "name", "fp32"))
    def test_loop_arm_gives_byte_equal_stash(self, value_dtype, cols, rng):
        x = rng.normal(0, 3, 1543).astype(np.float32)  # ragged for all cols
        x[rng.random(x.size) < 0.6] = 0.0
        x[:cols] = 0.0  # an all-zero row ...
        x[cols:2 * cols] = 1.5  # ... an all-dense one, and hostile values
        x[-5:] = (-0.0, np.nan, np.inf, 1e-30, -7e4)
        default = csr_encode(x, cols, value_dtype)
        truth = csr_encode_reference(x, cols, value_dtype)
        for got, want in ((default.col_idx, truth.col_idx),
                          (default.row_ptr, truth.row_ptr),
                          (getattr(default.values, "words", default.values),
                           getattr(truth.values, "words", truth.values))):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert csr_decode(default).tobytes() == csr_decode(truth).tobytes()


class TestProducersEmitNoNegativeZero:
    """SSDC decodes a ``-0.0`` as ``+0.0`` (its ``expected_decode``); the
    run-time stash is bit-exact because the maps it encodes — ReLU
    outputs and max-pools of them — never hold a ``-0.0``."""

    PRE = np.array([-0.0, 0.0, -1.5, 2.0, -0.0, -np.inf, 3.0, -0.0] * 4,
                   np.float32).reshape(1, 2, 4, 4)

    def _relu_outputs(self):
        from repro.layers import ReLU

        return [ReLU().forward([self.PRE], {}, None)]

    @pytest.mark.parametrize("pool", [(2, 2, 0), (3, 1, 1)])
    def test_relu_and_its_max_pool(self, pool):
        from repro.layers import MaxPool2D

        kernel, stride, pad = pool
        for y in self._relu_outputs():
            pooled = MaxPool2D(kernel, stride, pad).forward([y], {}, None)
            for stash in (y, pooled):
                assert not np.signbit(stash).any()
                codec = SSDCEncoding()
                decoded = codec.decode(codec.encode(stash))
                assert decoded.tobytes() == stash.tobytes()
