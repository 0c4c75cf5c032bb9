"""Tests for Binarize and its bit packing."""

import numpy as np

from repro.encodings.binarize import BinarizeEncoding, pack_bits, unpack_bits
from repro.layers import MaxPool2D


class TestBitPacking:
    def test_roundtrip_odd_length(self, rng):
        mask = rng.random(777) > 0.5
        np.testing.assert_array_equal(
            unpack_bits(pack_bits(mask), (777,)), mask
        )

    def test_roundtrip_2d(self, rng):
        mask = rng.random((13, 17)) > 0.3
        np.testing.assert_array_equal(
            unpack_bits(pack_bits(mask), (13, 17)), mask
        )

    def test_word_count(self):
        assert pack_bits(np.ones(32, bool)).size == 1
        assert pack_bits(np.ones(33, bool)).size == 2

    def test_all_true_all_false(self):
        for value in (True, False):
            mask = np.full(100, value)
            np.testing.assert_array_equal(
                unpack_bits(pack_bits(mask), (100,)), mask
            )


class TestBinarizeEncoding:
    def test_mask_is_exact(self, rng):
        enc = BinarizeEncoding()
        y = np.maximum(rng.normal(0, 1, (4, 8, 6, 6)), 0).astype(np.float32)
        mask = enc.decode(enc.encode(y))
        np.testing.assert_array_equal(mask, y > 0)

    def test_mask_dtype_is_bool(self, rng):
        enc = BinarizeEncoding()
        y = rng.normal(0, 1, (3, 3)).astype(np.float32)
        assert enc.decode(enc.encode(y)).dtype == np.bool_

    def test_32x_compression(self):
        enc = BinarizeEncoding()
        n = 32 * 4096
        assert enc.encoded_bytes(n) * 32 == 4 * n

    def test_measure_matches_static(self, rng):
        enc = BinarizeEncoding()
        y = rng.normal(0, 1, 1000).astype(np.float32)
        assert enc.measure_bytes(enc.encode(y)) == enc.encoded_bytes(1000)

    def test_relu_gradient_identical_through_binarize(self, rng):
        """The end-to-end losslessness claim: dX computed from the mask is
        bit-identical to dX computed from the FP32 stash."""
        enc = BinarizeEncoding()
        y = np.maximum(rng.normal(0, 1, (128,)), 0).astype(np.float32)
        dy = rng.normal(0, 1, (128,)).astype(np.float32)
        dx_full = dy * (y > 0)
        dx_mask = dy * enc.decode(enc.encode(y))
        np.testing.assert_array_equal(dx_full, dx_mask)

    def test_argmax_map_bytes(self):
        # The pool side of the pair: the argmax map is priced at 4 bits
        # per output element, 8 per 32-bit word.
        def priced(n):
            return MaxPool2D(2).argmax_map_spec((n,)).dtype.size_bytes(n)
        assert priced(8) == 4
        assert priced(9) == 8
        # ~8x smaller than FP32.
        assert 4 * 80000 / priced(80000) == 8.0
