"""Tests for the group-quantisation extension encoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.encodings import GroupQuantEncoding
from repro.train import GroupQuantPolicy


class TestGroupQuant:
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_error_bounded_by_half_step(self, bits, rng):
        enc = GroupQuantEncoding(bits, group_size=32)
        x = rng.normal(0, 2, (16, 32)).astype(np.float32)
        d = enc.decode(enc.encode(x))
        levels = (1 << bits) - 1
        for g in range(16):
            row = x[g]
            step = (row.max() - row.min()) / levels
            err = np.abs(d[g] - row).max()
            assert err <= step * 0.51 + 1e-6

    def test_constant_group_exact(self):
        enc = GroupQuantEncoding(2, group_size=8)
        x = np.full((4, 8), 3.25, np.float32)
        np.testing.assert_allclose(enc.decode(enc.encode(x)), x, atol=1e-6)

    def test_extremes_exact(self, rng):
        # Group min and max always land on grid points.
        enc = GroupQuantEncoding(4, group_size=16)
        x = rng.normal(0, 1, (16,)).astype(np.float32)
        d = enc.decode(enc.encode(x))
        assert d.min() == pytest.approx(x.min(), abs=1e-6)
        assert d.max() == pytest.approx(x.max(), abs=1e-6)

    def test_bytes_match_model(self, rng):
        for n in (1, 31, 256, 1000):
            enc = GroupQuantEncoding(4, group_size=64)
            x = rng.normal(0, 1, n).astype(np.float32)
            e = enc.encode(x)
            assert enc.measure_bytes(e) == enc.encoded_bytes(n)

    def test_int4_beats_fp8_bytes(self):
        enc4 = GroupQuantEncoding(4, group_size=256)
        from repro.encodings import dpr_encoding

        n = 1 << 16
        assert enc4.encoded_bytes(n) < dpr_encoding("fp8").encoded_bytes(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupQuantEncoding(3)
        with pytest.raises(ValueError):
            GroupQuantEncoding(4, group_size=0)

    @settings(max_examples=40)
    @given(
        x=hnp.arrays(np.float32,
                     st.integers(1, 300),
                     elements=st.floats(-1e4, 1e4, width=32)),
        bits=st.sampled_from([1, 2, 4, 8]),
    )
    def test_property_shape_and_idempotence(self, x, bits):
        enc = GroupQuantEncoding(bits, group_size=32)
        d = enc.decode(enc.encode(x))
        assert d.shape == x.shape
        d2 = enc.decode(enc.encode(d))
        np.testing.assert_allclose(d2, d, rtol=1e-5, atol=1e-5)


class TestPaddingSkewRegression:
    """The ragged-tail bug: zero padding entering the min/max statistics.

    ``linspace(5, 6, 300)`` at group size 256 leaves a 44-element tail
    group whose real span is ~0.15 — but with a padded zero in the stats
    the grid stretched over [0, 6] and the tail error ballooned to ~40%
    of a real grid step's worth (0.14 absolute, vs the 0.01 bound).
    """

    def test_offset_tail_group_error_bounded(self):
        enc = GroupQuantEncoding(4, group_size=256)
        x = np.linspace(5, 6, 300, dtype=np.float32)
        d = enc.decode(enc.encode(x))
        tail = x[256:]
        span = tail.max() - tail.min()
        assert np.abs(d[256:] - tail).max() <= span / 15 * 0.51 + 1e-6

    def test_single_element_tail(self):
        # Extreme ragged tail: one real value + 31 padded slots.  Group
        # span is zero, so the value must round-trip (near-)exactly.
        enc = GroupQuantEncoding(4, group_size=32)
        x = np.full((33,), 7.5, np.float32)
        d = enc.decode(enc.encode(x))
        assert d[32] == pytest.approx(7.5, abs=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 400),
        offset=st.floats(-100, 100, width=32),
        bits=st.sampled_from([2, 4, 8]),
        group_size=st.sampled_from([7, 32, 256]),
    )
    def test_property_unaligned_error_within_real_span(
        self, n, offset, bits, group_size
    ):
        # Every group's error stays within half a grid step of the span
        # of its REAL values, for any (size, group_size) alignment — the
        # bound the padded zeros used to violate whenever the data sits
        # away from zero.
        rng = np.random.default_rng(n * 1000 + bits)
        x = (rng.normal(0, 1, n) + offset).astype(np.float32)
        enc = GroupQuantEncoding(bits, group_size=group_size)
        d = enc.decode(enc.encode(x))
        levels = (1 << bits) - 1
        scale = max(abs(float(x.max())), abs(float(x.min())), 1.0)
        for g in range(-(-n // group_size)):
            real = x[g * group_size:(g + 1) * group_size]
            span = float(real.max() - real.min())
            err = np.abs(d[g * group_size:(g + 1) * group_size] - real).max()
            assert err <= span / levels * 0.51 + 1e-6 + 1e-5 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 300),
        offset=st.floats(-50, 50, width=32),
    )
    def test_property_more_bits_never_worse(self, n, offset):
        # The 4-bit grid is a subset of the 8-bit grid over the same
        # group span (255 = 15 * 17), so 8-bit error is pointwise <=
        # 4-bit error — on aligned AND ragged sizes.
        rng = np.random.default_rng(n)
        x = (rng.normal(0, 2, n) + offset).astype(np.float32)
        err = {}
        for bits in (4, 8):
            enc = GroupQuantEncoding(bits, group_size=32)
            err[bits] = np.abs(enc.decode(enc.encode(x)) - x)
        assert np.all(err[8] <= err[4] + 1e-5)


class TestDescribeAndTrace:
    def test_describe_labels(self):
        assert GroupQuantPolicy(bits=4).describe() == "groupquant-int4"
        assert GroupQuantPolicy(bits=8).describe() == "groupquant-int8"

    def test_trace_policy_registered(self):
        from repro.models import tiny_cnn
        from repro.train import POLICY_NAMES, policy_from_name

        g = tiny_cnn(batch_size=4, num_classes=4)
        assert "groupquant" not in POLICY_NAMES  # the label is the spelling
        for bits in (8, 4, 2, 1):
            name = f"groupquant-int{bits}"
            assert name in POLICY_NAMES
            assert isinstance(policy_from_name(name, g), GroupQuantPolicy)

    def test_traced_run_smoke(self):
        from repro.diagnostics import run_traced

        digest = run_traced("tiny_cnn", "groupquant-int4", steps=1)
        assert digest.steps

    def test_cli_trace_groupquant(self, capsys):
        from repro.cli import main

        assert main(["trace", "--policy", "groupquant-int4", "--steps", "1"]) == 0
        assert "loss" in capsys.readouterr().out


class TestGroupQuantTraining:
    def test_int4_stash_trains(self):
        from repro.models import tiny_cnn
        from repro.train import SGD, Trainer, make_synthetic

        g = tiny_cnn(batch_size=16, num_classes=4, image_size=8)
        train, test = make_synthetic(256, 4, 8, seed=1)
        policy = GroupQuantPolicy(bits=4, group_size=128)
        result = Trainer(g, policy, SGD(lr=0.05), seed=0).train(
            train, test, epochs=3
        )
        assert result.final_accuracy > 0.8

    def test_forward_untouched(self):
        from repro.models import tiny_cnn
        from repro.train import BaselinePolicy, GraphExecutor, make_synthetic

        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(16, 4, 8, seed=0)
        images, labels = train.images[:8], train.labels[:8]
        base = GraphExecutor(g, BaselinePolicy(), seed=0).forward(images, labels)
        gq = GraphExecutor(g, GroupQuantPolicy(4), seed=0).forward(images, labels)
        assert base == gq
