"""Edge-path tests that round out branch coverage across modules."""

import numpy as np
import pytest

from repro.core import GistConfig
from repro.encodings.base import Encoding
from repro.models import tiny_cnn
from repro.train import GistPolicy, GraphExecutor, make_synthetic
from repro.train.stash import codec_table

from tests.conftest import run_layer


class TestEncodingBase:
    def test_measure_bytes_default_unimplemented(self):
        class Half(Encoding):
            name = "half"

            def encoded_bytes(self, num_elements, **ctx):
                return num_elements * 2

            def encode(self, x):
                return x

            def decode(self, encoded):
                return encoded

        with pytest.raises(NotImplementedError):
            Half().measure_bytes(np.zeros(4))

    def test_identity_measures_fp32(self):
        from repro.encodings import IdentityEncoding

        enc = IdentityEncoding()
        x = np.zeros((3, 5), np.float32)
        assert enc.measure_bytes(enc.encode(x)) == 60
        assert enc.encoded_bytes(15) == 60


class TestDropoutEdgeCases:
    def test_p_zero_is_identity_with_trivial_mask(self, rng):
        from repro.layers import Dropout

        layer = Dropout(0.0)
        x = rng.normal(0, 1, (4, 4)).astype(np.float32)
        y, ctx = run_layer(layer, [x])
        np.testing.assert_array_equal(y, x)
        dy = rng.normal(0, 1, (4, 4)).astype(np.float32)
        (dx,), _ = layer.backward(dy, {}, ctx)
        np.testing.assert_array_equal(dx, dy)

    def test_eval_mode_backward(self, rng):
        from repro.layers import Dropout

        layer = Dropout(0.5, seed=1)
        x = rng.normal(0, 1, (4, 4)).astype(np.float32)
        _, ctx = run_layer(layer, [x], train=False)
        dy = rng.normal(0, 1, (4, 4)).astype(np.float32)
        (dx,), _ = layer.backward(dy, {}, ctx)
        np.testing.assert_array_equal(dx, dy)


class TestExecutorEdgeCases:
    def test_stashed_value_unknown_node(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        train, _ = make_synthetic(16, 4, 8, seed=0)
        ex = GraphExecutor(g)
        ex.forward(train.images[:8], train.labels[:8])
        conv1 = g.node_by_name("conv1")
        with pytest.raises(KeyError):
            ex.stashed_value(conv1.node_id)  # conv output is not stashed

    def test_input_layer_cannot_execute(self):
        from repro.layers import InputLayer

        with pytest.raises(RuntimeError):
            InputLayer((1, 3, 4, 4)).forward([], {}, None)

    def test_layer_without_backward(self):
        from repro.layers import InputLayer

        with pytest.raises(NotImplementedError):
            InputLayer((1, 3, 4, 4)).backward(np.zeros(1), {}, None)


class TestGistPolicyArms:
    def test_binarize_off_routes_relu_pool_to_dpr(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        policy = GistPolicy(g, GistConfig(binarize=False, dpr_format="fp16"))
        relu1 = g.node_by_name("relu1")
        assert codec_table(policy.plan)[relu1.node_id].name == "dpr-fp16"

    def test_ssdc_off_routes_relu_conv_to_dpr(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        policy = GistPolicy(g, GistConfig(ssdc=False, dpr_format="fp10"))
        relu2 = g.node_by_name("relu2")
        assert codec_table(policy.plan)[relu2.node_id].name == "dpr-fp10"

    def test_all_off_is_identity(self):
        g = tiny_cnn(batch_size=8, num_classes=4)
        policy = GistPolicy(g, GistConfig.disabled())
        assert codec_table(policy.plan) == {}
        for node in g.nodes:
            assert policy.encoding_for(g, node.node_id).name == "identity"


class TestCLIUniformTraining:
    def test_uniform_policy_via_cli(self, capsys):
        from repro.cli import main

        assert main(["train", "--policy", "uniform-fp16",
                     "--epochs", "1"]) == 0
        assert "epoch 1" in capsys.readouterr().out
