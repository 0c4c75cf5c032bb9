"""Recurrent layer library: unrolled steps, weight tying, gradients.

The weight-tying contract is the delicate part: every ``LSTMStep`` /
``RNNStep`` sharing one cell must expose the *same ndarray objects* as
parameters, so that (a) the executor's flat gradient dict carries one
per-step entry each, and (b) momentum linearity makes the sequential
per-step tied updates equal the single summed-gradient update a fused
implementation would apply.
"""

import re

import numpy as np
import pytest

from repro.layers import (
    Dense,
    LSTMCell,
    LSTMStep,
    RNNCell,
    RNNStep,
    SoftmaxCrossEntropy,
    StateSlice,
    TimeSlice,
    unroll,
)
from repro.graph import graph_fingerprint
from repro.graph.builder import GraphBuilder
from repro.models import build_model
from repro.train.executor import GraphExecutor

B, T, F, H, C = 4, 3, 5, 6, 3
SEED = 7


def _sequence_graph(cell_kind: str):
    b = GraphBuilder(f"{cell_kind}_seq", (B, T, F))
    cell = LSTMCell(F, H) if cell_kind == "lstm" else RNNCell(F, H)
    x = unroll(b, cell, T)
    x = b.add(Dense(C), x, name="fc")
    x = b.add(SoftmaxCrossEntropy(), x, name="loss")
    b.mark_output(x)
    return b.build()


def _batch(rng):
    x = rng.normal(0, 1, (B, T, F)).astype(np.float32)
    y = rng.integers(0, C, B).astype(np.int64)
    return x, y


@pytest.fixture(scope="module", params=["lstm", "rnn"])
def trained(request):
    graph = _sequence_graph(request.param)
    executor = GraphExecutor(graph, seed=SEED)
    rng = np.random.default_rng(0)
    x, y = _batch(rng)
    loss = executor.forward(x, y, train=True)
    grads = executor.backward()
    return request.param, graph, executor, (x, y), loss, grads


class TestWeightTying:
    def test_steps_share_parameter_arrays(self, trained):
        _, _, executor, _, _, _ = trained
        params = executor.parameters()
        for pname in ("Wx", "Wh", "b"):
            for t in range(1, T):
                assert params[f"step{t}.{pname}"] is params[f"step0.{pname}"]

    def test_every_step_reports_a_gradient(self, trained):
        _, _, _, _, _, grads = trained
        for pname in ("Wx", "Wh", "b"):
            for t in range(T):
                assert f"step{t}.{pname}" in grads

    def test_two_executors_same_seed_draw_identical_params(self, trained):
        kind, graph, executor, _, _, _ = trained
        fresh = GraphExecutor(_sequence_graph(kind), seed=SEED)
        a, b = executor.parameters(), fresh.parameters()
        assert set(a) == set(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seed_draws_different_params(self, trained):
        kind, _, executor, _, _, _ = trained
        other = GraphExecutor(_sequence_graph(kind), seed=SEED + 1)
        assert not np.array_equal(executor.parameters()["step0.Wx"],
                                  other.parameters()["step0.Wx"])


class TestGradients:
    def test_tied_gradients_match_finite_differences(self, trained):
        kind, graph, executor, (x, y), _, grads = trained
        params = executor.parameters()
        eps = 1e-3
        rng = np.random.default_rng(1)
        # The analytic tied gradient is the sum of per-step entries; the
        # numerical one perturbs the shared array (all steps at once).
        for pname in ("Wx", "Wh", "b"):
            tied = sum(grads[f"step{t}.{pname}"] for t in range(T))
            arr = params[f"step0.{pname}"]
            flat_positions = rng.choice(arr.size, size=min(6, arr.size),
                                        replace=False)
            for pos in flat_positions:
                idx = np.unravel_index(pos, arr.shape)
                old = arr[idx]
                arr[idx] = old + eps
                lp = executor.forward(x, y, train=True)
                arr[idx] = old - eps
                lm = executor.forward(x, y, train=True)
                arr[idx] = old
                numeric = (lp - lm) / (2 * eps)
                assert numeric == pytest.approx(float(tied[idx]),
                                                rel=5e-2, abs=1e-4)

    def test_loss_decreases_under_sgd(self, trained):
        kind, _, _, _, _, _ = trained
        from repro.train import SGD, Trainer, make_synthetic_sequences

        graph = _sequence_graph(kind)
        train_set, test_set = make_synthetic_sequences(
            num_samples=64, num_classes=C, seq_len=T, input_size=F, seed=3)
        trainer = Trainer(graph, None, SGD(lr=0.05, momentum=0.9), seed=0)
        result = trainer.train(train_set, test_set, epochs=3)
        assert result.epoch_losses[-1] < result.epoch_losses[0]


class TestStepChecks:
    """Both step kinds share one scaffold; each malformed build names its
    kind."""

    @pytest.fixture(params=[(LSTMStep, LSTMCell, 2), (RNNStep, RNNCell, 1)],
                    ids=["lstm_step", "rnn_step"])
    def step(self, request):
        step_type, cell_type, parts = request.param
        return step_type, cell_type(F, H), parts * H

    #: fault -> (timestep, input shapes given the state width, message)
    FAULTS = {
        "negative-t": (-1, lambda w: [(B, F)], "timestep must be >= 0"),
        "input-count": (1, lambda w: [(B, F)], "expects 2 input(s)"),
        "input-width": (0, lambda w: [(B, F + 1)], "input must be"),
        "state-width": (1, lambda w: [(B, F), (B, w + 1)], "state must be"),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_malformed_step_raises_naming_its_kind(self, step, fault):
        step_type, cell, width = step
        t, shapes, message = self.FAULTS[fault]
        with pytest.raises(ValueError,
                           match=f"^{step_type.kind} .*{re.escape(message)}"):
            step_type(cell, t).infer_shape(shapes(width))


class TestTimeAndStateSlices:
    def test_time_slice_extracts_contiguous_step(self, rng):
        x = rng.normal(0, 1, (B, T, F)).astype(np.float32)
        layer = TimeSlice(1, T)
        y = layer.forward([x], {}, None, True)
        np.testing.assert_array_equal(y, x[:, 1, :])
        assert y.flags["C_CONTIGUOUS"]

    def test_time_slice_backward_scatters_zero_elsewhere(self, rng):
        layer = TimeSlice(1, T)
        dy = rng.normal(0, 1, (B, F)).astype(np.float32)
        dxs, dparams = layer.backward(dy, {}, None)
        assert dparams == {}
        (dx,) = dxs
        np.testing.assert_array_equal(dx[:, 1, :], dy)
        assert not dx[:, 0, :].any() and not dx[:, 2, :].any()

    def test_state_slice_takes_h_and_zero_pads_c(self, rng):
        hc = rng.normal(0, 1, (B, 2 * H)).astype(np.float32)
        layer = StateSlice(H, part="h")
        y = layer.forward([hc], {}, None, True)
        np.testing.assert_array_equal(y, hc[:, :H])
        dy = rng.normal(0, 1, (B, H)).astype(np.float32)
        dxs, _ = layer.backward(dy, {}, None)
        (dx,) = dxs
        np.testing.assert_array_equal(dx[:, :H], dy)
        assert not dx[:, H:].any()


#: ``graph_fingerprint(build_model(name, batch_size=8))``: the unrolled
#: registry graphs, pinned so a change to the unroll shows.
PINNED_FINGERPRINTS = {
    "lstm": "83a1d8f6a1eaf68cd9b72de4d5738e957a93f0f1a3c5a80c764337d99216ac89",
    "rnn": "69ac36e45a6974c0286669b096cd3bb52432657bb5ef52d025a871757aeb862f",
}


class TestRegistryModels:
    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_fingerprint_is_pinned(self, name):
        graph = build_model(name, batch_size=8)
        assert graph_fingerprint(graph) == PINNED_FINGERPRINTS[name]

    @pytest.mark.parametrize("name,kwargs", [
        ("lstm", dict(batch_size=4, num_classes=3, seq_len=4,
                      input_size=5, hidden_size=6)),
        ("rnn", dict(batch_size=4, num_classes=3, seq_len=4,
                     input_size=5, hidden_size=6)),
        ("densenet", dict(batch_size=2, num_classes=3, image_size=8,
                          init_channels=4, growth=4, blocks=2,
                          block_layers=2)),
    ])
    def test_builds_and_takes_a_training_step(self, name, kwargs):
        graph = build_model(name, **kwargs)
        executor = GraphExecutor(graph, seed=0)
        rng = np.random.default_rng(0)
        shape = graph.node(graph.input_id).output_shape
        x = rng.normal(0, 1, shape).astype(np.float32)
        y = rng.integers(0, kwargs["num_classes"], shape[0]).astype(np.int64)
        loss = executor.forward(x, y, train=True)
        grads = executor.backward()
        assert np.isfinite(loss)
        assert grads and all(np.isfinite(g).all() for g in grads.values())
