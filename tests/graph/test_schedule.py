"""Tests for the training schedule and liveness analysis."""

import pytest

from repro.dtypes import FP32
from repro.graph import (
    BACKWARD,
    FORWARD,
    ROLE_FEATURE_MAP,
    ROLE_GRADIENT_MAP,
    ROLE_STATE,
    ROLE_WEIGHT,
    ROLE_WEIGHT_GRAD,
    TrainingSchedule,
    compute_lifetimes,
)


class TestSchedule:
    def test_forward_then_backward(self, tiny_graph):
        s = TrainingSchedule(tiny_graph)
        phases = [op.phase for op in s.ops]
        flip = phases.index(BACKWARD)
        assert all(p == FORWARD for p in phases[:flip])
        assert all(p == BACKWARD for p in phases[flip:])
        assert flip == s.forward_end

    def test_backward_is_reverse_forward(self, tiny_graph):
        s = TrainingSchedule(tiny_graph)
        fwd = [op.node_id for op in s.ops if op.phase == FORWARD]
        bwd = [op.node_id for op in s.ops if op.phase == BACKWARD]
        assert bwd == list(reversed([n for n in fwd if n != tiny_graph.input_id]))

    def test_input_has_no_backward(self, tiny_graph):
        s = TrainingSchedule(tiny_graph)
        assert not s.has_backward(tiny_graph.input_id)
        with pytest.raises(KeyError):
            s.backward_time(tiny_graph.input_id)

    def test_times_are_dense(self, tiny_graph):
        s = TrainingSchedule(tiny_graph)
        assert [op.t for op in s.ops] == list(range(s.num_steps))
        assert s.num_steps == 2 * len(tiny_graph) - 1

    def test_is_forward_time(self, tiny_graph):
        # Time 0 is a forward step, the last step is not.
        s = TrainingSchedule(tiny_graph)
        assert 0 < s.forward_end <= s.end


class TestLiveness:
    def test_every_tensor_well_formed(self, tiny_graph):
        s = TrainingSchedule(tiny_graph)
        for t in compute_lifetimes(tiny_graph, s):
            assert 0 <= t.birth <= t.death <= s.end
            assert t.size_bytes >= 0

    def test_relu_output_stashed_until_its_backward(self, tiny_graph):
        s = TrainingSchedule(tiny_graph)
        tensors = {t.spec.name: t for t in compute_lifetimes(tiny_graph, s)}
        relu2 = tiny_graph.node_by_name("relu2")
        fm = tensors["relu2.out"]
        # relu2 feeds fc (needs input) and its own backward needs output.
        fc = tiny_graph.node_by_name("fc")
        assert fm.death == max(
            s.backward_time(relu2.node_id), s.backward_time(fc.node_id)
        )

    def test_conv_output_consumed_by_relu_is_immediate(self, tiny_graph):
        # conv backward needs its *input*, relu backward needs its output,
        # so conv1.out dies at relu1's forward op.
        s = TrainingSchedule(tiny_graph)
        tensors = {t.spec.name: t for t in compute_lifetimes(tiny_graph, s)}
        relu1 = tiny_graph.node_by_name("relu1")
        assert tensors["conv1.out"].death == s.forward_time(relu1.node_id)

    def test_gradient_map_lifetime(self, tiny_graph):
        s = TrainingSchedule(tiny_graph)
        tensors = {t.spec.name: t for t in compute_lifetimes(tiny_graph, s)}
        relu1 = tiny_graph.node_by_name("relu1")
        pool1 = tiny_graph.node_by_name("pool1")
        grad = tensors["relu1.grad"]
        assert grad.birth == s.backward_time(pool1.node_id)
        assert grad.death == s.backward_time(relu1.node_id)

    def test_weights_live_forever(self, tiny_graph):
        s = TrainingSchedule(tiny_graph)
        for t in compute_lifetimes(tiny_graph, s, include_weights=True):
            if t.role == ROLE_WEIGHT:
                assert (t.birth, t.death) == (0, s.end)
                assert not t.shareable
            if t.role == ROLE_WEIGHT_GRAD:
                assert t.death == s.end

    def test_weights_excluded_by_default_flag(self, tiny_graph):
        tensors = compute_lifetimes(tiny_graph, include_weights=False)
        assert not any(t.role in (ROLE_WEIGHT, ROLE_WEIGHT_GRAD) for t in tensors)

    def test_saved_state_spans_forward_to_backward(self, tiny_graph):
        s = TrainingSchedule(tiny_graph)
        tensors = {t.spec.name: t for t in compute_lifetimes(tiny_graph, s)}
        probs = tensors["loss.probs"]
        loss = tiny_graph.node_by_name("loss")
        assert probs.role == ROLE_STATE
        assert probs.birth == s.forward_time(loss.node_id)
        assert probs.death == s.backward_time(loss.node_id)

    def test_feature_map_count(self, tiny_graph):
        tensors = compute_lifetimes(tiny_graph)
        fms = [t for t in tensors if t.role == ROLE_FEATURE_MAP]
        assert len(fms) == len(tiny_graph)  # one per node incl. input

    def test_gradient_count(self, tiny_graph):
        tensors = compute_lifetimes(tiny_graph)
        grads = [t for t in tensors if t.role == ROLE_GRADIENT_MAP]
        assert len(grads) == len(tiny_graph) - 1  # all but input

    def test_overlaps_predicate(self):
        from repro.graph.liveness import LiveTensor
        from repro.tensor import TensorSpec

        a = LiveTensor(TensorSpec("a", (1,)), 0, 5, 0, ROLE_FEATURE_MAP)
        b = LiveTensor(TensorSpec("b", (1,)), 5, 9, 0, ROLE_FEATURE_MAP)
        c = LiveTensor(TensorSpec("c", (1,)), 6, 9, 0, ROLE_FEATURE_MAP)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_death_before_birth_rejected(self):
        from repro.graph.liveness import LiveTensor
        from repro.tensor import TensorSpec

        with pytest.raises(ValueError):
            LiveTensor(TensorSpec("x", (1,), FP32), 5, 3, 0, ROLE_FEATURE_MAP)
