"""Property-based tests over randomly generated training graphs.

A Hypothesis strategy builds random-but-valid CNN graphs (random layer
sequences, kernel sizes, widths, optional residual branches), and the
invariants that every Gist experiment relies on are asserted for each:

* schedule/liveness well-formedness;
* the Schedule Builder never *extends* a lifetime and never loses bytes;
* allocated footprints are ordered: dynamic <= static <= unshared, and
  Gist <= baseline at scale;
* the executor's lossless gradients are bit-identical to baseline.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import GistConfig, build_gist_plan
from repro.graph import GraphBuilder, TrainingSchedule
from repro.graph.liveness import ROLE_ENCODED, ROLE_FEATURE_MAP
from repro.layers import (
    Add,
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    MaxPool2D,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.memory import (
    StaticAllocator,
    build_memory_plan,
    simulate_dynamic,
)
from repro.train import BaselinePolicy, GistPolicy, GraphExecutor

# ---------------------------------------------------------------------------
# Random graph strategy
# ---------------------------------------------------------------------------

_LAYER_CHOICES = ["conv", "relu", "pool", "avgpool", "bn", "dropout"]


@st.composite
def random_graphs(draw):
    """A random valid conv-net ending in Dense + SoftmaxCrossEntropy."""
    batch = draw(st.sampled_from([2, 4]))
    size = draw(st.sampled_from([8, 12]))
    builder = GraphBuilder("rand", (batch, 3, size, size))
    x = builder.input
    spatial = size
    channels = 3
    n_layers = draw(st.integers(2, 8))
    branch_point = None
    for i in range(n_layers):
        kind = draw(st.sampled_from(_LAYER_CHOICES))
        if kind == "conv":
            channels = draw(st.sampled_from([4, 6, 8]))
            x = builder.add(Conv2D(channels, 3, pad=1), x, name=f"conv{i}")
        elif kind == "relu":
            x = builder.add(ReLU(), x, name=f"relu{i}")
            if branch_point is None and draw(st.booleans()):
                branch_point = (x, channels, spatial)
        elif kind == "pool" and spatial >= 4:
            x = builder.add(MaxPool2D(2, 2), x, name=f"pool{i}")
            spatial //= 2
            branch_point = None
        elif kind == "avgpool" and spatial >= 4:
            x = builder.add(AvgPool2D(2, 2), x, name=f"avg{i}")
            spatial //= 2
            branch_point = None
        elif kind == "bn":
            x = builder.add(BatchNorm2D(), x, name=f"bn{i}")
        elif kind == "dropout":
            x = builder.add(Dropout(0.3, seed=i), x, name=f"drop{i}")
    # Optionally close a residual branch over the last same-shape segment.
    if branch_point is not None and draw(st.booleans()):
        source, bp_channels, bp_spatial = branch_point
        if bp_channels == channels and bp_spatial == spatial:
            if source.node_id != x.node_id:
                x = builder.add(Add(), [x, source], name="res_add")
    x = builder.add(Dense(3), x, name="fc")
    x = builder.add(SoftmaxCrossEntropy(), x, name="loss")
    builder.mark_output(x)
    return builder.build()


COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestScheduleProperties:
    @settings(**COMMON)
    @given(graph=random_graphs())
    def test_liveness_well_formed(self, graph):
        schedule = TrainingSchedule(graph)
        plan = build_memory_plan(graph, schedule)
        for t in plan.tensors:
            assert 0 <= t.birth <= t.death <= schedule.end
        # One feature map per node, one gradient per non-input node.
        fms = [t for t in plan.tensors if t.role == ROLE_FEATURE_MAP]
        assert len(fms) == len(graph)

    @settings(**COMMON)
    @given(graph=random_graphs())
    def test_footprint_ordering(self, graph):
        plan = build_memory_plan(graph)
        static = StaticAllocator().allocate(plan.tensors).total_bytes
        dynamic = simulate_dynamic(plan.tensors).peak_bytes
        unshared = sum(t.size_bytes for t in plan.tensors)
        assert dynamic <= static <= unshared


class TestScheduleBuilderProperties:
    @settings(**COMMON)
    @given(graph=random_graphs(),
           fmt=st.sampled_from(["fp16", "fp10", "fp8"]))
    def test_gist_never_extends_fp32_lifetimes(self, graph, fmt):
        schedule = TrainingSchedule(graph)
        baseline = {
            t.spec.name: t
            for t in build_memory_plan(graph, schedule).tensors
            if t.role == ROLE_FEATURE_MAP
        }
        gist = build_gist_plan(graph, GistConfig.full(fmt), schedule=schedule)
        for t in gist.plan.tensors:
            if t.role == ROLE_FEATURE_MAP and t.spec.name in baseline:
                assert t.death <= baseline[t.spec.name].death

    @settings(**COMMON)
    @given(graph=random_graphs())
    def test_encoded_tensors_bridge_the_gap(self, graph):
        gist = build_gist_plan(graph, GistConfig.full("fp8"))
        fm = {t.node_id: t for t in gist.plan.tensors
              if t.role == ROLE_FEATURE_MAP
              and not t.spec.name.endswith((".dec", ".recomp"))}
        for t in gist.plan.tensors:
            if t.role == ROLE_ENCODED and not t.spec.name.endswith(".argmax"):
                original = fm.get(t.node_id)
                if original is not None:
                    assert t.birth == original.death
                assert t.death >= gist.schedule.forward_end

    @settings(**COMMON)
    @given(graph=random_graphs())
    def test_every_decision_compresses(self, graph):
        gist = build_gist_plan(graph, GistConfig.full("fp8"))
        for decision in gist.decisions.values():
            assert decision.resident_bytes < decision.fp32_bytes, (
                decision.node_name
            )


class TestExecutorProperties:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(graph=random_graphs(), data=st.data())
    def test_lossless_gist_bitwise_equal(self, graph, data):
        input_shape = graph.node(graph.input_id).output_shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        images = rng.normal(0, 1, input_shape).astype(np.float32)
        labels = rng.integers(0, 3, input_shape[0])

        # Each executor's constructor rewinds the shared dropout streams.
        base = GraphExecutor(graph, BaselinePolicy(), seed=0)
        base_loss = base.forward(images, labels)
        base_grads = base.backward()

        gist = GraphExecutor(graph, GistPolicy(graph, GistConfig.lossless()),
                             seed=0)
        gist_loss = gist.forward(images, labels)
        gist_grads = gist.backward()

        assert base_loss == gist_loss
        for name in base_grads:
            np.testing.assert_array_equal(base_grads[name], gist_grads[name])
