"""Concat chains run in one buffer: random dense blocks, every policy.

The executor hands each link of an ``inputs[0]``-linked concat chain its
channel prefix of one terminal-sized buffer, so a member *is* a prefix
of its terminal.  No fuzz graph has such a chain, so these tests draw
dense blocks directly and hold the shared-buffer path to standalone
layer replays: forward values bit for bit, gradients bit for bit, every
member aliasing its terminal, and the runtime invariants silent.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.policy import HybridPolicy, STRATEGY_SHARED_CONCAT
from repro.encodings.base import HostSwapEncoding
from repro.graph.builder import GraphBuilder
from repro.layers import (
    Concat,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.memory.hybrid import (
    CHOICE_SHARED_CONCAT,
    CHOICE_SWAP,
    build_hybrid_plan,
)
from repro.memory.shared_concat import find_concat_chains
from repro.models import build_model
from repro.train import (
    BaselinePolicy,
    GraphExecutor,
    HybridExecutionPolicy,
    policy_from_name,
)
from tests.conftest import run_layer

CLASSES = 3


@st.composite
def dense_blocks(draw):
    """A stem conv, 2-4 concat links (each appending a conv, ReLU'd or
    not), then a tail and a classifier.

    The ``"conv"`` tail reads the terminal in a 1x1 conv, which keeps it
    stashed, so the shared-concat arm drops every member.  The other two
    put a ReLU on the terminal, straight (``"relu"``, before the 1x1
    conv) or through a flatten's view (``"flatten"``), and leave it
    unstashed.  Returns (graph, tail, data seed)."""
    n = draw(st.integers(1, 3))
    hw = draw(st.integers(2, 6))
    b = GraphBuilder("dense_block", (n, draw(st.integers(1, 3)), hw, hw))
    x = b.add(Conv2D(draw(st.integers(1, 4)), 3, pad=1), b.input)
    for _ in range(draw(st.integers(2, 4))):
        y = b.add(Conv2D(draw(st.integers(1, 4)), 3, pad=1), x)
        if draw(st.booleans()):
            y = b.add(ReLU(), y)
        x = b.add(Concat(), [x, y])
    tail = draw(st.sampled_from(["conv", "relu", "flatten"]))
    if tail == "flatten":
        x = b.add(ReLU(), b.add(Flatten(), x))
    else:
        if tail == "relu":
            x = b.add(ReLU(), x)
        x = b.add(GlobalAvgPool2D(),
                  b.add(Conv2D(draw(st.integers(1, 3)), 1), x))
    b.mark_output(b.add(SoftmaxCrossEntropy(), b.add(Dense(CLASSES), x)))
    return b.build(), tail, draw(st.integers(0, 2**16))


def _replay(graph, params, images, labels):
    """Forward and backward through standalone layer calls, no executor:
    every value a fresh ``ctx=None`` array, each backward on a dict
    context.  Returns (values, parameter gradients)."""
    values = {graph.input_id: images}
    contexts = {}
    graph.node(graph.output_id).layer.set_labels(labels)
    for node in graph.nodes:
        if node.node_id == graph.input_id:
            continue
        xs = [values[i] for i in node.inputs]
        values[node.node_id] = node.layer.forward(xs, params[node.node_id],
                                                  None)
        _, contexts[node.node_id] = run_layer(node.layer, xs,
                                              params[node.node_id])
    grads = {graph.output_id: np.ones(1, dtype=np.float32)}
    param_grads = {}
    for node in reversed(graph.nodes):
        if node.node_id == graph.input_id:
            continue
        dxs, dparams = node.layer.backward(
            grads.pop(node.node_id), params[node.node_id],
            contexts[node.node_id])
        for input_id, dx in zip(node.inputs, dxs):
            prev = grads.get(input_id)
            grads[input_id] = dx if prev is None else prev + dx
        for pname, grad in dparams.items():
            param_grads[f"{node.name}.{pname}"] = grad
    return values, param_grads


def _policies(graph, chain, tail):
    plan = build_hybrid_plan(
        graph, HybridPolicy(strategy=STRATEGY_SHARED_CONCAT))
    assert plan.lossless
    shared = {nid for nid, d in plan.decisions.items()
              if d.choice == CHOICE_SHARED_CONCAT}
    assert shared == (set(chain.members) if tail == "conv" else set())
    return {"baseline": BaselinePolicy(),
            "gist-lossless": policy_from_name("gist-lossless", graph),
            "shared_concat": HybridExecutionPolicy(plan)}


def _checked_executor(graph, policy):
    """An invariant-checked executor and the dict its forward values land
    in, captured by reference so a later write into a shared buffer
    shows."""
    executor = GraphExecutor(graph, policy, seed=0)
    executor.enable_invariants()
    values = {}
    transform = policy.transform_forward

    def capture(y, node):
        values[node.node_id] = y = transform(y, node)
        return y

    policy.transform_forward = capture
    return executor, values


def _bytes(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


@settings(max_examples=30, deadline=None)
@given(dense_blocks())
def test_dense_block_runs_in_one_buffer(case):
    graph, tail, seed = case
    rng = np.random.default_rng(seed)
    shape = graph.node(graph.input_id).output_shape
    images = rng.normal(0, 1, shape).astype(np.float32)
    labels = rng.integers(0, CLASSES, shape[0])
    (chain,) = find_concat_chains(graph)
    reference = None
    for name, policy in _policies(graph, chain, tail).items():
        executor, values = _checked_executor(graph, policy)
        executor.forward(images, labels)
        grads = executor.backward()
        if reference is None:
            reference = _replay(graph, executor.params, images, labels)
        ref_values, ref_grads = reference
        for nid, value in values.items():
            assert _bytes(value) == _bytes(ref_values[nid]), (
                name, graph.node(nid).name)
        terminal = values[chain.terminal_id]
        for member in chain.members:
            assert np.shares_memory(values[member], terminal), name
        assert grads.keys() == ref_grads.keys()
        for key, grad in grads.items():
            assert _bytes(grad) == _bytes(ref_grads[key]), (name, key)


def test_host_swap_aliases_a_strided_view():
    buffer = np.arange(2 * 5 * 3 * 3, dtype=np.float32).reshape(2, 5, 3, 3)
    member = buffer[:, :2]
    assert not member.flags["C_CONTIGUOUS"]
    assert HostSwapEncoding().encode(member) is member


def test_swapped_member_stays_in_its_chain_buffer():
    # The ledger's densenet_hybrid plan swaps a chain member; its stash
    # is a prefix view of the terminal, not a copy.
    graph = build_model("densenet", batch_size=16)
    plan = build_hybrid_plan(graph, HybridPolicy())
    member_of = {m: c.terminal_id for c in find_concat_chains(graph)
                 for m in c.members}
    swapped = [nid for nid, d in plan.decisions.items()
               if d.choice == CHOICE_SWAP and nid in member_of]
    assert swapped
    executor, values = _checked_executor(graph, HybridExecutionPolicy(plan))
    rng = np.random.default_rng(0)
    shape = graph.node(graph.input_id).output_shape
    executor.forward(rng.normal(0, 1, shape).astype(np.float32),
                     rng.integers(0, 10, shape[0]))
    for nid in swapped:
        assert np.shares_memory(executor.stashed_value(nid),
                                values[member_of[nid]])
    executor.backward()
