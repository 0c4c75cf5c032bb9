"""Hypothesis properties of the rewrite pipeline over fuzzed graphs."""

from hypothesis import given, settings, strategies as st

from repro.rewrite import apply_passes
from repro.verify.fuzzer import GraphFuzzer


def graph_key(graph):
    """Structural identity: nodes (name, kind, inplace) plus the edges."""
    return tuple(
        (n.name, n.kind, n.inplace, tuple(n.inputs))
        for n in graph.nodes
    )


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_pipeline_is_idempotent(seed):
    # One sweep is the fixed point: a second sweep applies nothing and
    # returns the same graph.
    graph = GraphFuzzer(seed).graph(max_ops=10)
    first = apply_passes(graph)
    second = apply_passes(first.graph)
    assert second.total_changes == 0
    assert graph_key(second.graph) == graph_key(first.graph)


@given(seed=st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_rewritten_graphs_satisfy_plan_oracles(seed):
    # The rewritten graph must remain a first-class citizen of the whole
    # graph battery: allocator safety, plan bounds, hybrid-plan safety
    # and lossless execution.
    from repro.verify.runner import verify_graph

    graph = GraphFuzzer(seed).graph(max_ops=8)
    result = apply_passes(graph)
    violations = verify_graph(result.graph, seed=seed)
    assert violations == [], "\n".join(str(v) for v in violations)

