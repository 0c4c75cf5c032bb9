"""The rewrite sweep on the registry models.

The sweep only marks inplace consumers, so it must not move a byte of
any Gist plan (the Schedule Builder still sees every producer/consumer
pair it classifies on), and a rewritten model must train bit-identically
to the model as built.
"""

import pytest

from repro.core import GistConfig
from repro.core.schedule_builder import build_gist_plan
from repro.memory.allocator import StaticAllocator
from repro.models import available_models, build_model
from repro.rewrite import apply_passes, check_rewrite_equivalence


def _allocated_bytes(graph, config):
    plan = build_gist_plan(graph, config).plan
    return StaticAllocator().allocate(plan.tensors).total_bytes


@pytest.mark.parametrize("config", [GistConfig.lossless(), GistConfig()],
                         ids=["lossless", "default"])
def test_rewrite_leaves_every_gist_plan_unmoved(config):
    moved = {}
    for name in available_models():
        graph = build_model(name, batch_size=16)
        as_built = _allocated_bytes(graph, config)
        rewritten = _allocated_bytes(apply_passes(graph).graph, config)
        if rewritten != as_built:
            moved[name] = (as_built, rewritten)
    assert moved == {}


@pytest.mark.parametrize("model",
                         ["tiny_cnn", "scaled_vgg", "scaled_alexnet"])
def test_rewritten_model_trains_bit_identically(model):
    graph = build_model(model, batch_size=32)
    assert check_rewrite_equivalence(graph, seed=0) == []
