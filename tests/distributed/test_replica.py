"""One data-parallel step through the process pool: replicas-N ≡ serial.

Four shards of one batch-8 step run as ``replica-step`` units through
``run_units`` at one, two and three workers (three workers over four
shards is the elastic case: one worker runs two shards), and
``merge_replica_results`` must give one loss-and-gradient digest for
every worker count.  The master parameters are a full-batch executor's:
initialisation does not depend on the batch size.

The shard gradients come back in the float32 form the parameters went
out in, so the transport itself keeps every bit; a payload naming an
option the unit does not have is refused.

Worker crashes, journal replay and kill/resume are the pool's own
contract, the same for every unit kind; ``tests/orchestrate`` tests it.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from repro.diagnostics import GOLDEN_MODELS
from repro.distributed.allreduce import tree_reduce_gradients
from repro.distributed.replica import (
    decode_params,
    encode_params,
    merge_replica_results,
    replica_work_units,
    run_replica_unit,
)
from repro.models.registry import build_model
from repro.orchestrate import run_units
from repro.train.executor import GraphExecutor

#: Pinned digest of the ``tiny_cnn`` / ``baseline`` step; guards
#: sharding, RNG derivation, the gradient transport and the tree merge
#: against silent drift.
_GOLDEN = "fd8f99d761574f3d95ef8ea868bba8395eae9f2d3c08f220734c81940228d19b"

_MODELS = ("tiny_cnn", "lstm")
_POLICIES = ("baseline", "gist-lossless")
_WORKERS = (1, 2, 3)


def _units(model, policy, num_shards=4):
    recipe = GOLDEN_MODELS[model]
    base = {
        "model": model,
        "model_kwargs": {k: v for k, v in recipe.items()
                         if k != "batch_size"},
        "batch_size": recipe["batch_size"],
        "num_shards": num_shards,
        "seed": 0,
        "policy": policy,
        "data": {"num_samples": 32, "noise": 0.6, "data_seed": 0},
    }
    params = GraphExecutor(build_model(model, **recipe), seed=0).parameters()
    return replica_work_units(base, 0, params)


def _digest(loss, merged):
    h = hashlib.sha256(np.float64(loss).tobytes())
    for name in sorted(merged):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(merged[name]).tobytes())
    return h.hexdigest()


@lru_cache(maxsize=None)
def _step_digests(model, policy):
    """The step's digest at each worker count of ``_WORKERS``."""
    units = _units(model, policy)
    return tuple(
        _digest(*merge_replica_results(units,
                                       run_units(units, workers=workers)))
        for workers in _WORKERS
    )


# The ids keep the ``auto`` infix of the lossless gradient format these
# steps were first pinned under, so every case keeps its id.
@pytest.mark.parametrize("model, policy", [
    pytest.param(m, p, id=f"{m}-auto-{p}")
    for m in _MODELS for p in _POLICIES])
def test_worker_count_does_not_change_the_step(model, policy):
    assert len(set(_step_digests(model, policy))) == 1


@pytest.mark.parametrize("model", [
    pytest.param(m, id=f"{m}-auto") for m in _MODELS])
def test_gist_lossless_step_matches_baseline(model):
    assert _step_digests(model, "gist-lossless") \
        == _step_digests(model, "baseline")


def test_serial_step_matches_pinned_digest():
    assert _step_digests("tiny_cnn", "baseline")[0] == _GOLDEN


def test_merge_walks_shards_in_index_order():
    # A pairwise tree over 2 or 4 shards is symmetric under reversal, so
    # only an odd shard count shows a merge that walks the shards in any
    # order but their index.  Results arrive in reverse here.
    units = _units("tiny_cnn", "baseline", num_shards=3)
    results = run_units(units, workers=1)
    arrived = {u.key: results[u.key] for u in reversed(units)}
    _, merged = merge_replica_results(units, arrived)
    values = [results[u.key].value for u in units]
    expected = tree_reduce_gradients(
        [decode_params(v["grads"]) for v in values],
        [v["shard_size"] for v in values],
    )
    assert sorted(merged) == sorted(expected)
    for key in expected:
        assert merged[key].tobytes() == expected[key].tobytes(), key


def test_transport_keeps_every_bit():
    # -0.0, a NaN with payload bits, both infinities and denormals: a
    # value-level comparison would pass a transport that lost any of them.
    bits = np.array([0x8000_0000, 0x7FC0_1234, 0xFFA0_0001, 0x7F80_0000,
                     0xFF80_0000, 0x0000_0001, 0x807F_FFFF, 0x3F80_0000],
                    dtype=np.uint32)
    grads = {"g": bits.view(np.float32).reshape(2, 4)}
    back = decode_params(encode_params(grads))["g"]
    assert back.shape == (2, 4)
    assert back.view(np.uint32).tobytes() == bits.tobytes()


def test_unknown_payload_key_is_refused():
    # A payload asking for a lossy gradient wire must not quietly get the
    # lossless one.
    payload = {**_units("tiny_cnn", "baseline")[0].payload,
               "wire_codec": "dpr-fp8"}
    with pytest.raises(ValueError, match="wire_codec"):
        run_replica_unit(payload)
