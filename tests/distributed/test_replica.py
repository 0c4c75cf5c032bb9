"""One data-parallel step through the process pool: replicas-N ≡ serial.

Four shards of one batch-8 step run as ``replica-step`` units through
``run_units`` at one, two and three workers (three workers over four
shards is the elastic case: one worker runs two shards), and
``merge_replica_results`` must give one loss-and-gradient digest for
every worker count.  The master parameters are a full-batch executor's:
initialisation does not depend on the batch size.

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
    merge_replica_results,
    replica_work_units,
)
from repro.distributed.wire import decode_wire
from repro.models.registry import build_model
from repro.orchestrate import run_units
from repro.train.executor import GraphExecutor

#: Pinned digest of the ``tiny_cnn`` / ``auto`` wire / ``baseline`` step;
#: guards sharding, RNG derivation, the wire codec and the tree merge
#: against silent drift.
_GOLDEN = "fd8f99d761574f3d95ef8ea868bba8395eae9f2d3c08f220734c81940228d19b"

_MODELS = ("tiny_cnn", "lstm")
_WIRES = ("auto", "dpr-fp8")
_POLICIES = ("baseline", "gist-lossless")
_WORKERS = (1, 2, 3)


def _units(model, wire, policy, num_shards=4):
    recipe = GOLDEN_MODELS[model]
    base = {
        "model": model,
        "model_kwargs": {k: v for k, v in recipe.items()
                         if k != "batch_size"},
        "batch_size": recipe["batch_size"],
        "num_shards": num_shards,
        "seed": 0,
        "wire_codec": wire,
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
def _step_digests(model, wire, policy):
    """The step's digest at each worker count of ``_WORKERS``."""
    units = _units(model, wire, policy)
    return tuple(
        _digest(*merge_replica_results(units,
                                       run_units(units, workers=workers)))
        for workers in _WORKERS
    )


_CASES = [pytest.param(m, w, p, id=f"{m}-{w}-{p}")
          for m in _MODELS for w in _WIRES for p in _POLICIES]


@pytest.mark.parametrize("model, wire, policy", _CASES)
def test_worker_count_does_not_change_the_step(model, wire, policy):
    assert len(set(_step_digests(model, wire, policy))) == 1


@pytest.mark.parametrize("model, wire", [
    pytest.param(m, w, id=f"{m}-{w}") for m in _MODELS for w in _WIRES])
def test_gist_lossless_step_matches_baseline(model, wire):
    assert _step_digests(model, wire, "gist-lossless") \
        == _step_digests(model, wire, "baseline")


@pytest.mark.parametrize("model, policy", [
    pytest.param(m, p, id=f"{m}-{p}") for m in _MODELS for p in _POLICIES])
def test_lossy_wire_changes_the_step(model, policy):
    # The dpr-fp8 rounding really happened, and still did not depend on
    # the worker count (checked above).
    assert _step_digests(model, "dpr-fp8", policy) \
        != _step_digests(model, "auto", policy)


def test_serial_step_matches_pinned_digest():
    assert _step_digests("tiny_cnn", "auto", "baseline")[0] == _GOLDEN


def test_merge_walks_shards_in_index_order():
    # A pairwise tree over 2 or 4 shards is symmetric under reversal, so
    # only an odd shard count shows a merge that walks the shards in any
    # order but their index.  Results arrive in reverse here.
    units = _units("tiny_cnn", "auto", "baseline", num_shards=3)
    results = run_units(units, workers=1)
    arrived = {u.key: results[u.key] for u in reversed(units)}
    _, merged = merge_replica_results(units, arrived)
    values = [results[u.key].value for u in units]
    expected = tree_reduce_gradients(
        [{k: decode_wire(m) for k, m in v["grads"].items()} for v in values],
        [v["shard_size"] for v in values],
    )
    assert sorted(merged) == sorted(expected)
    for key in expected:
        assert merged[key].tobytes() == expected[key].tobytes(), key
