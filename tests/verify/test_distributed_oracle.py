"""Fault-injection tests for the ``distributed-replica`` oracle.

Each test breaks one piece of the replica step — the batch split, the
merge's shard walk — and asserts that the matching leg of
:func:`check_distributed` fires, with its subject and detail.  A merge
that walks the shards out of index order is only visible at 3 shards (a
pairwise tree over 2 or 4 is symmetric under reversal), which is what
the merge checks step on every seed.
"""

import pytest

import repro.distributed.replica as replica
import repro.distributed.shard as shard
from repro.verify import ORACLE_DISTRIBUTED, check_distributed

_SEED = 0


def _legs(violations):
    assert {v.oracle for v in violations} <= {ORACLE_DISTRIBUTED}
    return {v.subject: v.detail for v in violations}


def test_clean_step_passes():
    assert check_distributed(_SEED) == []


def test_dropped_row_fires_shard_concat(monkeypatch):
    split = shard.split_batch

    def drop_last_row(images, labels, num_shards):
        parts = split(images, labels, num_shards)
        img, lab = parts[-1]
        return parts[:-1] + [(img[:-1], lab[:-1])]

    monkeypatch.setattr(shard, "split_batch", drop_last_row)
    legs = _legs(check_distributed(_SEED))
    assert set(legs) == {"shard-concat"}
    assert "shard concat not byte-identical" in legs["shard-concat"]


def test_reversed_shard_walk_fires_pool_pipeline(monkeypatch):
    merge = replica.merge_replica_results
    monkeypatch.setattr(replica, "merge_replica_results",
                        lambda units, results: merge(units[::-1], results))
    legs = _legs(check_distributed(_SEED))
    assert "pool-pipeline" in legs
    assert "differs from direct" in legs["pool-pipeline"]
    assert "(3 shards)" in legs["pool-pipeline"]


@pytest.mark.parametrize("seed", range(20))
def test_reversed_shard_walk_fires_on_every_seed(monkeypatch, seed):
    merge = replica.merge_replica_results
    monkeypatch.setattr(replica, "merge_replica_results",
                        lambda units, results: merge(units[::-1], results))
    legs = _legs(check_distributed(seed))
    assert "pool-pipeline" in legs
    assert "(3 shards)" in legs["pool-pipeline"]


def test_completion_order_walk_fires_merge_order(monkeypatch):
    # The pool returns results in shard order, so only the reversed
    # arrival shows a merge that walks ``results`` instead of ``units``.
    merge = replica.merge_replica_results

    def completion_order(units, results):
        by_key = {unit.key: unit for unit in units}
        return merge([by_key[key] for key in results], results)

    monkeypatch.setattr(replica, "merge_replica_results", completion_order)
    legs = _legs(check_distributed(_SEED))
    assert set(legs) == {"merge-order"}
    assert "merge-order merge of" in legs["merge-order"]
    assert "(3 shards)" in legs["merge-order"]

