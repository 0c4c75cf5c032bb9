"""One data-parallel training step, checked replicas-N ≡ serial.

The package splits one step of a training run into shards and merges
them back, and every piece is deterministic, so the merged loss and
gradients never depend on how many worker processes ran the shards:

* :mod:`repro.distributed.shard` splits each step's minibatch so the
  concatenation of replica shards is byte-identical to the serial batch;
* :mod:`repro.distributed.allreduce` merges shard gradients through a
  fixed pairwise tree keyed by shard index, so the merged bits never
  depend on replica count or completion order;
* :mod:`repro.distributed.replica` is the ``replica-step`` work-unit
  executor (one shard, one step, everything from the payload; its
  gradients return as base64 float32, the form the master parameters
  go out in) and the shard-order merge of a step's results.

The ``distributed-replica`` oracle (:mod:`repro.verify.distributed`)
checks that contract on every fuzz seed.
"""

from repro.distributed.allreduce import tree_reduce, tree_reduce_gradients
from repro.distributed.replica import (
    merge_replica_results,
    replica_work_units,
    run_replica_unit,
)
from repro.distributed.shard import shard_slices, split_batch

__all__ = [
    "merge_replica_results",
    "replica_work_units",
    "run_replica_unit",
    "shard_slices",
    "split_batch",
    "tree_reduce",
    "tree_reduce_gradients",
]
