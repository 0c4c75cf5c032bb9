"""Replicas-N ≡ serial differential oracle.

Checks the distributed layer's determinism contract on small live runs,
entirely in-process (the fuzz loop budgets milliseconds per seed; the
multi-worker equivalence runs in ``tests/distributed/test_replica.py``):

* **shard-concat** — concatenating the replica shards reproduces the
  serial batch byte-for-byte;
* **pool-pipeline** — one full step through the work-unit pipeline
  (``run_units`` inline, including the JSON/base64 result
  normalisation a worker process or journal replay would apply) merges
  to bits identical to calling the unit executor directly;
* **merge-order** — the same step's results, handed to the merge in
  reversed arrival order, still merge to those bits.

A pairwise tree over 2 or 4 shards is symmetric under reversal, so a
merge that walks shards out of index order only shows at 3 — the one
order-sensitive count up to 4 — and the two merge checks step 3 shards
on every seed.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.verify.oracles import Violation

ORACLE_DISTRIBUTED = "distributed-replica"


def _tiny_payload(seed: int, num_shards: int) -> dict:
    """A minimal replica-step base payload (tiny graph, tiny batch)."""
    return {
        "model": "tiny_cnn",
        "model_kwargs": {"num_classes": 4, "image_size": 8, "channels": 8},
        "batch_size": 4,
        "num_shards": num_shards,
        "seed": seed,
        "policy": "baseline",
        "data": {"num_samples": 16, "noise": 0.6, "data_seed": seed},
    }


def check_distributed(seed: int) -> List[Violation]:
    """Run the distributed determinism battery for one seed."""
    from repro.distributed.allreduce import tree_reduce, tree_reduce_gradients
    from repro.distributed.replica import (
        decode_params,
        merge_replica_results,
        replica_work_units,
        run_replica_unit,
    )
    from repro.distributed.shard import split_batch
    from repro.models.registry import build_model
    from repro.orchestrate import run_units
    from repro.train.executor import GraphExecutor

    rng = np.random.default_rng(seed + 0xD157)
    violations: List[Violation] = []

    # (1) shard-concat: byte-identical reassembly for every shard count.
    batch = int(rng.integers(3, 9))
    images = rng.normal(0, 1, (batch, 3, 4, 4)).astype(np.float32)
    labels = rng.integers(0, 4, batch).astype(np.int64)
    for shards in range(1, batch + 1):
        parts = split_batch(images, labels, shards)
        re_img = np.concatenate([p[0] for p in parts])
        re_lab = np.concatenate([p[1] for p in parts])
        if (re_img.tobytes() != images.tobytes()
                or re_lab.tobytes() != labels.tobytes()):
            violations.append(Violation(
                ORACLE_DISTRIBUTED,
                f"shard concat not byte-identical at {shards} shards",
                seed, "shard-concat",
            ))

    # (2) pool-pipeline: inline run_units (with its JSON round-trip)
    # must merge to the same bits as direct executor calls.  The master
    # parameters are a fresh executor's: initialisation does not depend
    # on the batch size.
    shards = 3  # the one order-sensitive count up to 4 (module docstring)
    graph = build_model("tiny_cnn", batch_size=2, num_classes=4,
                        image_size=8, channels=8)
    params = GraphExecutor(graph, seed=seed).parameters()
    units = replica_work_units(_tiny_payload(seed, shards), 0, params)
    results = run_units(units, workers=1)
    try:
        pool = merge_replica_results(units, results)
    except RuntimeError as exc:
        return violations + [Violation(
            ORACLE_DISTRIBUTED, f"pool pipeline failed: {exc}", seed,
            "pool-pipeline",
        )]
    # (3) merge-order: the same results, arrived last shard first.
    reversed_arrival = {key: results[key] for key in reversed(results)}
    merges = {
        "pool-pipeline": pool,
        "merge-order": merge_replica_results(units, reversed_arrival),
    }

    direct = [run_replica_unit(unit.payload) for unit in units]
    total = sum(d["shard_size"] for d in direct)
    direct_loss = float(tree_reduce([
        np.float32(d["shard_size"] / total) * np.float32(d["loss"])
        for d in direct
    ]))
    direct_merged = tree_reduce_gradients(
        [decode_params(d["grads"]) for d in direct],
        [d["shard_size"] for d in direct],
    )
    for subject, (loss, merged) in merges.items():
        if loss != direct_loss:
            violations.append(Violation(
                ORACLE_DISTRIBUTED,
                f"{subject} loss {loss!r} differs from direct "
                f"{direct_loss!r} ({shards} shards)",
                seed, subject,
            ))
        for key in direct_merged:
            if merged[key].tobytes() != direct_merged[key].tobytes():
                violations.append(Violation(
                    ORACLE_DISTRIBUTED,
                    f"{subject} merge of {key!r} differs from direct "
                    f"execution ({shards} shards)",
                    seed, subject,
                ))
                break
    return violations
