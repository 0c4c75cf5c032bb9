"""Replicas-N ≡ serial differential oracle.

Checks the distributed layer's determinism contract on small live runs,
entirely in-process (the fuzz loop budgets milliseconds per seed; the
multi-worker equivalence runs in ``tests/distributed/test_replica.py``):

* **shard-concat** — concatenating the replica shards reproduces the
  serial batch byte-for-byte;
* **merge-order** — the pairwise-tree merge gives the same bits when
  shard results arrive in an adversarially shuffled order;
* **wire-roundtrip** — every lossless wire codec round-trips live
  gradients bit-exactly (CSR modulo its documented signed-zero
  canonicalisation) and every lossy codec is deterministic;
* **pool-pipeline** — one full step through the work-unit pipeline
  (``run_units`` inline, including the JSON/base64 result
  normalisation a worker process or journal replay would apply) merges
  to bits identical to calling the unit executor directly.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.verify.oracles import Violation

ORACLE_DISTRIBUTED = "distributed-replica"

#: Wire codecs the oracle exercises against live gradients.
_ORACLE_CODECS = ("fp32", "rle", "csr", "auto", "dpr-fp8")


def _tiny_payload(seed: int, num_shards: int, codec: str) -> dict:
    """A minimal replica-step base payload (tiny graph, tiny batch)."""
    return {
        "model": "tiny_cnn",
        "model_kwargs": {"num_classes": 4, "image_size": 8, "channels": 8},
        "batch_size": 4,
        "num_shards": num_shards,
        "seed": seed,
        "wire_codec": codec,
        "policy": "baseline",
        "data": {"num_samples": 16, "noise": 0.6, "data_seed": seed},
    }


def check_distributed(seed: int) -> List[Violation]:
    """Run the distributed determinism battery for one seed."""
    from repro.distributed.allreduce import tree_reduce_gradients
    from repro.distributed.replica import (
        merge_replica_results,
        replica_work_units,
        run_replica_unit,
    )
    from repro.distributed.shard import split_batch
    from repro.distributed.wire import decode_wire, wire_codec
    from repro.models.registry import build_model
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

    # Live gradients for the wire and merge checks.
    graph = build_model("tiny_cnn", batch_size=2, num_classes=4,
                        image_size=8, channels=8)
    executor = GraphExecutor(graph, seed=seed)
    x = rng.normal(0, 1, (2, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 4, 2).astype(np.int64)
    executor.forward(x, y, train=True)
    grads = executor.backward()

    # (2) merge-order: tree over shard-indexed inputs is invariant to
    # arrival order.  Simulate out-of-order completion by filling a dict
    # in shuffled order, then merging in shard order, as every caller
    # must.
    fake = [
        {k: rng.normal(0, 1, g.shape).astype(np.float32)
         for k, g in grads.items()}
        for _ in range(4)
    ]
    sizes = [1, 2, 1, 2]
    in_order = tree_reduce_gradients(fake, sizes)
    arrival = {}
    for idx in rng.permutation(4):
        arrival[int(idx)] = fake[int(idx)]
    shuffled = tree_reduce_gradients(
        [arrival[i] for i in range(4)], sizes
    )
    for key in in_order:
        if in_order[key].tobytes() != shuffled[key].tobytes():
            violations.append(Violation(
                ORACLE_DISTRIBUTED,
                f"tree merge of {key!r} depends on arrival order",
                seed, "merge-order",
            ))
            break

    # (3) wire-roundtrip on the live gradients.
    for name in _ORACLE_CODECS:
        codec = wire_codec(name)
        for pname, g in grads.items():
            first = codec.encode(g)
            again = codec.encode(g)
            if first != again:
                violations.append(Violation(
                    ORACLE_DISTRIBUTED,
                    f"{name} encode of {pname!r} is nondeterministic",
                    seed, "wire-roundtrip",
                ))
                continue
            decoded = decode_wire(first)
            if codec.lossless:
                reference = g
                if first["codec"] == "csr":
                    # Documented canonicalisation: -0.0 -> +0.0.
                    reference = g + np.float32(0.0)
                if decoded.tobytes() != np.ascontiguousarray(
                        reference, dtype=np.float32).tobytes():
                    violations.append(Violation(
                        ORACLE_DISTRIBUTED,
                        f"{name} round trip of {pname!r} not bit-exact",
                        seed, "wire-roundtrip",
                    ))

    # (4) pool-pipeline: inline run_units (with its JSON round-trip)
    # must merge to the same bits as direct executor calls.
    from repro.orchestrate import run_units

    shards = int(rng.integers(2, 5))
    codec = str(rng.choice(["auto", "dpr-fp8"]))
    base = _tiny_payload(seed, shards, codec)
    # The master parameters are the live executor's: initialisation does
    # not depend on the batch size, and that executor has not stepped.
    units = replica_work_units(base, 0, executor.parameters())
    results = run_units(units, workers=1)
    try:
        pool_loss, pool_merged = merge_replica_results(units, results)
    except RuntimeError as exc:
        return violations + [Violation(
            ORACLE_DISTRIBUTED, f"pool pipeline failed: {exc}", seed,
            "pool-pipeline",
        )]
    direct = [run_replica_unit(unit.payload) for unit in units]
    from repro.distributed.allreduce import tree_reduce

    total = sum(d["shard_size"] for d in direct)
    direct_loss = float(tree_reduce([
        np.float32(d["shard_size"] / total) * np.float32(d["loss"])
        for d in direct
    ]))
    if pool_loss != direct_loss:
        violations.append(Violation(
            ORACLE_DISTRIBUTED,
            f"pool-pipeline loss {pool_loss!r} differs from direct "
            f"{direct_loss!r}",
            seed, "pool-pipeline",
        ))
    direct_merged = tree_reduce_gradients(
        [{k: decode_wire(m) for k, m in d["grads"].items()} for d in direct],
        [d["shard_size"] for d in direct],
    )
    for key in direct_merged:
        if pool_merged[key].tobytes() != direct_merged[key].tobytes():
            violations.append(Violation(
                ORACLE_DISTRIBUTED,
                f"pool-pipeline merge of {key!r} differs from direct "
                f"execution ({shards} shards, {codec} wire)",
                seed, "pool-pipeline",
            ))
            break
    return violations
