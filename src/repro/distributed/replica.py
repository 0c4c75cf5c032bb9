"""The ``replica-step`` work unit: one shard of one training step.

Payload-completeness is the whole design: the unit carries the model
recipe, the master parameters (base64 float32), the data recipe and the
``(step, shard)`` coordinates, so *any* worker process — or the parent,
inline — reconstructs the identical computation from the payload alone.
That is what makes the run journal's fingerprint resume sound for
training: a re-run after a crash re-issues byte-identical payloads, so
completed shards replay from the journal and interrupted ones re-execute
to the same bits.  The shard's gradients come back in the same base64
float32 form as the parameters went out (:func:`encode_params`), so
every bit — ``-0.0``, NaN payloads, denormals — crosses the pool both
ways unchanged.

Per-shard randomness (Dropout masks) comes from
``SeedSequence([seed, tag, step, shard])`` children: independent across
shards and steps, identical across worker counts and retries.
"""

from __future__ import annotations

import base64
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.distributed.allreduce import tree_reduce, tree_reduce_gradients
from repro.distributed.shard import shard_slices

#: Domain-separation tags for the run's SeedSequence splits.
_BATCH_TAG = 0xBA7C
_MASK_TAG = 0xD120

#: Every key a ``replica-step`` payload may carry.  Any other key is
#: refused, not ignored: a payload that asks for an option the unit does
#: not have would otherwise get a step that quietly lacks it.
_PAYLOAD_KEYS = frozenset({
    "model", "model_kwargs", "batch_size", "num_shards", "seed", "policy",
    "data", "step", "shard", "params",
})


# ----------------------------------------------------------------------
# Parameter transport
# ----------------------------------------------------------------------
def encode_params(params: Dict[str, np.ndarray]) -> Dict[str, dict]:
    """Float32 tensors (master parameters out, shard gradients back) as a
    JSON-safe payload fragment."""
    return {
        name: {
            "shape": list(arr.shape),
            "data": base64.b64encode(
                np.ascontiguousarray(arr, dtype=np.float32).tobytes()
            ).decode("ascii"),
        }
        for name, arr in params.items()
    }


def decode_params(encoded: Dict[str, dict]) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_params` (fresh writable arrays)."""
    return {
        name: np.frombuffer(
            base64.b64decode(spec["data"]), dtype=np.float32
        ).reshape(tuple(spec["shape"])).copy()
        for name, spec in encoded.items()
    }


def step_batch_indices(
    seed: int, step: int, num_samples: int, batch_size: int
) -> np.ndarray:
    """Sample indices of step ``step``'s effective batch.

    A per-step ``SeedSequence([seed, tag, step])`` child draws the batch
    without replacement, so the schedule is a pure function of the
    configuration — every shard of every replica agrees on it without
    communicating.
    """
    if batch_size > num_samples:
        raise ValueError(
            f"batch_size {batch_size} exceeds dataset size {num_samples}"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, _BATCH_TAG, step])
    )
    return rng.choice(num_samples, size=batch_size, replace=False)


# ----------------------------------------------------------------------
# The unit executor
# ----------------------------------------------------------------------
def run_replica_unit(payload: dict) -> dict:
    """Work-unit executor for kind ``replica-step``.

    Rebuilds the shard's graph, installs the master parameters and the
    per-(step, shard) mask streams, runs forward + backward on the
    shard's slice of the step batch, and returns the shard loss plus the
    parameter gradients in :func:`encode_params` form.  A payload key
    outside ``_PAYLOAD_KEYS`` is a ``ValueError`` naming it.
    """
    from repro.models.registry import build_model
    from repro.train.data import make_synthetic_for
    from repro.train.executor import GraphExecutor
    from repro.train.stash import policy_from_name

    unknown = sorted(set(payload) - _PAYLOAD_KEYS)
    if unknown:
        raise ValueError(
            f"replica-step payload has unknown key(s) {unknown}; "
            f"known: {sorted(_PAYLOAD_KEYS)}"
        )
    seed = int(payload["seed"])
    step = int(payload["step"])
    shard = int(payload["shard"])
    num_shards = int(payload["num_shards"])
    batch_size = int(payload["batch_size"])

    start, stop = shard_slices(batch_size, num_shards)[shard]
    shard_size = stop - start

    model_kwargs = dict(payload.get("model_kwargs", {}))
    graph = build_model(payload["model"], batch_size=shard_size,
                        **model_kwargs)
    executor = GraphExecutor(
        graph, policy_from_name(payload.get("policy", "baseline"), graph),
        seed=seed,
    )
    params = executor.parameters()
    for name, arr in decode_params(payload["params"]).items():
        if name not in params:
            raise KeyError(f"payload parameter {name!r} not in graph")
        params[name][...] = arr
    executor.reset_layer_state(
        np.random.SeedSequence([seed, _MASK_TAG, step, shard])
    )

    data = payload["data"]
    # The dataset's geometry comes from the graph itself (model kwargs
    # like tiny_cnn's ``channels`` name conv widths, not input planes);
    # rank dispatch picks images or sequences to match the input node.
    train_set, _ = make_synthetic_for(
        graph.node(graph.input_id).output_shape,
        num_samples=int(data["num_samples"]),
        num_classes=int(model_kwargs.get("num_classes", 4)),
        noise=float(data.get("noise", 0.6)),
        seed=int(data.get("data_seed", seed)),
    )
    batch_idx = step_batch_indices(seed, step, train_set.num_samples,
                                   batch_size)
    idx = batch_idx[start:stop]
    loss = executor.forward(train_set.images[idx], train_set.labels[idx],
                            train=True)
    grads = executor.backward()
    return {
        "shard": shard,
        "shard_size": shard_size,
        "loss": float(loss),
        "grads": encode_params(grads),
    }


def replica_work_units(
    base_payload: dict,
    step: int,
    params: Dict[str, np.ndarray],
) -> List["WorkUnit"]:
    """One payload-complete unit per shard of training step ``step``.

    ``base_payload`` carries the static run configuration (model, data,
    seed, shard count, policy); the step number and current master
    parameters are stamped in here, which is exactly what makes the
    journal fingerprint step-specific: resuming a run replays completed
    shards only when the parameters they started from are identical.
    """
    from repro.orchestrate import WorkUnit

    encoded = encode_params(params)
    return [
        WorkUnit(
            "replica-step",
            f"step:{step}/shard:{shard}",
            {**base_payload, "step": int(step), "shard": shard,
             "params": encoded},
        )
        for shard in range(int(base_payload["num_shards"]))
    ]


def merge_replica_results(
    units: Sequence["WorkUnit"],
    results: Dict[str, "UnitResult"],
) -> Tuple[float, Dict[str, np.ndarray]]:
    """Deterministic merge of one step's shard results.

    Walks units in shard order (never completion order), decodes each
    shard's gradients and tree-merges them; the step loss is
    the shard-size-weighted mean, matching the loss the serial effective
    batch would report.  Raises ``RuntimeError`` if any shard failed
    terminally — partial gradient updates are never applied.
    """
    losses: List[float] = []
    sizes: List[int] = []
    shard_grads: List[Dict[str, np.ndarray]] = []
    for unit in units:
        result = results.get(unit.key)
        if result is None or not result.ok:
            error = None if result is None else result.error
            raise RuntimeError(
                f"replica unit {unit.key!r} did not complete: "
                f"{error or 'never scheduled'}"
            )
        value = result.value
        losses.append(float(value["loss"]))
        sizes.append(int(value["shard_size"]))
        shard_grads.append(decode_params(value["grads"]))
    merged = tree_reduce_gradients(shard_grads, sizes)
    total = sum(sizes)
    loss = float(
        tree_reduce([np.float32(n / total) * np.float32(l)
                     for n, l in zip(sizes, losses)])
    )
    return loss, merged
