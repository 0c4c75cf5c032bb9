"""Pinned golden-trace recipes for registry models.

A golden trace is only useful if the run that produced it is perfectly
reproducible, so this module fixes every degree of freedom: the model
configuration (small enough to train in milliseconds), the synthetic
batch stream, the executor seed and the optimiser.  The same recipe is
used by the ``repro trace`` CLI, the conformance test suite, and anyone
regenerating goldens after an intentional numerical change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.diagnostics.digest import TraceDigest, capture_digest
from repro.diagnostics.tracer import StepTracer
from repro.models import build_model
from repro.train.executor import GraphExecutor
from repro.train.optimizer import SGD
from repro.train.stash import LOSSLESS_POLICY_NAMES, policy_from_name

__all__ = [
    "GOLDEN_MODELS",
    "GOLDEN_POLICIES",
    "golden_batches",
    "golden_filename",
    "run_traced",
]

#: Model name -> fixed build kwargs for golden runs (kept tiny on purpose).
GOLDEN_MODELS: Dict[str, Dict[str, int]] = {
    "tiny_cnn": {"batch_size": 8, "num_classes": 4, "image_size": 8},
    "scaled_vgg": {
        "batch_size": 8, "num_classes": 4, "image_size": 8, "width": 4,
    },
    "scaled_alexnet": {"batch_size": 8, "num_classes": 4, "image_size": 16},
    "lstm": {
        "batch_size": 8, "num_classes": 4, "seq_len": 6,
        "input_size": 8, "hidden_size": 12,
    },
    "densenet": {
        "batch_size": 8, "num_classes": 4, "image_size": 8,
        "init_channels": 4, "growth": 4, "blocks": 2, "block_layers": 2,
    },
}

#: The policy arms pinned as goldens in the conformance suite.
GOLDEN_POLICIES = LOSSLESS_POLICY_NAMES


def golden_filename(model: str, policy: str) -> str:
    """Canonical golden-trace filename for a model/policy arm."""
    return f"{model}--{policy}.json"


def golden_batches(
    model: str, steps: int, seed: int = 0
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The pinned synthetic batch stream for a golden run.

    The input geometry follows the recipe's kwargs — ``image_size``
    models draw (B, 3, S, S) images, ``seq_len`` models draw (B, T, F)
    sequences — from the same RNG stream either way, so pre-existing
    image goldens are byte-identical to before sequences existed.
    """
    spec = GOLDEN_MODELS[model]
    rng = np.random.default_rng(seed + 1_000_003)
    batch, classes = spec["batch_size"], spec["num_classes"]
    if "seq_len" in spec:
        shape = (batch, spec["seq_len"], spec["input_size"])
    else:
        shape = (batch, 3, spec["image_size"], spec["image_size"])
    return [
        (
            rng.normal(0.0, 1.0, shape).astype(np.float32),
            rng.integers(0, classes, batch),
        )
        for _ in range(steps)
    ]


def run_traced(
    model: str,
    policy: str,
    steps: int = 3,
    seed: int = 0,
    tracer: Optional[StepTracer] = None,
    check_invariants: bool = False,
) -> TraceDigest:
    """Run the pinned recipe for ``model``/``policy``; return its digest.

    Args:
        model: A key of :data:`GOLDEN_MODELS`.
        policy: A :data:`~repro.train.stash.POLICY_NAMES` name.
        steps: Number of SGD steps (goldens pin 3).
        seed: Master seed for parameters and the batch stream.
        tracer: Optional :class:`StepTracer` to observe the run with.
        check_invariants: Enable the full runtime invariant suite.
    """
    spec = GOLDEN_MODELS[model]
    graph = build_model(model, **spec)
    executor = GraphExecutor(graph, policy_from_name(policy, graph),
                             seed=seed, tracer=tracer)
    if check_invariants:
        executor.enable_invariants()
    optimizer = SGD(lr=0.01, momentum=0.9)
    return capture_digest(
        executor,
        golden_batches(model, steps, seed),
        optimizer=optimizer,
        model=model,
        policy=policy,
        seed=seed,
    )
