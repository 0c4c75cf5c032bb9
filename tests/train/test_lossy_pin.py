"""Digest pin of the lossy training path, end to end.

The checked-in goldens cover lossless policies only, so no golden holds
DPR's rounding to the bit.  This pin does: three SGD steps of scaled VGG
at batch 16 (the ``vgg_gist`` geometry) under ``gist-fp16`` —
Binarize, SSDC and DPR-FP16 all run — hashing every step's loss,
parameter gradients and decoded stashes.  A change to the FP16 codec,
the max-pool body or the executor that moves one bit of the lossy path
moves this digest.
"""

import hashlib

from repro.diagnostics import capture_digest
from repro.models import build_model
from repro.train import SGD, GraphExecutor, policy_from_name
from repro.train.data import make_synthetic_for

BATCH, STEPS = 16, 3

#: sha256 over the three steps' (loss, grads, stash) hashes.
PINNED_GIST_FP16 = (
    "f87d63060633bcd75576a59ddaf8294230235b2b2cc564e08f611f4ddd701046"
)


def test_gist_fp16_training_digest_is_pinned():
    graph = build_model("scaled_vgg", batch_size=BATCH)
    executor = GraphExecutor(graph, policy_from_name("gist-fp16", graph),
                             seed=0)
    data, _ = make_synthetic_for(graph.node(graph.input_id).output_shape,
                                 num_samples=BATCH * STEPS, num_classes=10,
                                 seed=0)
    batches = [(data.images[i:i + BATCH], data.labels[i:i + BATCH])
               for i in range(0, BATCH * STEPS, BATCH)]
    trace = capture_digest(executor, batches,
                           optimizer=SGD(lr=0.002, momentum=0.9))
    assert trace.policy == "gist-fp16"
    assert len(trace.steps) == STEPS
    digest = hashlib.sha256()
    for step in trace.steps:
        digest.update(
            f"{step.loss_hash}{step.grads_hash}{step.stash_hash}".encode())
    assert digest.hexdigest() == PINNED_GIST_FP16
