#!/usr/bin/env python
"""Extending the library: plug in your own stashed-map encoding.

Implements **Top-K sparsification** — keep only the k% largest-magnitude
values of a stashed map (a lossy cousin of SSDC used by gradient
compression literature) — then evaluates it exactly like a built-in
encoding: accuracy impact via the training runtime, and bytes via the
same measurement hooks.

This is the template for downstream experimentation: one Encoding
subclass + one StashPolicy gives a full paper-style evaluation.

Run:  python examples/custom_encoding.py
Set REPRO_FAST=1 for a seconds-long smoke run (fewer sweeps/epochs).
"""

import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.analysis import format_table
from repro.encodings import Encoding
from repro.models import scaled_vgg
from repro.train import SGD, StashPolicy, Trainer, make_synthetic

FAST = bool(os.environ.get("REPRO_FAST"))
KEEP_SWEEP = (1.0, 0.25) if FAST else (1.0, 0.5, 0.25, 0.10)
EPOCHS = 1 if FAST else 4
NUM_SAMPLES = 128 if FAST else 640


@dataclass(frozen=True)
class TopKTensor:
    """Indices and values of the kept entries, plus the original shape."""

    indices: np.ndarray   # int32
    values: np.ndarray    # float32
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return self.indices.nbytes + self.values.nbytes


class TopKEncoding(Encoding):
    """Keep the top ``keep_fraction`` of values by magnitude; zero the rest."""

    lossless = False

    def __init__(self, keep_fraction: float = 0.25):
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
        self.keep_fraction = keep_fraction
        self.name = f"topk-{keep_fraction:.2f}"

    def encoded_bytes(self, num_elements: int, **ctx) -> int:
        kept = max(1, int(num_elements * self.keep_fraction))
        return kept * 8  # 4-byte index + 4-byte value

    def encode(self, x: np.ndarray) -> TopKTensor:
        flat = np.asarray(x, dtype=np.float32).ravel()
        kept = max(1, int(flat.size * self.keep_fraction))
        idx = np.argpartition(np.abs(flat), -kept)[-kept:].astype(np.int32)
        return TopKTensor(idx, flat[idx], tuple(x.shape))

    def decode(self, encoded: TopKTensor) -> np.ndarray:
        flat = np.zeros(int(np.prod(encoded.shape)), dtype=np.float32)
        flat[encoded.indices] = encoded.values
        return flat.reshape(encoded.shape)

    def measure_bytes(self, encoded: TopKTensor) -> int:
        return encoded.nbytes


class TopKPolicy(StashPolicy):
    """Apply Top-K to every stashed feature map."""

    def __init__(self, keep_fraction: float):
        super().__init__()  # the FP32 identity, as self._identity
        self._encoding = TopKEncoding(keep_fraction)

    def encoding_for(self, graph, node_id):
        if node_id == graph.input_id:
            return self._identity  # keep the raw images exact
        return self._encoding


def main() -> None:
    train_set, test_set = make_synthetic(
        num_samples=NUM_SAMPLES, num_classes=8, image_size=16, noise=1.2,
        seed=3,
    )
    rows = []
    for keep in KEEP_SWEEP:
        graph = scaled_vgg(batch_size=32, num_classes=8, image_size=16,
                           width=8)
        policy = None if keep == 1.0 else TopKPolicy(keep)
        trainer = Trainer(graph, policy, SGD(lr=0.01, momentum=0.9), seed=0)
        result = trainer.train(train_set, test_set, epochs=EPOCHS,
                               label=f"top-{keep:.0%}")
        compression = 4.0 / (8.0 * keep)  # FP32 bytes / topk bytes
        rows.append([f"{keep:.0%}", f"{compression:.1f}x",
                     f"{result.final_accuracy:.1%}"])
    print(format_table(
        ["kept values", "stash compression", "final accuracy"],
        rows,
        title=f"Top-K stash sparsification on scaled VGG ({EPOCHS} epochs):",
    ))
    print("\nTakeaway: backward-only Top-K tolerates aggressive dropping —"
          "\nthe same delayed-error principle that makes DPR work.")


if __name__ == "__main__":
    main()
