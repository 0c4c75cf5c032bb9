"""Training loop with accuracy and sparsity instrumentation.

Drives the Figure 12 accuracy study (per-epoch accuracy-loss curves under
different stash policies) and the Figure 14 sensitivity study (per-layer
SSDC compression ratio sampled over training time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.encodings.ssdc import csr_bytes
from repro.graph.graph import Graph
from repro.train.data import Dataset, minibatches
from repro.train.executor import GraphExecutor
from repro.train.optimizer import SGD
from repro.train.stash import StashPolicy


@dataclass
class SparsitySample:
    """Per-layer sparsity measured at one point in training."""

    minibatch_index: int
    sparsity: Dict[str, float]

    def compression_ratios(self, elements: Dict[str, int]) -> Dict[str, float]:
        """SSDC MFR per layer: dense bytes / narrow-CSR bytes."""
        out = {}
        for name, s in self.sparsity.items():
            n = elements[name]
            out[name] = (4 * n) / csr_bytes(n, s)
        return out


@dataclass
class TrainResult:
    """Everything a Figure 12 / 14 bench needs from one training run."""

    label: str
    epoch_losses: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    sparsity_samples: List[SparsitySample] = field(default_factory=list)

    @property
    def accuracy_loss_curve(self) -> List[float]:
        """Figure 12 y-axis: 1 - accuracy, per epoch."""
        return [1.0 - a for a in self.test_accuracy]

    @property
    def final_accuracy(self) -> float:
        """Test accuracy after the last epoch."""
        if not self.test_accuracy:
            raise ValueError("run has no recorded epochs")
        return self.test_accuracy[-1]


class Trainer:
    """SGD training of a graph under a stash policy.

    Args:
        graph: Training graph (fixed minibatch size baked into its input).
        policy: Stash policy; ``None`` selects the FP32 baseline.
        optimizer: Defaults to SGD(lr=0.05, momentum=0.9).
        seed: Controls parameter init and minibatch shuffling.
        tracer: Optional :class:`~repro.diagnostics.tracer.StepTracer`
            attached to the executor; records one step record per
            training minibatch.
    """

    def __init__(
        self,
        graph: Graph,
        policy: Optional[StashPolicy] = None,
        optimizer: Optional[SGD] = None,
        seed: int = 0,
        tracer=None,
    ):
        self.graph = graph
        self.executor = GraphExecutor(graph, policy, seed=seed, tracer=tracer)
        self.optimizer = optimizer or SGD(lr=0.05, momentum=0.9)
        self._shuffle_rng = np.random.default_rng(seed + 1)
        self.batch_size = graph.node(graph.input_id).output_shape[0]

    # ------------------------------------------------------------------
    def evaluate(self, dataset: Dataset) -> float:
        """Top-1 accuracy over whole minibatches of ``dataset``."""
        correct = 0
        seen = 0
        n = dataset.num_samples - dataset.num_samples % self.batch_size
        for start in range(0, n, self.batch_size):
            images = dataset.images[start : start + self.batch_size]
            labels = dataset.labels[start : start + self.batch_size]
            logits = self.executor.predict(images)
            correct += int(np.count_nonzero(logits.argmax(axis=1) == labels))
            seen += self.batch_size
        if seen == 0:
            raise ValueError("dataset smaller than one minibatch")
        return correct / seen

    def train(
        self,
        train_set: Dataset,
        test_set: Dataset,
        epochs: int = 5,
        label: str = "",
        sparsity_every: int = 0,
    ) -> TrainResult:
        """Train for ``epochs`` and record per-epoch metrics.

        Args:
            train_set: Training split.
            test_set: Evaluation split (whole minibatches only).
            epochs: Number of passes over ``train_set``.
            label: Name recorded in the result (e.g. ``"gist-fp8"``).
            sparsity_every: If > 0, record per-layer sparsity every N
                minibatches (the Figure 14 instrumentation).
        """
        result = TrainResult(label or self.graph.name)
        step = 0
        params = self.executor.parameters()
        for _ in range(epochs):
            losses = []
            for images, labels in minibatches(
                train_set, self.batch_size, self._shuffle_rng
            ):
                loss = self.executor.forward(images, labels, train=True)
                if not np.isfinite(loss):
                    # Divergence (e.g. FP8 on a precision-hungry network):
                    # record and halt, as the paper does when "the network
                    # stops training".
                    losses.append(float("inf"))
                    result.epoch_losses.append(float(np.mean(losses)))
                    result.test_accuracy.append(self.evaluate(test_set))
                    return result
                grads = self.executor.backward()
                self.optimizer.step(params, grads)
                param_dtype = getattr(self.executor.policy, "param_dtype", None)
                if param_dtype is not None:
                    from repro.encodings.floatsim import quantize

                    for p in params.values():
                        p[...] = quantize(p, param_dtype)
                losses.append(loss)
                if sparsity_every and step % sparsity_every == 0:
                    result.sparsity_samples.append(
                        SparsitySample(step, dict(self.executor.last_sparsity))
                    )
                step += 1
            result.epoch_losses.append(float(np.mean(losses)))
            result.test_accuracy.append(self.evaluate(test_set))
        return result


def feature_map_elements(graph: Graph) -> Dict[str, int]:
    """Output element count per node name (for compression-ratio math)."""
    out = {}
    for node in graph.nodes:
        n = 1
        for d in node.output_shape:
            n *= d
        out[node.name] = n
    return out
