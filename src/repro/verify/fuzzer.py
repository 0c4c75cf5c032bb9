"""Seed-deterministic random training-graph generator.

The planner/allocator stack is only as trustworthy as the graphs it has
been exercised on, and every model in :mod:`repro.models` is hand-written.
:class:`GraphFuzzer` closes that gap: from a single integer seed it grows
a random — but always shape-valid — training graph mixing chains,
fan-out/fan-in merges (``Add`` residuals and ``Concat`` inception blocks)
and every layer kind in the library, over randomised batch sizes, channel
counts and image sizes.

Determinism contract: ``GraphFuzzer(seed).graph(max_ops=k)`` always builds
the same graph for the same ``(seed, k)`` — the property the ``repro
fuzz`` CLI and the violation minimizer rely on to reproduce and shrink a
failure from nothing but its seed.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graph.builder import GraphBuilder, NodeRef
from repro.graph.graph import Graph
from repro.layers import (
    Add,
    AvgPool2D,
    BatchNorm2D,
    Concat,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    LocalResponseNorm,
    LSTMCell,
    MaxPool2D,
    ReLU,
    RNNCell,
    Sigmoid,
    SoftmaxCrossEntropy,
    Tanh,
    unroll,
)

#: Default cap on generated op count (cheap enough for smoke batches).
DEFAULT_MAX_OPS = 24

_MIN_SPATIAL_FOR_POOL = 2


class GraphFuzzer:
    """Grows random valid training graphs from an integer seed.

    Args:
        seed: Master seed; fully determines every generated graph.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def graph(
        self,
        max_ops: int = DEFAULT_MAX_OPS,
        recurrent_shapes: bool = False,
    ) -> Graph:
        """Generate one graph with at most ``max_ops`` ops before the head.

        Shrinking ``max_ops`` with the seed fixed yields a *prefix* of the
        same random decision stream, which is what lets the minimizer
        shrink a failing graph without changing the layers it kept.

        ``recurrent_shapes`` switches to the sequence genre: a rank-3
        input feeding an unrolled LSTM or RNN column (weight-tied steps,
        time slices, a state slice) under a dense head.  The genre has
        its own decision stream; the default genre never draws through
        this branch, so default-mode seeds stay pinned.
        """
        rng = np.random.default_rng(self.seed)
        if recurrent_shapes:
            return self._recurrent_graph(rng, max_ops)
        batch = int(rng.choice([1, 2, 4, 8]))
        channels = int(rng.integers(1, 7))
        side = int(rng.choice([4, 6, 8, 12, 16]))
        classes = int(rng.integers(2, 9))

        b = GraphBuilder(f"fuzz_{self.seed}", (batch, channels, side, side))
        x = b.input
        budget = max(1, int(max_ops))
        while budget > 0:
            roll = rng.random()
            if roll < 0.22 and budget >= 4 and len(b.shape_of(x)) == 4:
                x, used = self._merge_block(b, x, rng, budget)
            else:
                x, used = self._single_op(b, x, rng)
            budget -= used
        x = self._head(b, x, rng, classes)
        b.mark_output(x)
        return b.build()

    # ------------------------------------------------------------------
    def _recurrent_graph(self, rng, max_ops: int) -> Graph:
        """The sequence genre: an unrolled recurrent column plus head.

        Every unrolled step costs 2 ops (time slice + step), so the
        sequence length shrinks with ``max_ops`` — preserving the
        minimizer's shrink-by-budget contract within the genre.
        """
        batch = int(rng.choice([1, 2, 4, 8]))
        seq_len = int(rng.integers(2, 6))
        input_size = int(rng.integers(2, 9))
        hidden = int(rng.integers(3, 13))
        classes = int(rng.integers(2, 9))
        cell_type = LSTMCell if rng.random() < 0.5 else RNNCell
        seq_len = max(2, min(seq_len, max(1, int(max_ops)) // 2))

        b = GraphBuilder(
            f"fuzz_{self.seed}_seq", (batch, seq_len, input_size)
        )
        x = unroll(b, cell_type(input_size, hidden), seq_len)
        if rng.random() < 0.4:
            x = b.add(Tanh() if rng.random() < 0.5 else ReLU(), x)
        if rng.random() < 0.3:
            x = b.add(Dropout(p=0.3, seed=int(rng.integers(0, 1 << 16))), x)
        x = b.add(Dense(classes), x)
        x = b.add(SoftmaxCrossEntropy(), x)
        b.mark_output(x)
        return b.build()

    # ------------------------------------------------------------------
    def _spatial(self, b: GraphBuilder, ref: NodeRef) -> int:
        shape = b.shape_of(ref)
        return shape[2] if len(shape) == 4 else 0

    def _single_op(self, b: GraphBuilder, x: NodeRef, rng) -> tuple:
        """Append one random shape-valid op; returns (ref, ops used)."""
        side = self._spatial(b, x)
        if side == 0:  # already flattened: only rank-agnostic ops remain
            roll = rng.random()
            if roll < 0.5:
                return b.add(Dense(int(rng.integers(2, 17))), x), 1
            if roll < 0.75:
                return b.add(ReLU(), x), 1
            return b.add(
                Dropout(p=0.3, seed=int(rng.integers(0, 1 << 16))), x), 1
        choices = ["conv", "relu", "act", "bn", "lrn", "dropout", "conv_stride"]
        if side >= _MIN_SPATIAL_FOR_POOL:
            choices += ["maxpool", "avgpool"]
        if side <= 4:
            choices += ["gavg", "flatten"]
        kind = rng.choice(choices)
        if kind == "conv":
            k = int(rng.choice([1, 3]))
            out_c = int(rng.integers(1, 9))
            return b.add(Conv2D(out_c, k, pad=k // 2), x), 1
        if kind == "conv_stride":
            out_c = int(rng.integers(1, 9))
            if side >= 3:
                return b.add(Conv2D(out_c, 3, stride=2, pad=1), x), 1
            return b.add(Conv2D(out_c, 1), x), 1
        if kind == "relu":
            return b.add(ReLU(), x), 1
        if kind == "act":
            layer = Sigmoid() if rng.random() < 0.5 else Tanh()
            return b.add(layer, x), 1
        if kind == "bn":
            return b.add(BatchNorm2D(), x), 1
        if kind == "lrn":
            return b.add(LocalResponseNorm(size=3), x), 1
        if kind == "dropout":
            return b.add(Dropout(p=0.3, seed=int(rng.integers(0, 1 << 16))), x), 1
        if kind == "maxpool":
            return b.add(MaxPool2D(2, 2), x), 1
        if kind == "avgpool":
            return b.add(AvgPool2D(2, 2), x), 1
        if kind == "gavg":
            return b.add(GlobalAvgPool2D(), x), 1
        return b.add(Flatten(), x), 1

    def _merge_block(self, b: GraphBuilder, x: NodeRef, rng, budget: int):
        """Fan-out into 2-3 branches and merge with Add or Concat."""
        n_branches = int(rng.integers(2, 4))
        use_add = rng.random() < 0.5
        in_c = b.shape_of(x)[1]
        branches: List[NodeRef] = []
        used = 1  # the merge op itself
        per_branch = max(1, (budget - 1) // n_branches)
        for _ in range(n_branches):
            ref = x
            for _ in range(int(rng.integers(1, per_branch + 1))):
                ref = self._preserving_op(b, ref, rng,
                                          in_c if use_add else None)
                used += 1
            if use_add and b.shape_of(ref)[1] != in_c:
                ref = b.add(Conv2D(in_c, 1), ref)
                used += 1
            branches.append(ref)
        merge = Add() if use_add else Concat()
        return b.add(merge, branches), used

    def _preserving_op(self, b: GraphBuilder, x: NodeRef, rng,
                       keep_channels: Optional[int]):
        """A spatially-preserving op (branch bodies must stay mergeable)."""
        roll = rng.random()
        if roll < 0.35:
            out_c = keep_channels or int(rng.integers(1, 9))
            k = int(rng.choice([1, 3]))
            return b.add(Conv2D(out_c, k, pad=k // 2), x)
        if roll < 0.55:
            return b.add(ReLU(), x)
        if roll < 0.7:
            return b.add(BatchNorm2D(), x)
        if roll < 0.85:
            return b.add(Sigmoid() if rng.random() < 0.5 else Tanh(), x)
        return b.add(Dropout(p=0.2, seed=int(rng.integers(0, 1 << 16))), x)

    def _head(self, b: GraphBuilder, x: NodeRef, rng, classes: int) -> NodeRef:
        """Classifier head: optional ReLU, Dense(classes), softmax loss."""
        if len(b.shape_of(x)) == 4 and rng.random() < 0.3:
            x = b.add(GlobalAvgPool2D(), x)
        if rng.random() < 0.5:
            x = b.add(ReLU(), x)
        x = b.add(Dense(classes), x)
        return b.add(SoftmaxCrossEntropy(), x)
