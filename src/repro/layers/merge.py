"""Multi-input merge layers used by Inception (Concat) and ResNet (Add)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.layers.base import Layer, OpContext, Shape


class Concat(Layer):
    """Concatenate along the channel axis (NCHW axis 1).

    The output is whatever buffer the context hands out
    (:meth:`~repro.layers.base.OpContext.output_buffer`), and only the
    inputs not already in place are written into it.  Along a dense
    block's concat chain the executor hands every link a channel prefix
    of one terminal-sized buffer, so the running state (``inputs[0]``)
    is already in place and each link writes only its new channels.
    The backward returns ``np.split`` views of ``dy``.
    """

    kind = "concat"

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        if len(input_shapes) < 2:
            raise ValueError("Concat needs at least two inputs")
        first = input_shapes[0]
        for s in input_shapes[1:]:
            if s[0] != first[0] or s[2:] != first[2:]:
                raise ValueError(f"incompatible concat shapes: {input_shapes}")
        channels = sum(s[1] for s in input_shapes)
        return (first[0], channels) + tuple(first[2:])

    def forward(
        self,
        xs: Sequence[np.ndarray],
        params: Dict[str, np.ndarray],
        ctx: Optional[OpContext],
        train: bool = True,
    ) -> np.ndarray:
        shape = self.infer_shape([x.shape for x in xs])
        dtype = np.result_type(*xs)
        if ctx is None:
            out = np.empty(shape, dtype)
        else:
            ctx.save_state("splits", np.array([x.shape[1] for x in xs]))
            out = ctx.output_buffer(shape, dtype)
        start = 0
        for x in xs:
            stop = start + x.shape[1]
            dst = out[:, start:stop]
            if not _same_view(x, dst):
                dst[...] = x
            start = stop
        return out

    def backward(
        self,
        dy: np.ndarray,
        params: Dict[str, np.ndarray],
        ctx: OpContext,
    ) -> Tuple[List[np.ndarray], Dict[str, np.ndarray]]:
        edges = np.cumsum(ctx.get_state("splits"))[:-1]
        return np.split(dy, edges, axis=1), {}


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` are the same elements of the same memory
    (views of one base first: the cheap test that rejects the rest)."""
    return (a.base is not None and a.base is b.base
            and a.__array_interface__["data"][0]
            == b.__array_interface__["data"][0]
            and a.shape == b.shape and a.strides == b.strides
            and a.dtype == b.dtype)


class Add(Layer):
    """Elementwise sum of equal-shaped inputs (residual connections)."""

    kind = "add"

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        if len(input_shapes) < 2:
            raise ValueError("Add needs at least two inputs")
        first = input_shapes[0]
        for s in input_shapes[1:]:
            if tuple(s) != tuple(first):
                raise ValueError(f"incompatible add shapes: {input_shapes}")
        return tuple(first)

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        return int(np.prod(output_shape)) * (len(input_shapes) - 1)

    def forward(
        self,
        xs: Sequence[np.ndarray],
        params: Dict[str, np.ndarray],
        ctx: Optional[OpContext],
        train: bool = True,
    ) -> np.ndarray:
        if ctx is not None:
            ctx.save_state("n_inputs", np.array([len(xs)]))
        out = xs[0].copy()
        for x in xs[1:]:
            out += x
        return out

    def backward(
        self,
        dy: np.ndarray,
        params: Dict[str, np.ndarray],
        ctx: OpContext,
    ) -> Tuple[List[np.ndarray], Dict[str, np.ndarray]]:
        n = int(ctx.get_state("n_inputs")[0])
        return [dy] + [dy.copy() for _ in range(n - 1)], {}
