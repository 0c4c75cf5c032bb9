"""2-D convolution implemented via im2col + GEMM.

Backward-pass dependence (paper Figure 4(d)): convolution needs its stashed
*input* ``X`` (for the weight gradient) but not its output — which is why
Binarize cannot be applied to a ReLU whose consumer is a convolution, and
SSDC is used there instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.arena import resolve_arena
from repro.layers.base import Layer, OpContext, Shape
from repro.layers.im2col import conv_output_hw


class Conv2D(Layer):
    """Convolution over NCHW tensors.

    Args:
        out_channels: Number of filters ``F``.
        kernel: Square kernel size, or ``(kh, kw)``.
        stride: Window stride.
        pad: Symmetric zero padding.
        bias: Whether to learn a per-filter bias.
    """

    kind = "conv"
    backward_needs_input = True
    backward_needs_output = False

    def __init__(
        self,
        out_channels: int,
        kernel,
        stride: int = 1,
        pad: int = 0,
        bias: bool = True,
    ):
        if out_channels <= 0:
            raise ValueError(f"out_channels must be positive, got {out_channels}")
        self.out_channels = out_channels
        self.kh, self.kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        if pad < 0:
            raise ValueError(f"pad must be non-negative, got {pad}")
        self.stride = stride
        self.pad = pad
        self.bias = bias

    # ------------------------------------------------------------------
    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        n, c, h, w = shape
        oh, ow = conv_output_hw(h, w, self.kh, self.kw, self.stride, self.pad)
        return (n, self.out_channels, oh, ow)

    def param_shapes(self, input_shapes: Sequence[Shape]) -> Dict[str, Shape]:
        (shape,) = input_shapes
        c = shape[1]
        shapes = {"w": (self.out_channels, c, self.kh, self.kw)}
        if self.bias:
            shapes["b"] = (self.out_channels,)
        return shapes

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        c = input_shapes[0][1]
        n, f, oh, ow = output_shape
        return 2 * n * f * oh * ow * c * self.kh * self.kw

    def workspace_bytes(
        self, input_shapes: Sequence[Shape], output_shape: Shape
    ) -> int:
        # Memory-optimal cuDNN (implicit GEMM) needs roughly one filter
        # matrix of scratch, not a full im2col buffer.
        c = input_shapes[0][1]
        return 4 * self.out_channels * c * self.kh * self.kw

    # ------------------------------------------------------------------
    def init_params(self, input_shapes, rng):
        c = input_shapes[0][1]
        fan_in = c * self.kh * self.kw
        std = np.sqrt(2.0 / fan_in)  # He init, suits ReLU networks
        params = {
            "w": rng.normal(0.0, std, (self.out_channels, c, self.kh, self.kw)).astype(
                np.float32
            )
        }
        if self.bias:
            params["b"] = np.zeros(self.out_channels, dtype=np.float32)
        return params

    def forward(
        self,
        xs: Sequence[np.ndarray],
        params: Dict[str, np.ndarray],
        ctx: Optional[OpContext],
        train: bool = True,
    ) -> np.ndarray:
        from repro.kernels.backends import conv_arm

        (x,) = xs
        bias = params["b"] if self.bias else None
        # The forced arm, else the chooser's for this signature: the
        # whole-batch lowering wherever it is provably bit-identical to
        # the reference loops, the loops everywhere else.
        backend = conv_arm(ctx, x, params["w"], bias, self.stride, self.pad)
        want_saved = bool(
            train and ctx is not None and ctx.stashed_input_lossless()
        )
        y, saved = backend.forward(x, params["w"], bias, self.stride,
                                   self.pad, arena=resolve_arena(ctx),
                                   want_saved=want_saved)
        if want_saved and saved is not None:
            # The stash decodes to exactly this x, so the backward
            # pass can reuse the arm's columns instead of
            # re-gathering (the arm name keys the stash because
            # each arm's column layout is its own).
            ctx.save_state("cols", (backend.name, saved))
        return y

    def backward(
        self,
        dy: np.ndarray,
        params: Dict[str, np.ndarray],
        ctx: OpContext,
    ) -> Tuple[List[np.ndarray], Dict[str, np.ndarray]]:
        from repro.kernels.backends import conv_arm

        x = ctx.stashed_input()
        bias = params["b"] if self.bias else None
        backend = conv_arm(ctx, x, params["w"], bias, self.stride, self.pad)
        try:
            saved_entry = ctx.get_state("cols")
        except KeyError:
            saved_entry = None
        saved = None
        if saved_entry is not None:
            saved_name, saved_obj = saved_entry
            if saved_name == backend.name:
                saved = saved_obj
        dx, dw = backend.backward(x, params["w"], dy, self.stride,
                                  self.pad, arena=resolve_arena(ctx),
                                  saved=saved,
                                  need_dx=ctx.input_needs_gradient())
        dparams = {"w": dw.astype(np.float32, copy=False)}
        if self.bias:
            dparams["b"] = dy.sum(axis=(0, 2, 3)).astype(np.float32, copy=False)
        if dx is not None:
            dx = dx.astype(np.float32, copy=False)
        return [dx], dparams
