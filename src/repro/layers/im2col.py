"""im2col / col2im helpers for convolution and pooling kernels.

These implement the classic lowering of convolution to matrix multiply: the
input is unfolded into a matrix of receptive-field columns, the convolution
becomes a GEMM, and the transposed scatter (``col2im``) implements the
backward pass.  This mirrors how cuDNN's GEMM-based algorithms work and
keeps the NumPy kernels fast enough for the scaled training experiments.

This module holds the ground truth: :func:`im2col_reference` /
:func:`col2im_reference` are the original ``kh x kw`` slice loops — what
conv's ``reference`` arm is built from — and :func:`maxpool_reference` /
:func:`maxpool_backward_reference` the original max-pool formulation
over them.  The kernel property tests and the differential oracle
compare against these.  A conv runs these loops wherever the chooser
cannot prove ``blas-fat`` bit-identical to them; ``blas-fat``, max-pool
and ``AvgPool2D`` run the loop-free
:class:`~repro.kernels.plan.KernelPlan` methods, whose gathers and
col2im slot sum are bit-identical to these loops (including the
floating-point accumulation order) as is max-pool's first-maximum
tie-break.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def conv_output_hw(
    h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> Tuple[int, int]:
    """Spatial output size of a conv/pool window sweep.

    Raises:
        ValueError: If the window does not fit the (padded) input.
    """
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"window {kh}x{kw} stride {stride} pad {pad} does not fit input {h}x{w}"
        )
    return oh, ow


def im2col_reference(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Loop-based unfold of ``x`` (N, C, H, W) into (N, C*kh*kw, OH*OW)."""
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            cols[:, :, i, j] = x[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


def col2im_reference(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Loop-based adjoint of :func:`im2col_reference` (scatter-add)."""
    n, c, h, w = x_shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    hp, wp = h + 2 * pad, w + 2 * pad
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            x[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    if pad > 0:
        x = x[:, :, pad : pad + h, pad : pad + w]
    return x


def maxpool_reference(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Loop-based max-pool: pad with ``-inf``, unfold, first argmax per
    window.  Returns ``(y, argmax)``, ``argmax`` the uint8 window-local
    winner index (the Y-to-X map)."""
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                   mode="constant", constant_values=-np.inf)
    cols = im2col_reference(x, kh, kw, stride, 0)
    cols = cols.reshape(n, c, kh * kw, oh * ow)
    argmax = cols.argmax(axis=2).astype(np.uint8)
    y = np.take_along_axis(
        cols, argmax[:, :, None, :].astype(np.intp), axis=2
    )[:, :, 0, :].reshape(n, c, oh, ow)
    return (y.astype(np.float32, copy=False),
            argmax.reshape(n, c, oh, ow))


def maxpool_backward_reference(
    argmax: np.ndarray,
    dy: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`maxpool_reference`: winners decomposed into
    window offsets, ``dy`` scattered by one multi-index ``np.add.at``."""
    n, c, h, w = x_shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    dx = np.zeros((n, c, hp, wp), dtype=dy.dtype)
    oy, ox = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    base_i = (oy * stride).ravel()
    base_j = (ox * stride).ravel()
    amax = argmax.reshape(n, c, oh * ow)
    rows = base_i[None, None, :] + amax // kw
    cols = base_j[None, None, :] + amax % kw
    nn = np.arange(n)[:, None, None]
    cc = np.arange(c)[None, :, None]
    np.add.at(dx, (nn, cc, rows, cols), dy.reshape(n, c, oh * ow))
    if pad > 0:
        dx = dx[:, :, pad:pad + h, pad:pad + w]
    return dx
