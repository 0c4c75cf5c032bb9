"""Conv arms: the interchangeable conv lowerings, and the dispatch.

Conv is the one runtime op with a choice of implementation ("arms").
:data:`CONV_ARMS` holds them by name and :func:`conv_arm` picks one per
call site; the differential oracle (:mod:`repro.verify.differential`)
runs every arm on shared inputs and demands agreement with the ground
truth.  Max-pool and the two codec packers run one body each —
``KernelPlan.maxpool_forward`` / ``maxpool_backward``, ``pack_bits``
and ``csr_encode`` — and their loop kernels are the
oracle's reference functions beside them (``layers/im2col.py``,
``encodings/``), not arms.

Arms and their contracts
------------------------

Each arm carries an explicit numerical contract (a test holds every
entry of :data:`CONV_ARMS` to one of the two):

* ``exact=True`` — the arm claims bit-identity with the ``reference``
  arm on every input.  The differential oracle enforces this byte for
  byte (:func:`repro.kernels.plan.bit_identical`).
* ``exact=False, tolerance=t`` — the arm only claims a maximum relative
  error of ``t > 0`` (the fat-GEMM conv, whose BLAS reduction order is
  library-dependent).

There are two arms.  ``reference`` is the loop-lowered ground truth:
the ``kh x kw`` slice loops of ``layers/im2col.py`` around ``einsum``.
``blas-fat`` is the fast lowering: plan-gathered transposed columns,
one sample block at a time, into BLAS GEMMs.

The *default selection* is stricter than the contract: the chooser
(:mod:`repro.kernels.autotune`) runs ``blas-fat`` for a signature only
where a live-data probe can settle its GEMMs and shows it bit-identical
— values **and** memory layout of the escaping tensors — to
``reference``, and runs ``reference`` everywhere else, so the training
goldens hold whichever arm a signature gets.  Forcing an arm with
``GraphExecutor(kernel_backend=name)`` bypasses that proof and accepts
the arm's contract instead.

An arm stays in the table only if it is the ground truth or wins a
ledger signature under its contract; ``docs/architecture.md`` has the
rule and the measurements.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.kernels.arena import NULL_ARENA
from repro.layers.im2col import (
    col2im_reference,
    conv_output_hw,
    im2col_reference,
)

#: The ground-truth arm: what the chooser proves the other arm against,
#: and what runs wherever that proof fails.
REFERENCE = "reference"


# ----------------------------------------------------------------------
# The arms
# ----------------------------------------------------------------------
class ConvBackend:
    """Interface of a conv arm.

    ``forward`` returns ``(y, saved)`` where ``saved`` is an opaque
    per-arm column stash the executor may hand back to ``backward`` (only
    when the layer's input stash is lossless); ``backward`` returns
    ``(dx, dw)`` — ``(None, dw)`` straight after dW under ``need_dx=False``
    (the conv reads the graph input).  The bias add happens inside the arm
    so layout-changing arms can apply it in their own orientation.

    Attributes:
        name: The arm's key in :data:`CONV_ARMS`.
        exact: Whether the arm claims bit-identity with ``reference``.
        tolerance: Maximum relative error the arm is allowed when
            ``exact`` is False (must be > 0 in that case).
    """

    name: str = ""
    exact: bool = True
    tolerance: float = 0.0

    def forward(self, x, w4, bias, stride, pad, arena=NULL_ARENA,
                want_saved=False):
        raise NotImplementedError

    def backward(self, x, w4, dy, stride, pad, arena=NULL_ARENA, saved=None,
                 need_dx=True):
        raise NotImplementedError


def _conv_geometry(x, w4, stride, pad):
    n, c, h, w = x.shape
    f, _, kh, kw = w4.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    return n, c, f, kh, kw, oh, ow


class ConvReference(ConvBackend):
    """The original loop-lowered kernels: slice-loop im2col + einsum."""

    name = REFERENCE

    def forward(self, x, w4, bias, stride, pad, arena=NULL_ARENA,
                want_saved=False):
        n, c, f, kh, kw, oh, ow = _conv_geometry(x, w4, stride, pad)
        wmat = w4.reshape(f, -1)
        cols = im2col_reference(x, kh, kw, stride, pad)
        y = np.einsum("fk,nkp->nfp", wmat, cols, optimize=True)
        if bias is not None:
            y += bias[None, :, None]
        return y.reshape(n, f, oh, ow).astype(np.float32, copy=False), None

    def backward(self, x, w4, dy, stride, pad, arena=NULL_ARENA, saved=None,
                 need_dx=True):
        n, c, f, kh, kw, oh, ow = _conv_geometry(x, w4, stride, pad)
        wmat = w4.reshape(f, -1)
        dy_mat = dy.reshape(n, f, oh * ow)
        cols = im2col_reference(x, kh, kw, stride, pad)
        dw = np.einsum("nfp,nkp->fk", dy_mat, cols, optimize=True)
        if not need_dx:
            return None, dw.reshape(w4.shape)
        dcols = np.einsum("fk,nfp->nkp", wmat, dy_mat, optimize=True)
        dx = col2im_reference(dcols, x.shape, kh, kw, stride, pad)
        return dx, dw.reshape(w4.shape)


_einsum_y_layouts: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]],
                        Tuple[int, ...]] = {}


def _einsum_y_strides(wmat, cols_shape):
    """Strides of the reference einsum's (N, F, P) output — a function of
    the shapes alone, read off one zero-input einsum per shape pair.
    Layout-changing arms hand out exactly this layout so downstream
    memory-order reductions see identical bits."""
    key = (wmat.shape, cols_shape)
    strides = _einsum_y_layouts.get(key)
    if strides is None:
        strides = _einsum_y_layouts[key] = np.einsum(
            "fk,nkp->nfp", wmat, np.zeros(cols_shape, wmat.dtype),
            optimize=True).strides
    return strides


def _empty_like_layout(
    shape: Tuple[int, ...], strides: Tuple[int, ...], dtype,
    arena=NULL_ARENA,
) -> np.ndarray:
    """An uninitialised array of ``shape``, rented from ``arena``, whose
    memory order matches an array with the given (positive,
    non-overlapping) ``strides``."""
    order = sorted(range(len(shape)), key=lambda a: -strides[a])
    buf = arena.rent(tuple(shape[a] for a in order), dtype)
    return buf.transpose(np.argsort(order))


def _head(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A C-contiguous ``(rows, cols)`` view of the start of ``buf``: one
    sample block's scratch inside a batch-sized arena buffer, so the
    block stays dense in cache."""
    return buf.reshape(-1)[:rows * cols].reshape(rows, cols)


class ConvBlasFat(ConvBackend):
    """Fat GEMMs over a transposed (K, N*P) column layout, one sample
    block at a time.

    Per block of ``plan.b`` samples the forward gathers the block's
    columns and multiplies them into that block's rows of the output
    while they are still in cache; the backward slot-sums the block's
    column gradient into its rows of ``dx``.  Where ``plan.direct_fill``
    holds (stride 1, long runs) no column gradient is
    formed: one GEMM per (sample, window slot) writes straight into the
    slot planes (``KernelPlan.slot_gemm``); elsewhere the block's
    ``(K, b*P)`` gradient is one GEMM, copied into the planes
    (``scatter_t``).
    The weight gradient is one whole-batch GEMM over the full columns
    (saved by the forward, or regathered block by block), so its
    reduction order is the batch's.  BLAS reduction blocking is
    library-dependent, so the arm declares a tolerance; on the
    benchmark library/shapes it probes bit-identical and the chooser
    promotes it to default.  The forward output has exactly the
    reference einsum's memory layout — as a view of the product where
    that layout is the GEMM's own, through a copy elsewhere — so
    downstream memory-order reductions (BatchNorm) see identical bits.
    """

    name = "blas-fat"
    exact = False
    tolerance = 1e-5

    def forward(self, x, w4, bias, stride, pad, arena=NULL_ARENA,
                want_saved=False):
        from repro.kernels.plan import get_plan

        n, c, f, kh, kw, oh, ow = _conv_geometry(x, w4, stride, pad)
        p = oh * ow
        wmat = w4.reshape(f, -1)
        k = wmat.shape[1]
        plan = get_plan(x.shape, kh, kw, stride, pad)
        cols_t = arena.rent((k, n * p), x.dtype)
        # (N*P, F) row-major *is* the einsum's (N, F, P) output wherever
        # that is P-major / F-minor: multiply so, and return a view.
        y2 = arena.rent((n * p, f), np.float32)
        for n0, n1 in plan.blocks:
            rows = slice(n0 * p, n1 * p)
            # Columns the backward reuses fill their place in the batch;
            # otherwise every block reuses the buffer's contiguous head.
            block = (cols_t[:, rows] if want_saved
                     else _head(cols_t, k, (n1 - n0) * p))
            plan.gather_t(x, n0, n1, block)
            np.matmul(block.T, wmat.T, out=y2[rows])
        if bias is not None:
            y2 += bias
        y = y_view = y2.reshape(n, p, f).transpose(0, 2, 1)
        strides = _einsum_y_strides(wmat, (n, k, p))
        if y.strides != strides:
            y = _empty_like_layout((n, f, p), strides, np.float32, arena)
            np.copyto(y, y_view)
        saved = cols_t if want_saved else None
        return (y.reshape(n, f, oh, ow).astype(np.float32, copy=False),
                saved)

    def backward(self, x, w4, dy, stride, pad, arena=NULL_ARENA, saved=None,
                 need_dx=True):
        from repro.kernels.plan import direct_fill, get_plan

        n, c, f, kh, kw, oh, ow = _conv_geometry(x, w4, stride, pad)
        p = oh * ow
        wmat = w4.reshape(f, -1)
        k = wmat.shape[1]
        plan = get_plan(x.shape, kh, kw, stride, pad)
        cols_t = saved if saved is not None else plan.im2col_t(x, arena)
        dy2 = arena.rent((f, n * p), np.float32)
        np.copyto(dy2.reshape(f, n, p),
                  dy.reshape(n, f, p).transpose(1, 0, 2))
        # (K, F) product: BLAS threads split output rows, and F is few.
        dw = np.matmul(cols_t, dy2.T).T
        if not need_dx:
            return None, dw.reshape(w4.shape)
        dx = arena.rent((n, plan.Q), np.float32)
        if direct_fill(stride, oh, plan.wp):
            w_slots = arena.rent((kh, kw, c, f), np.float32)
            np.copyto(w_slots, w4.transpose(2, 3, 1, 0))
            finite = bool(np.isfinite(w_slots).all())
            dy_pad = arena.rent((plan.b, f, oh, plan.wp), np.float32)
            dy_pad[..., ow:] = 0
            dy4 = dy.reshape(n, f, oh, ow)
            for n0, n1 in plan.blocks:
                block = dy_pad[:n1 - n0]
                np.copyto(block[..., :ow], dy4[n0:n1])
                plan.slot_gemm(w_slots, block, n0, dx, finite)
        else:
            dcols_t = arena.rent((k, n * p), np.float32)
            for n0, n1 in plan.blocks:
                block = _head(dcols_t, k, (n1 - n0) * p)
                np.matmul(wmat.T, dy2[:, n0 * p:n1 * p], out=block)
                plan.scatter_t(block, n0, dx)
        return plan.unpad(dx), dw.reshape(w4.shape)


# ----------------------------------------------------------------------
# The table and the dispatch
# ----------------------------------------------------------------------
#: Every conv arm by name.
CONV_ARMS: Dict[str, ConvBackend] = {
    arm.name: arm for arm in (ConvReference(), ConvBlasFat())
}


def conv_arm(ctx, x, w4, bias, stride, pad) -> ConvBackend:
    """The arm for this call: the executor's ``kernel_backend`` if it
    names one, else the chooser's pick for the live operands."""
    name = getattr(ctx, "kernel_backend", None)
    if name is not None:
        return CONV_ARMS[name]
    from repro.kernels.autotune import autotuned_backend

    return autotuned_backend(x, w4, bias, stride, pad)
