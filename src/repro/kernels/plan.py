"""Shape-static kernel plans for the conv/pool lowering.

Gist's Schedule Builder exploits the fact that a training graph is
static: all analysis happens once and every iteration replays the same
plan.  This module applies the same idea to the NumPy *compute* kernels.
A :class:`KernelPlan` is built once per ``(input_shape, kh, kw, stride,
pad)`` signature and precomputes the flat gather/scatter geometry so the
per-iteration kernels contain no Python loops over pixels or slots:

* the batch is lowered in *blocks* of ``b`` samples, ``b`` fixed per
  signature by one constant, :data:`BLOCK_BYTES` — the size of one
  block's float32 column matrix (:func:`block_samples`).  A block's
  columns are still in cache when the GEMM that consumes them (or the
  slot sum that folds them back) reads them;
* every plan pads and folds through two process-wide buffers, one pad
  buffer and one slot-plane buffer, each sized to the largest block that
  has asked for it: the paper charges a conv one workspace
  (``Conv2D.workspace_bytes``), not one per layer shape.  A plan takes a
  view of a buffer's head, and refills the cells its blocks do not
  write (the pad border, the slot cells no run covers) at its call's
  first block (:class:`_SharedBuffer`);
* ``im2col`` (max-pool's and avg-pool's) and ``im2col_t`` (``blas-fat``'s
  transposed columns) are, per block, a single C-level copy through a
  six-axis strided *window view* of the padded block — one structured
  gather covering all ``kh*kw`` slots at once;
* ``blas-fat``'s backward folds a column gradient back (col2im) by
  filling one block's ``kh*kw`` *slot planes* of ``C*HP*WP`` cells
  (each window slot lands in its own plane, so no two writes collide)
  and then reducing over the slot axis into that block's rows of one
  ``(N, C*HP*WP)`` buffer.  The *copy fill* (:meth:`KernelPlan.scatter_t`)
  writes a column gradient through a strided slot view.  The *direct fill*
  (:meth:`KernelPlan.slot_gemm`, ``blas-fat``'s backward) never forms
  one: at stride 1 each row of a slot's gradient is one contiguous run
  of its plane, so one GEMM per (sample, slot) over ``dy`` zero-padded
  to ``WP`` columns writes it in place.  The padding columns write
  ``+0.0`` (re-zeroed for a non-finite weight) onto cells no slot
  covers, where the sum adds ``+0.0`` anyway.  Strided convs and short
  runs keep the copy fill (:func:`direct_fill`);
* max-pool's backward pass scatters through precomputed flat indices —
  the plan caches the per-channel window-corner offsets, so the
  per-step work is three integer ops and one 1-D ``np.add.at``.

Accumulation order is chosen so the per-element floating-point sums are
*identical* to the reference Python-loop kernels: the slot sum reduces
slots in ``(ki, kj)`` ascending order (the reference's loop order) and
the flat pool scatter applies duplicates in the same element order as
the reference's multi-index ``np.add.at``; every per-element sum runs
within one sample, so blocking changes no bit.  The planned kernels are
therefore bit-identical to the unplanned ones, not merely close — the
property tests assert this.

A plan is gather/scatter geometry only: the products over its columns
are the conv arms' (:mod:`repro.kernels.backends`), and whether a BLAS
GEMM may replace the reference contraction is proved once per signature
by the chooser (:mod:`repro.kernels.autotune`).

Plans are cached process-wide; :func:`clear_plan_cache` empties the
cache and frees the two shared buffers, and :func:`plan_cache_stats`
reports hit/miss counts and the buffers' bytes.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.kernels.arena import NULL_ARENA, WorkspaceArena
from repro.layers.im2col import conv_output_hw

Shape4 = Tuple[int, int, int, int]

#: Byte size of one sample block's float32 ``(C*kh*kw, b*OH*OW)`` column
#: matrix: about one core's L2, so a gather's output is still cached when
#: the GEMM reads it.  The only knob of the blocking; see block_samples.
BLOCK_BYTES = 2 << 20


def block_samples(n: int, k: int, p: int) -> int:
    """Samples per block of an ``n``-sample batch whose per-sample column
    matrix is ``k x p`` float32: as many as fit :data:`BLOCK_BYTES`, at
    least one and at most the batch."""
    return max(1, min(n, BLOCK_BYTES // (4 * k * p)))


def direct_fill(stride: int, oh: int, wp: int) -> bool:
    """Whether a conv's column gradient is written straight into its slot
    planes (:meth:`KernelPlan.slot_gemm`) rather than formed and copied
    in — the one cut, justified per signature in EXPERIMENTS.md.

    A slot's rows are contiguous ``OH*WP`` runs of its plane only at
    stride 1.  The direct fill trades one fat ``(K, b*P)`` GEMM and the
    copy of its product for ``S*b`` GEMMs of ``C x OH*WP``, which pays
    only on long runs: on a narrow map the small GEMMs lose to the fat
    one, and on runs of 4-168 cells some took BLAS paths whose bits
    differ from the fat GEMM's, which would make the chooser's probe
    refuse the arm."""
    return stride == 1 and oh * wp >= 256


def bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and *bytes*: unlike ``np.array_equal``, ``+0.0``
    differs from ``-0.0`` and a NaN equals the same NaN.  The one meaning
    of "bit-identical" for the backend chooser and the differential
    oracle."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _has_nan_or_negative_zero(x: np.ndarray) -> bool:
    """Two reductions, no temporaries: ``min`` propagates a NaN, and
    ``-0.0`` is the one float whose bits are the signed-integer minimum."""
    bits = x.view(f"i{x.itemsize}")
    return bool(np.isnan(x.min())
                or bits.min() == np.iinfo(bits.dtype).min)


class _SharedBuffer:
    """One process-wide scratch buffer that every plan borrows.

    :meth:`head` grows the buffer to the largest request yet and returns
    a view of its head.  The buffer holds whatever its last user left, so
    each call refills the cells its blocks do not write at its first
    block (``n0 == 0``; every caller walks :attr:`KernelPlan.blocks` from
    the start), and its later blocks find them as it left them.

    Module state with no lock: no thread runs a kernel (``repro`` starts
    none), and a forked worker gets its own copy.  A view never outlives
    the call that took it: every caller copies or sums out of it first.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.buf = np.empty(0, np.uint8)

    def head(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """The first ``shape`` elements of ``dtype``."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * math.prod(shape)
        if nbytes > self.buf.nbytes:
            self.clear()
            self.buf = np.empty(nbytes, np.uint8)
        return self.buf[:nbytes].view(dtype).reshape(shape)


#: The one pad buffer (:meth:`KernelPlan._windows`) and the one slot-plane
#: buffer (:meth:`KernelPlan._planes`).
_PAD = _SharedBuffer()
_SLOTS = _SharedBuffer()


class KernelPlan:
    """Precomputed gather/scatter geometry for one conv/pool signature."""

    def __init__(self, shape: Shape4, kh: int, kw: int, stride: int, pad: int):
        n, c, h, w = (int(d) for d in shape)
        oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
        self.shape: Shape4 = (n, c, h, w)
        self.kh, self.kw = int(kh), int(kw)
        self.stride, self.pad = int(stride), int(pad)
        self.oh, self.ow = oh, ow
        self.hp, self.wp = h + 2 * pad, w + 2 * pad
        #: S window slots, K column rows, P output positions, Q padded cells.
        self.S = self.kh * self.kw
        self.K = c * self.S
        self.P = oh * ow
        self.Q = c * self.hp * self.wp
        #: Samples per block, and the (n0, n1) ranges the lowering walks
        #: (the last one ragged when b does not divide N).
        self.b = block_samples(n, self.K, self.P)
        self.blocks = tuple((n0, min(n0 + self.b, n))
                            for n0 in range(0, n, self.b))
        #: Per sample, the slot planes' cells past the S planes: room for
        #: slot_gemm's last run and the cells after it, as many as the
        #: longest plane head (_planes).
        self.slack = (self.kh - 1) * self.wp + self.kw - 1
        self._pool_base: Optional[np.ndarray] = None
        self._batch_offsets: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # One-time geometry (never on the per-step hot path)
    # ------------------------------------------------------------------
    def _window_view(self, xp: np.ndarray) -> np.ndarray:
        """(nb, C, kh, kw, OH, OW) read view of an (nb, C, HP, WP) block.

        ``view[n, c, ki, kj, oy, ox] == xp[n, c, ki + oy*stride,
        kj + ox*stride]`` — copying it out materialises the block's column
        matrix in one strided pass.  Built from ``xp``'s own strides, so
        any memory layout reads correctly.
        """
        sn, sc, sh, sw = xp.strides
        return as_strided(
            xp,
            (xp.shape[0], self.shape[1], self.kh, self.kw, self.oh, self.ow),
            (sn, sc, sh, sw, self.stride * sh, self.stride * sw),
        )

    def _slot_view(self, g: np.ndarray) -> np.ndarray:
        """(nb, C, kh, kw, OH, OW) write view into a slot-plane workspace.

        Element ``[n, c, ki, kj, oy, ox]`` aliases plane ``ki*kw + kj`` of
        sample ``n`` at ``flat(c, ki + oy*stride, kj + ox*stride)`` — every
        column-matrix entry lands in its own slot plane at the
        padded-input cell it came from, so the strided write never
        self-collides and the slot axis holds exactly the per-slot
        partial sums of col2im.
        """
        it = g.itemsize
        return as_strided(
            g,
            (g.shape[0], self.shape[1], self.kh, self.kw, self.oh, self.ow),
            (
                g.strides[0],
                self.hp * self.wp * it,
                (self.kw * self.Q + self.wp) * it,
                (self.Q + 1) * it,
                self.stride * self.wp * it,
                self.stride * it,
            ),
        )

    def _run_view(self, g: np.ndarray) -> np.ndarray:
        """(nb, kh, kw, C, OH*WP) write view of a stride-1 plan's slot
        planes as contiguous runs.

        Run ``[n, ki, kj, c]`` starts at cell ``flat(c, ki, kj)`` of plane
        ``ki*kw + kj`` of sample ``n`` and spans ``OH`` rows of ``WP``
        cells: the first ``OW`` of each row are the cells that slot
        covers, the other ``kw - 1`` cells no slot covers (that row's
        tail or the next row's head).  Runs never overlap one another.
        Between one channel's run and the next lie ``(kh - 1)*WP`` cells
        no run writes.  A plane's last run ends ``kj`` cells past the
        plane, on the next plane's uncovered head or in the sample's
        slack.
        """
        it = g.itemsize
        return as_strided(
            g,
            (g.shape[0], self.kh, self.kw, self.shape[1], self.oh * self.wp),
            (
                g.strides[0],
                (self.kw * self.Q + self.wp) * it,
                (self.Q + 1) * it,
                self.hp * self.wp * it,
                it,
            ),
        )

    def _t6(self, m: np.ndarray) -> np.ndarray:
        """(nb, C, kh, kw, OH, OW) view of a transposed (K, nb*P) column
        matrix — a block buffer or a column slice of a (K, N*P) one."""
        return m.reshape(self.shape[1], self.kh, self.kw, -1, self.oh,
                         self.ow).transpose(3, 0, 1, 2, 4, 5)

    @property
    def pool_base(self) -> np.ndarray:
        """(C*P,) flat padded index of every pool window's top-left cell."""
        if self._pool_base is None:
            c = self.shape[1]
            corner = (
                (np.arange(self.oh) * self.stride)[:, None] * self.wp
                + np.arange(self.ow) * self.stride
            ).ravel()
            self._pool_base = np.ascontiguousarray(
                (
                    np.arange(c)[:, None] * (self.hp * self.wp)
                    + corner[None, :]
                ).reshape(c * self.P),
                dtype=np.intp,
            )
        return self._pool_base

    @property
    def batch_offsets(self) -> np.ndarray:
        """(N, 1) flat offsets of each sample in an (N, Q) buffer."""
        if self._batch_offsets is None:
            n = self.shape[0]
            self._batch_offsets = (np.arange(n, dtype=np.intp) * self.Q)[
                :, None
            ]
        return self._batch_offsets

    # ------------------------------------------------------------------
    # Per-block bodies: one sample block through the shared buffers
    # ------------------------------------------------------------------
    def _windows(self, x: np.ndarray, n0: int, n1: int,
                 pad_value: float) -> np.ndarray:
        """Window view of samples ``n0:n1``, padded through the head of
        the shared pad buffer, one block of ``b`` samples.

        The first block fills the head with ``pad_value``; every block
        then copies only its interior.  The view never escapes this
        module — every caller copies out of it before the next block.
        """
        block = x[n0:n1]
        if self.pad == 0:
            return self._window_view(block)
        _, c, h, w = self.shape
        pad = self.pad
        xp = _PAD.head((self.b, c, self.hp, self.wp), x.dtype)
        if n0 == 0:
            xp.fill(pad_value)
        xp = xp[:n1 - n0]
        xp[:, :, pad:pad + h, pad:pad + w] = block
        return self._window_view(xp)

    def _planes(self, dtype: np.dtype, n0: int, nb: int,
                direct: bool) -> np.ndarray:
        """Slot planes of the ``nb`` samples of the block at ``n0`` in the
        head of the shared slot-plane buffer: per sample ``S`` planes of
        ``Q`` cells and :attr:`slack` cells for :meth:`slot_gemm`.

        The cells no slot covers must read ``+0.0``; the first block
        zeroes them for the whole call.  The copy fill zeroes the head.
        The direct fill zeroes only what its runs skip (:meth:`_run_view`):
        the ``(kh - 1)*WP`` cells after each run (into the slack after a
        sample's last run) and each plane's head, at most ``slack``
        cells.  Zeroing a cell that a run then writes is harmless.
        """
        g = _SLOTS.head((self.b, self.S * self.Q + self.slack), dtype)
        if n0 == 0 and not direct:
            g.fill(0)
        elif n0 == 0:
            runs = self._run_view(g)
            as_strided(g[:, self.oh * self.wp:],
                       runs.shape[:4] + ((self.kh - 1) * self.wp,),
                       runs.strides).fill(0)
            g[:, :self.S * self.Q].reshape(self.b, self.S, self.Q)[
                ..., :self.slack].fill(0)
        return g[:nb]

    def _slot_sum(self, g: np.ndarray, out: np.ndarray) -> None:
        """Sum a block's slot planes, ascending ``(ki, kj)``, into
        ``out``, that block's (nb, Q) rows: the one reduction of every
        fill."""
        g[:, :self.S * self.Q].reshape(-1, self.S, self.Q).sum(axis=1,
                                                               out=out)

    def gather_t(self, x: np.ndarray, n0: int, n1: int,
                 out: np.ndarray) -> None:
        """Write samples ``n0:n1`` of ``x`` as transposed columns into
        ``out``, a (K, (n1-n0)*P) matrix laid out like :meth:`im2col_t`'s
        column slice for those samples."""
        np.copyto(self._t6(out), self._windows(x, n0, n1, 0.0))

    def scatter_t(self, dcols: np.ndarray, n0: int, out: np.ndarray) -> None:
        """The copy fill: fold a block's transposed column gradient
        ``dcols`` (K, nb*P), samples ``n0:n0+nb``, through the strided
        slot view into the planes, then sum them into those rows of the
        (N, Q) ``out``."""
        cols6 = self._t6(dcols)
        g = self._planes(cols6.dtype, n0, cols6.shape[0], direct=False)
        np.copyto(self._slot_view(g), cols6)
        self._slot_sum(g, out[n0:n0 + cols6.shape[0]])

    def slot_gemm(self, w_slots: np.ndarray, dy_pad: np.ndarray, n0: int,
                  out: np.ndarray, finite: bool) -> None:
        """The direct fill (stride 1, see :func:`direct_fill`): fold the
        column gradient ``W^T dy`` of samples ``n0:n0+nb`` into those
        rows of the (N, Q) ``out`` without forming it.

        ``w_slots`` is the weight slot-major, (kh, kw, C, F); ``dy_pad``
        the block's cotangent (nb, F, OH, WP), zero-padded from ``OW`` to
        ``WP`` columns.  One GEMM per (sample, slot), ``W_s^T (C, F) @
        dy (F, OH*WP)``, writes each output row as one contiguous run
        straight into the slot's plane (``ldc = HP*WP``, :meth:`_run_view`).
        A padding column writes ``W_s^T 0`` — ``+0.0`` for a finite
        ``W`` — and only onto cells no slot covers, where the sum adds
        ``+0.0`` anyway; ``finite=False`` re-zeroes them.  Every covered
        cell, and the slot sum, is then what :meth:`scatter_t` writes.
        """
        nb, f = dy_pad.shape[:2]
        g = self._planes(dy_pad.dtype, n0, nb, direct=True)
        runs = self._run_view(g)
        np.matmul(w_slots, dy_pad.reshape(nb, 1, 1, f, -1), out=runs)
        if not finite:
            # The padding columns' cells: the last kw - 1 of each row.
            it = g.itemsize
            as_strided(runs[..., self.ow:],
                       runs.shape[:4] + (self.oh, self.kw - 1),
                       runs.strides[:4] + (self.wp * it, it)).fill(0)
        self._slot_sum(g, out[n0:n0 + nb])

    def unpad(self, out: np.ndarray) -> np.ndarray:
        """(N, C, H, W) view of the interior of an (N, Q) padded-grid
        buffer."""
        n, c, h, w = self.shape
        x4 = out.reshape(n, c, self.hp, self.wp)
        if self.pad:
            x4 = x4[:, :, self.pad:self.pad + h, self.pad:self.pad + w]
        return x4

    # ------------------------------------------------------------------
    # Whole-batch kernels: the blocks in order, arena-rented outputs
    # ------------------------------------------------------------------
    def im2col(
        self,
        x: np.ndarray,
        arena: WorkspaceArena = NULL_ARENA,
        pad_value: float = 0.0,
    ) -> np.ndarray:
        """Unfold ``x`` into columns (N, C*kh*kw, OH*OW), block by block.

        The returned buffer is rented from ``arena``; the caller owns it.
        """
        n, c, _, _ = self.shape
        out = arena.rent((n, self.K, self.P), x.dtype)
        out6 = out.reshape(n, c, self.kh, self.kw, self.oh, self.ow)
        for n0, n1 in self.blocks:
            np.copyto(out6[n0:n1], self._windows(x, n0, n1, pad_value))
        return out

    def im2col_t(
        self, x: np.ndarray, arena: WorkspaceArena = NULL_ARENA
    ) -> np.ndarray:
        """Unfold ``x`` into *transposed* columns (C*kh*kw, N*OH*OW).

        Same gather as :meth:`im2col` through an axis-permuted window
        view, but laid out so the whole batch forms one fat GEMM operand:
        ``out[c*S + ki*kw + kj, n*P + oy*ow + ox]``.  The ``blas-fat``
        conv backend contracts this with ``dy`` in a single BLAS call for
        the weight gradient.
        """
        n = self.shape[0]
        out = arena.rent((self.K, n * self.P), x.dtype)
        for n0, n1 in self.blocks:
            self.gather_t(x, n0, n1, out[:, n0 * self.P:n1 * self.P])
        return out

    def maxpool_forward(
        self, x: np.ndarray, arena: WorkspaceArena = NULL_ARENA
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Max-pool ``x``, returning ``(y, argmax)``.

        ``argmax`` holds the window-local winner index per output element
        (uint8, the Y-to-X map of the Binarize rewrite).  When windows
        tile the input exactly (stride == kernel, no padding — the common
        VGG configuration, known statically from the plan) the slot axis
        is never materialised at all: strided views of the input are
        max-reduced slot by slot, and each slot's strict wins update the
        winner index by an element-wise max (slots ascend, so a win always
        raises it).  Ties, values and winner indices are bit-identical to
        the reference formulation either way: the slots are compared in
        the same ``(ki, kj)`` order.  An input holding a
        NaN or a ``-0.0`` takes the general path, whose ``argmax`` +
        gather *is* the reference rule: ``>`` never selects a NaN, and
        which of two equal operands ``np.maximum`` returns is unspecified
        — harmless only when equal means same bits, i.e. no ``-0.0``.
        """
        n, c, h, w = self.shape
        disjoint = (
            self.pad == 0
            and self.stride == self.kh == self.kw
            and h == self.oh * self.kh
            and w == self.ow * self.kw
            and not _has_nan_or_negative_zero(x)
        )
        if disjoint:
            v = x.reshape(n, c, self.oh, self.kh, self.ow, self.kw)
            y = np.empty((n, c, self.P), dtype=x.dtype)
            y3 = y.reshape(n, c, self.oh, self.ow)
            np.copyto(y3, v[:, :, :, 0, :, 0])
            argmax = np.zeros((n, c, self.P), dtype=np.uint8)
            am3 = argmax.reshape(n, c, self.oh, self.ow)
            mask = arena.rent((n, c, self.oh, self.ow), np.bool_)
            won = arena.rent((n, c, self.oh, self.ow), np.uint8)
            # Running strict-greater max over ascending slots: ties keep
            # the earlier slot, exactly argmax's first-max rule, and tied
            # values here are bit-equal (see above), so np.maximum yields
            # the element take_along_axis would gather.  A strict win
            # always carries a larger index than the one held, so the
            # winner update is a max of ``slot * mask`` into ``argmax``.
            for slot in range(1, self.S):
                ki, kj = divmod(slot, self.kw)
                vs = v[:, :, :, ki, :, kj]
                np.greater(vs, y3, out=mask)
                np.multiply(mask, np.uint8(slot), out=won)
                np.maximum(am3, won, out=am3)
                np.maximum(y3, vs, out=y3)
        else:
            cols = self.im2col(x, arena, pad_value=-np.inf).reshape(
                n, c, self.S, self.P)
            argmax = cols.argmax(axis=2).astype(np.uint8)
            y = np.take_along_axis(
                cols, argmax[:, :, None, :].astype(np.intp), axis=2
            )[:, :, 0, :]
        y = y.reshape(n, c, self.oh, self.ow)
        return y.astype(np.float32, copy=False), argmax.reshape(
            n, c, self.oh, self.ow
        )

    def maxpool_backward(
        self,
        argmax: np.ndarray,
        dy: np.ndarray,
        arena: WorkspaceArena = NULL_ARENA,
    ) -> np.ndarray:
        """Scatter ``dy`` to the argmax winners via one flat ``np.add.at``.

        ``argmax`` holds window-local winner indices (N, C, OH, OW); the
        result is the (N, C, H, W) input gradient.  The flat 1-D scatter
        applies duplicate updates in the same element order as the
        reference multi-index scatter, so overlapping windows accumulate
        bit-identically.
        """
        n, c, _, _ = self.shape
        am = argmax.reshape(n, c * self.P)
        lin = arena.rent((n, c * self.P), np.intp)
        # Window-local winner am decomposes as (di, dj) = divmod(am, kw);
        # its flat padded offset is di*wp + dj == di*(wp - kw) + am.
        np.floor_divide(am, self.kw, out=lin, casting="unsafe")
        lin *= self.wp - self.kw
        lin += am
        lin += self.pool_base[None]
        lin += self.batch_offsets
        out = arena.rent((n, self.Q), dy.dtype)
        out.fill(0)
        np.add.at(out.reshape(-1), lin.reshape(-1), dy.reshape(-1))
        return self.unpad(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelPlan(shape={self.shape}, k=({self.kh},{self.kw}), "
            f"stride={self.stride}, pad={self.pad})"
        )


# ----------------------------------------------------------------------
# Process-wide plan cache
# ----------------------------------------------------------------------
_PlanKey = Tuple[Shape4, int, int, int, int]
_plan_cache: Dict[_PlanKey, KernelPlan] = {}
_cache_hits = 0
_cache_misses = 0


def get_plan(shape, kh: int, kw: int, stride: int, pad: int) -> KernelPlan:
    """Fetch (or build once) the plan for a shape signature."""
    global _cache_hits, _cache_misses
    key = (tuple(int(d) for d in shape), int(kh), int(kw), int(stride), int(pad))
    plan = _plan_cache.get(key)
    if plan is None:
        plan = KernelPlan(*key)
        _plan_cache[key] = plan
        _cache_misses += 1
    else:
        _cache_hits += 1
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan and free the shared pad and slot-plane
    buffers (tests / memory pressure)."""
    global _cache_hits, _cache_misses
    _plan_cache.clear()
    _PAD.clear()
    _SLOTS.clear()
    _cache_hits = 0
    _cache_misses = 0


def plan_cache_stats() -> Dict[str, int]:
    """Cache effectiveness counters, and the bytes of the one pad buffer
    and the one slot-plane buffer that every plan shares (no arena sees
    those): each the largest block that has asked for it."""
    return {
        "size": len(_plan_cache),
        "hits": _cache_hits,
        "misses": _cache_misses,
        "workspace_bytes": _PAD.buf.nbytes + _SLOTS.buf.nbytes,
    }
