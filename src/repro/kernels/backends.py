"""Per-op kernel backend registry.

Every hot op in the runtime — conv lowering, max-pool, and the codec
bit-packing paths — has multiple interchangeable implementations
("arms").  This module is the registry that holds them, the dispatch
that picks one per call site, and the op-family descriptors the
differential tester uses to run *all* arms on shared inputs and demand
agreement.

Arms and their contracts
------------------------

Each backend registers with an explicit numerical contract:

* ``exact=True`` — the arm claims bit-identity with its op's
  ``reference`` arm on every input.  The differential oracle
  (:mod:`repro.verify.differential`) enforces this byte for byte
  (:func:`repro.kernels.plan.bit_identical`).
* ``exact=False, tolerance=t`` — the arm only claims a maximum relative
  error of ``t`` (the fat-GEMM conv, whose BLAS reduction order is
  library-dependent).

The *default selection* is stricter than the registration contract: the
chooser (:mod:`repro.kernels.autotune`) only promotes an arm to
default for a signature where a live-data probe can settle its GEMMs and
shows it bit-identical — values **and** memory layout of the escaping
tensors — to the incumbent ``numpy-plan`` arm, so the training goldens
hold no matter which arm wins.  Forcing an arm via
``REPRO_KERNEL_BACKEND`` bypasses that proof and accepts the arm's
registered contract instead.

An arm stays registered only if it is the op's ground truth (the
loop-lowered ``reference`` / ``loop`` kernels — the oracle, never a
chooser candidate), the incumbent default, or wins a ledger signature
under its contract; ``docs/architecture.md`` has the rule and the
measurements.  Registered ops and arms:

=============  =====================================================
op             arms
=============  =====================================================
conv2d         reference, numpy-plan, blas-fat
maxpool2d      reference, numpy-plan
pack_bits      loop, numpy
pack_nibbles   loop, numpy
csr_build      loop, numpy
=============  =====================================================
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import config
from repro.kernels.arena import NULL_ARENA
from repro.layers.im2col import (
    col2im_reference,
    conv_output_hw,
    im2col_reference,
)


class KernelBackend:
    """Base class: one implementation arm of one op.

    Attributes:
        op: Registry op name (``conv2d``, ``pack_bits``, ...).
        name: Arm name, unique within the op.
        exact: Whether the arm claims bit-identity with the op's
            ``reference`` arm.
        tolerance: Maximum relative error the arm is allowed when
            ``exact`` is False (must be > 0 in that case).
    """

    op: str = ""
    name: str = ""
    exact: bool = True
    tolerance: float = 0.0
    description: str = ""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Dict[str, KernelBackend]] = {}
_DEFAULTS: Dict[str, str] = {}
_warned_forces: set = set()

#: The ground-truth arm name every op must register.
REFERENCE = "reference"


def register_backend(backend: KernelBackend, default: bool = False) -> None:
    """Add an arm to the registry (replacing a same-named one).

    Args:
        backend: The arm; ``backend.op``/``backend.name`` must be set.
        default: Make this arm the op's static default (the incumbent
            the chooser starts from and codec dispatch uses).

    Raises:
        ValueError: If the arm declares ``exact=False`` without a
            positive ``tolerance`` — every arm must either claim
            bit-exactness or state its error bound explicitly.
    """
    if not backend.op or not backend.name:
        raise ValueError("backend must define both op and name")
    if not backend.exact and not backend.tolerance > 0:
        raise ValueError(
            f"backend {backend.op}:{backend.name} is not exact but "
            f"declares no tolerance; every arm must either claim "
            f"bit-exactness or state an explicit error bound"
        )
    _BACKENDS.setdefault(backend.op, {})[backend.name] = backend
    if default:
        _DEFAULTS[backend.op] = backend.name


def unregister_backend(op: str, name: str) -> None:
    """Remove an arm (fault-injection tests); unknown names are a no-op."""
    _BACKENDS.get(op, {}).pop(name, None)
    if _DEFAULTS.get(op) == name:
        del _DEFAULTS[op]


def backends_for(op: str) -> List[KernelBackend]:
    """All arms of ``op``, reference first, then by name."""
    arms = _BACKENDS.get(op, {})
    return sorted(
        arms.values(), key=lambda b: (b.name != REFERENCE, b.name)
    )


def get_backend(op: str, name: str) -> KernelBackend:
    """Fetch one arm; raises ``KeyError`` with the known names."""
    arms = _BACKENDS.get(op, {})
    if name not in arms:
        known = ", ".join(sorted(arms)) or "<none>"
        raise KeyError(f"no backend {name!r} for op {op!r} (known: {known})")
    return arms[name]


def default_backend(op: str) -> KernelBackend:
    """The op's static default arm (the pre-registry incumbent)."""
    return get_backend(op, _DEFAULTS[op])


def _all_arm_names() -> set:
    names: set = set()
    for arms in _BACKENDS.values():
        names.update(arms)
    return names


def validate_backend_name(name: str) -> None:
    """Raise ``ValueError`` unless some op registers an arm ``name``."""
    if name not in _all_arm_names():
        raise ValueError(
            f"kernel_backend={name!r} names no registered backend "
            f"(registered: {', '.join(sorted(_all_arm_names()))})"
        )


def resolve_forced_backend(op: str, ctx=None) -> Optional[KernelBackend]:
    """The arm forced for ``op``: executor kwarg > ``REPRO_KERNEL_BACKEND``.

    ``ctx`` may carry a ``kernel_backend`` name
    (``GraphExecutor(kernel_backend=...)``, validated at construction).
    Returns ``None`` when nothing is forced or when a *global* (bare)
    name simply is not registered for this op — a global ``blas-fat``
    force legitimately applies only to conv.  An environment name that
    no op registers at all warns once per value instead of silently
    falling back.
    """
    arms = _BACKENDS.get(op, {})
    name = getattr(ctx, "kernel_backend", None)
    if name not in arms:
        name = config.forced_backend(op)
    if name is None or name in arms:
        return arms.get(name)
    if name not in _all_arm_names() and name not in _warned_forces:
        _warned_forces.add(name)
        warnings.warn(
            f"REPRO_KERNEL_BACKEND names unknown backend {name!r} "
            f"(registered: {', '.join(sorted(_all_arm_names()))}); "
            f"falling back to autotuned selection",
            RuntimeWarning,
            stacklevel=2,
        )
    return None


# ----------------------------------------------------------------------
# conv2d arms
# ----------------------------------------------------------------------
class ConvBackend(KernelBackend):
    """Interface of a conv2d arm.

    ``forward`` returns ``(y, saved)`` where ``saved`` is an opaque
    per-arm column stash the executor may hand back to ``backward`` (only
    when the layer's input stash is lossless); ``backward`` returns
    ``(dx, dw)`` — ``(None, dw)`` straight after dW under ``need_dx=False``
    (the conv reads the graph input).  The bias add happens inside the arm
    so layout-changing arms can apply it in their own orientation.
    """

    op = "conv2d"

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
    description = "kh*kw slice-loop im2col + einsum contraction"

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


class ConvNumpyPlan(ConvBackend):
    """The plan-cache path: strided window-view gather and col2im around
    the reference arm's own einsum contractions."""

    name = "numpy-plan"
    description = "plan-cache strided im2col/col2im + reference einsum"

    def forward(self, x, w4, bias, stride, pad, arena=NULL_ARENA,
                want_saved=False):
        from repro.kernels.plan import get_plan

        n, c, f, kh, kw, oh, ow = _conv_geometry(x, w4, stride, pad)
        wmat = w4.reshape(f, -1)
        plan = get_plan(x.shape, kh, kw, stride, pad)
        cols = plan.im2col(x, arena)
        y = np.einsum("fk,nkp->nfp", wmat, cols, optimize=True)
        if bias is not None:
            y += bias[None, :, None]
        saved = None
        if want_saved:
            saved = cols
        else:
            arena.release(cols)
        return (y.reshape(n, f, oh, ow).astype(np.float32, copy=False),
                saved)

    def backward(self, x, w4, dy, stride, pad, arena=NULL_ARENA, saved=None,
                 need_dx=True):
        from repro.kernels.plan import get_plan

        n, c, f, kh, kw, oh, ow = _conv_geometry(x, w4, stride, pad)
        p = oh * ow
        wmat = w4.reshape(f, -1)
        k = wmat.shape[1]
        dy_mat = dy.reshape(n, f, p)
        plan = get_plan(x.shape, kh, kw, stride, pad)
        cols = saved if saved is not None else plan.im2col(x, arena)
        dw = np.einsum("nfp,nkp->fk", dy_mat, cols, optimize=True)
        arena.release(cols)
        if not need_dx:
            return None, dw.reshape(w4.shape)
        dcols = np.einsum("fk,nfp->nkp", wmat, dy_mat, optimize=True,
                          out=arena.rent((n, k, p), np.float32))
        dx = plan.col2im(dcols, arena)
        arena.release(dcols)
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
    block stays dense in cache and the arena pools no second shape."""
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
    library-dependent, so the arm registers a tolerance; on the
    benchmark library/shapes it probes bit-identical and the chooser
    promotes it to default.  The forward output has exactly the
    reference einsum's memory layout — as a view of the product where
    that layout is the GEMM's own, through a copy elsewhere — so
    downstream memory-order reductions (BatchNorm) see identical bits.
    """

    name = "blas-fat"
    exact = False
    tolerance = 1e-5
    description = "blocked im2col^T lowering, whole-batch dW GEMM"

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
            arena.release(y2)
        saved = None
        if want_saved:
            saved = cols_t
        else:
            arena.release(cols_t)
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
        arena.release(cols_t)
        if not need_dx:
            arena.release(dy2)
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
            arena.release(dy_pad)
            arena.release(w_slots)
        else:
            dcols_t = arena.rent((k, n * p), np.float32)
            for n0, n1 in plan.blocks:
                block = _head(dcols_t, k, (n1 - n0) * p)
                np.matmul(wmat.T, dy2[:, n0 * p:n1 * p], out=block)
                plan.scatter_t(block, n0, dx)
            arena.release(dcols_t)
        arena.release(dy2)
        return plan.unpad(dx), dw.reshape(w4.shape)


# ----------------------------------------------------------------------
# maxpool2d arms
# ----------------------------------------------------------------------
class PoolBackend(KernelBackend):
    """Interface of a maxpool2d arm: forward -> (y, argmax), backward
    scatters ``dy`` through the argmax map."""

    op = "maxpool2d"

    def forward(self, x, kh, kw, stride, pad, arena=NULL_ARENA):
        raise NotImplementedError

    def backward(self, argmax, dy, x_shape, kh, kw, stride, pad,
                 arena=NULL_ARENA):
        raise NotImplementedError


class PoolReference(PoolBackend):
    """The original loop-lowered formulation (pad, slice-loop, scatter)."""

    name = REFERENCE
    description = "slice-loop im2col + multi-index scatter"

    def forward(self, x, kh, kw, stride, pad, arena=NULL_ARENA):
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

    def backward(self, argmax, dy, x_shape, kh, kw, stride, pad,
                 arena=NULL_ARENA):
        n, c, h, w = x_shape
        oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
        hp, wp = h + 2 * pad, w + 2 * pad
        dx = np.zeros((n, c, hp, wp), dtype=dy.dtype)
        oy, ox = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
        base_i = (oy * stride).ravel()
        base_j = (ox * stride).ravel()
        amax = argmax.reshape(n, c, oh * ow)
        di = amax // kw
        dj = amax % kw
        rows = base_i[None, None, :] + di
        colsj = base_j[None, None, :] + dj
        nn = np.arange(n)[:, None, None]
        cc = np.arange(c)[None, :, None]
        np.add.at(dx, (nn, cc, rows, colsj), dy.reshape(n, c, oh * ow))
        if pad > 0:
            dx = dx[:, :, pad:pad + h, pad:pad + w]
        return dx


class PoolNumpyPlan(PoolBackend):
    """The plan-cache kernels (strided gather + flat 1-D scatter)."""

    name = "numpy-plan"
    description = "plan-cache strided gather + flat argmax scatter"

    def forward(self, x, kh, kw, stride, pad, arena=NULL_ARENA):
        from repro.kernels.plan import get_plan

        plan = get_plan(x.shape, kh, kw, stride, pad)
        return plan.maxpool_forward(x, arena)

    def backward(self, argmax, dy, x_shape, kh, kw, stride, pad,
                 arena=NULL_ARENA):
        from repro.kernels.plan import get_plan

        plan = get_plan(x_shape, kh, kw, stride, pad)
        return plan.maxpool_backward(argmax, dy, arena)


# ----------------------------------------------------------------------
# Codec arms (pack_bits / pack_nibbles / csr_build)
# ----------------------------------------------------------------------
@dataclass
class FnBackend(KernelBackend):
    """A stateless functional arm wrapping one callable."""

    op: str = ""
    name: str = ""
    fn: Callable = None
    exact: bool = True
    tolerance: float = 0.0
    description: str = ""

    def run(self, *args):
        return self.fn(*args)


def _pack_bits_loop(flat: np.ndarray) -> np.ndarray:
    """Bit-position loop: 8 shift-or passes (the pre-registry fallback)."""
    out = np.zeros((flat.size + 7) // 8, np.uint8)
    for b in range(8):
        part = flat[b::8]
        out[: part.size] |= part.astype(np.uint8) << np.uint8(b)
    return out


def _pack_bits_numpy(flat: np.ndarray) -> np.ndarray:
    return np.packbits(flat, bitorder="little")


def _pack_nibbles_loop(flat: np.ndarray) -> np.ndarray:
    out = np.zeros((flat.size + 1) // 2, np.uint8)
    for offset, shift in ((0, 0), (1, 4)):
        part = flat[offset::2]
        out[: part.size] |= part << np.uint8(shift)
    return out


def _pack_nibbles_numpy(flat: np.ndarray) -> np.ndarray:
    n = flat.size
    npairs = (n + 1) // 2
    out = np.zeros(npairs, np.uint8)
    out[:] = flat[0::2]
    half = n // 2
    if half:
        out[:half] |= flat[1::2] << np.uint8(4)
    return out


def _csr_rows(n: int, cols: int) -> int:
    return max(1, -(-n // cols))


def csr_index_dtype(cols: int):
    """NumPy dtype of a CSR column index at row width ``cols`` (the narrow
    value optimisation: one byte up to 256 columns)."""
    return np.uint8 if cols <= 256 else np.int32


def _csr_build_loop(flat: np.ndarray, cols: int):
    """Row-loop CSR build (one flatnonzero per row)."""
    n_rows = _csr_rows(flat.size, cols)
    row_ptr = np.zeros(n_rows + 1, np.int32)
    nz_parts, col_parts = [], []
    for r in range(n_rows):
        seg_nz = np.flatnonzero(flat[r * cols:(r + 1) * cols])
        nz_parts.append(seg_nz + r * cols)
        col_parts.append(seg_nz)
        row_ptr[r + 1] = row_ptr[r] + seg_nz.size
    nz = np.concatenate(nz_parts).astype(np.int64, copy=False)
    col_idx = np.concatenate(col_parts).astype(csr_index_dtype(cols))
    return nz, col_idx, row_ptr


def _csr_build_numpy(flat: np.ndarray, cols: int):
    """Mask-driven build: every pass after ``flat != 0`` reads the bool
    mask (flatnonzero on float32 is branchy), columns come from narrowing
    the flat positions and row counts from per-row sums of the mask."""
    n = flat.size
    mask = flat != 0
    nz = np.flatnonzero(mask).astype(np.int64, copy=False)
    # 256 columns: the low byte of a flat position *is* its column.
    col_idx = (nz.astype(np.uint8) if cols == 256
               else (nz % cols).astype(csr_index_dtype(cols)))
    row_ptr = np.zeros(_csr_rows(n, cols) + 1, np.int32)
    if n:
        # reduceat sums [start, next start): the ragged last row is free.
        counts = np.add.reduceat(mask, np.arange(0, n, cols), dtype=np.int32)
        np.cumsum(counts, out=row_ptr[1:])
    return nz, col_idx, row_ptr


def run_codec(op: str, *args):
    """Dispatch one codec op through its active arm.

    Codec calls are tiny and frequent, so they use the static default
    (or a forced arm) rather than the chooser — the registry
    still exposes every arm to the differential oracle.
    """
    return select_backend(op, None).run(*args)


# ----------------------------------------------------------------------
# Op families: shared-input descriptors for the differential tester
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpFamily:
    """How to drive every arm of one op on one shared input set.

    ``make_inputs(rng)`` draws a small randomized input tuple;
    ``run(backend, inputs)`` executes one arm end-to-end (forward *and*
    backward for the layer ops) and returns named output arrays for
    comparison.
    """

    op: str
    make_inputs: Callable[[np.random.Generator], tuple]
    run: Callable[[KernelBackend, tuple], Dict[str, np.ndarray]]
    #: Arm name treated as ground truth by the differential oracle.
    reference: str = REFERENCE


def _make_conv_inputs(rng: np.random.Generator) -> tuple:
    n = int(rng.integers(1, 3))
    c = int(rng.integers(1, 4))
    f = int(rng.integers(1, 5))
    kh = kw = int(rng.choice([1, 2, 3]))
    stride = int(rng.choice([1, 2]))
    pad = int(rng.integers(0, 2))
    h = int(rng.integers(max(2, kh), 8))
    w = int(rng.integers(max(2, kw), 8))
    if h + 2 * pad < kh or w + 2 * pad < kw:  # pragma: no cover - guarded
        h, w = kh, kw
    x = rng.normal(0, 1, (n, c, h, w)).astype(np.float32)
    w4 = rng.normal(0, 0.5, (f, c, kh, kw)).astype(np.float32)
    bias = (rng.normal(0, 0.5, f).astype(np.float32)
            if rng.random() < 0.5 else None)
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    dy = rng.normal(0, 1, (n, f, oh, ow)).astype(np.float32)
    return x, w4, bias, dy, stride, pad


def _run_conv(backend: ConvBackend, inputs: tuple) -> Dict[str, np.ndarray]:
    x, w4, bias, dy, stride, pad = inputs
    y, saved = backend.forward(x, w4, bias, stride, pad, want_saved=True)
    dx, dw = backend.backward(x, w4, dy, stride, pad, saved=saved)
    return {"y": y, "dx": dx, "dw": dw}


def _make_pool_inputs(rng: np.random.Generator) -> tuple:
    n = int(rng.integers(1, 3))
    c = int(rng.integers(1, 4))
    kh = kw = int(rng.choice([2, 3]))
    stride = int(rng.choice([1, 2, kh]))
    pad = int(rng.integers(0, min(2, (kh + 1) // 2)))
    h = int(rng.integers(kh, 9))
    w = int(rng.integers(kw, 9))
    x = rng.normal(0, 1, (n, c, h, w)).astype(np.float32)
    # Plant exact ties so tie-breaking order is part of the contract.
    if h >= 2:
        x[:, :, 0, :] = x[:, :, 1, :]
    # ... and a signed-zero tie heading the first window of every plane,
    # [+0, -0] on even planes and [-0, +0] on odd ones: equal under ==,
    # different bits, so "the first maximum" must mean that element.
    planes = x.reshape(n * c, h, w)
    planes[:, :kh, :kw] = -1.0
    planes[0::2, 0, :2] = (0.0, -0.0)
    planes[1::2, 0, :2] = (-0.0, 0.0)
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    dy = rng.normal(0, 1, (n, c, oh, ow)).astype(np.float32)
    return x, dy, kh, kw, stride, pad


def _run_pool(backend: PoolBackend, inputs: tuple) -> Dict[str, np.ndarray]:
    x, dy, kh, kw, stride, pad = inputs
    y, argmax = backend.forward(x, kh, kw, stride, pad)
    dx = backend.backward(argmax, dy, x.shape, kh, kw, stride, pad)
    return {"y": y, "argmax": argmax, "dx": dx}


def _make_pack_bits_inputs(rng: np.random.Generator) -> tuple:
    size = int(rng.choice([0, 1, 7, 31, 32, 33, int(rng.integers(1, 400))]))
    return ((rng.random(size) < 0.5),)


def _run_fn(backend: FnBackend, inputs: tuple) -> Dict[str, np.ndarray]:
    out = backend.run(*inputs)
    if isinstance(out, tuple):
        return {f"out{i}": arr for i, arr in enumerate(out)}
    return {"out": out}


def _make_pack_nibbles_inputs(rng: np.random.Generator) -> tuple:
    size = int(rng.choice([0, 1, 2, 9, int(rng.integers(1, 300))]))
    return (rng.integers(0, 16, size).astype(np.uint8),)


def _make_csr_inputs(rng: np.random.Generator) -> tuple:
    size = int(rng.choice([0, 1, int(rng.integers(1, 900))]))
    flat = np.where(rng.random(size) < 0.7, 0.0,
                    rng.normal(0, 2, size)).astype(np.float32)
    cols = int(rng.choice([7, 32, 256, 300]))
    # Hostile structure, planted after the last draw so it costs none (the
    # fuzz decision stream must not depend on it): a ragged last row, an
    # all-zero row, an all-dense row, and the two values whose "is it a
    # zero?" answer is easy to get wrong (-0.0 is one, NaN is not).
    if size > 1 and size % cols == 0:
        flat = flat[:-1]
    rows = flat[: flat.size // cols * cols].reshape(-1, cols)
    rows[:1] = 0.0
    dense = rows[1:2]
    dense[dense == 0] = 1.0
    if flat.size > 1:
        flat[-2:] = (-0.0, np.nan)
    return flat, cols


OP_FAMILIES: Tuple[OpFamily, ...] = (
    OpFamily("conv2d", _make_conv_inputs, _run_conv),
    OpFamily("maxpool2d", _make_pool_inputs, _run_pool),
    OpFamily("pack_bits", _make_pack_bits_inputs, _run_fn, reference="loop"),
    OpFamily("pack_nibbles", _make_pack_nibbles_inputs, _run_fn,
             reference="loop"),
    OpFamily("csr_build", _make_csr_inputs, _run_fn, reference="loop"),
)


def op_families() -> Tuple[OpFamily, ...]:
    """The differential tester's op-family table."""
    return OP_FAMILIES


# ----------------------------------------------------------------------
# Dispatch entry point
# ----------------------------------------------------------------------
def select_backend(op: str, ctx, *probe_args) -> KernelBackend:
    """The arm for this call: executor kwarg > env force > chooser.

    ``probe_args`` are the live operands the chooser proves the op's
    non-reference arms on (conv2d: ``x, w4, bias, stride, pad``).
    Ops with a single such arm (max-pool, the codecs) pass none and get
    their default.
    """
    forced = resolve_forced_backend(op, ctx)
    if forced is not None:
        return forced
    if not probe_args:
        return default_backend(op)
    from repro.kernels.autotune import autotuned_backend

    return autotuned_backend(op, *probe_args)


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
register_backend(ConvReference())
register_backend(ConvNumpyPlan(), default=True)
register_backend(ConvBlasFat())

register_backend(PoolReference())
register_backend(PoolNumpyPlan(), default=True)

register_backend(FnBackend("pack_bits", "loop", _pack_bits_loop,
                           description="8-pass shift-or loop"))
register_backend(FnBackend("pack_bits", "numpy", _pack_bits_numpy,
                           description="np.packbits(little-endian)"),
                 default=True)
register_backend(FnBackend("pack_nibbles", "loop", _pack_nibbles_loop,
                           description="2-pass shift-or loop"))
register_backend(FnBackend("pack_nibbles", "numpy", _pack_nibbles_numpy,
                           description="strided even/odd interleave"),
                 default=True)
register_backend(FnBackend("csr_build", "loop", _csr_build_loop,
                           description="per-row flatnonzero loop"))
register_backend(FnBackend("csr_build", "numpy", _csr_build_numpy,
                           description="bool mask: flatnonzero, row sums"),
                 default=True)
