"""Proof-based, cached chooser between the two conv arms.

The one place a BLAS GEMM is admitted on proof: the first time a
conv's ``(shapes, dtype)`` signature is dispatched, this module settles
which arm of :data:`~repro.kernels.backends.CONV_ARMS` runs it.
Nothing is timed: a few runs on cold pages order the arms at noise,
while the whole-batch arm's saving (no loop gather, no transposing copy
of the column matrix for dW) is structural.  ``blas-fat``, the one
candidate, runs iff both halves of a proof hold:

* *static*: a live-data probe can settle its GEMMs at all, at every
  shape it issues them — per sample block for the forward and dcols
  products, per sample and window slot for the direct fill's
  (:func:`_gemm_probe_decides`: on a reduction of at most four terms or
  a free dimension of 1, BLAS and ``einsum`` agree on some data and not
  on other, so a matching probe proves nothing);
* *live*: one forward+backward on the dispatching call's data is
  **bit-identical to the ``reference`` arm** — the bytes of every
  output and the memory layout of every tensor that escapes to the
  graph.

Otherwise ``reference`` runs, so the default selection keeps every
training golden.  ``GraphExecutor(kernel_backend=...)`` forces an arm
under its declared contract and bypasses this module entirely.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import repro.kernels.plan as plan_module
from repro.kernels.backends import (
    CONV_ARMS,
    REFERENCE,
    ConvBackend,
    _conv_geometry,
)
from repro.kernels.plan import bit_identical, block_samples

_chosen: Dict[str, ConvBackend] = {}
_records: Dict[str, dict] = {}


# ----------------------------------------------------------------------
# Probe machinery
# ----------------------------------------------------------------------
# Whether ``np.matmul`` and the reference ``np.einsum`` agree bit for bit
# is, for most GEMMs, a function of shape and dtype only: the compute
# path both libraries take is, so one live-data probe settles it.  The
# exception is matrix-vector products (a free dimension of 1): there the
# two forms agree on only some *data* — 2-60% of draws, on every such
# signature of a 3000-shape survey and on no other — so a probe that
# happened to match proves nothing.  Those signatures, and reductions of
# at most four terms (where the flake was first seen), never promote an
# arm; no ledger workload's conv has one.
def _gemm_probe_decides(reduction: int, *free: int) -> bool:
    """Whether one live-data probe settles matmul == einsum for a GEMM."""
    return reduction > 4 and min(free) > 1


def _matches(truth: Dict[str, np.ndarray],
             out: Dict[str, np.ndarray]) -> bool:
    """Bit-identity: values everywhere, layout on the escaping y and dx."""
    return all(bit_identical(out[key], ref)
               and (key == "dw" or out[key].strides == ref.strides)
               for key, ref in truth.items())


def _probe_decides(x, w4, stride, pad) -> bool:
    """The static half, on the GEMMs as the arm issues them: dW
    ``(K,N*P)@(N*P,F)`` over the whole batch, and the forward
    ``(M,K)@(K,F)`` once per sample block — ``M = b*P``, and the ragged
    last block's ``(N mod b)*P``.  For ``dx``, on the direct fill one
    ``(C,F)@(F,OH*WP)`` per sample and slot, else dcols ``(K,F)@(F,M)``
    per block.  The fill rule is looked up at call time, as the arm
    does, so a patched ``plan.direct_fill`` moves both."""
    n, c, f, kh, kw, oh, ow = _conv_geometry(x, w4, stride, pad)
    k, p = c * kh * kw, oh * ow
    b = block_samples(n, k, p)
    blocks = {b * p, n % b * p} - {0}
    wp = x.shape[3] + 2 * pad
    if plan_module.direct_fill(stride, oh, wp):
        dx_decides = _gemm_probe_decides(f, c, oh * wp)
    else:
        dx_decides = all(_gemm_probe_decides(f, k, m) for m in blocks)
    return _gemm_probe_decides(n * p, f, k) and dx_decides and all(
        _gemm_probe_decides(k, f, m) for m in blocks)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def autotuned_backend(x, w4, bias, stride, pad) -> ConvBackend:
    """The chosen conv arm for this signature (probing on first use)."""
    sig = (f"x{'x'.join(map(str, x.shape))}-"
           f"w{'x'.join(map(str, w4.shape))}-s{stride}p{pad}-"
           f"b{int(bias is not None)}-{x.dtype}")
    backend = _chosen.get(sig)
    if backend is not None:
        return backend

    def run(arm: ConvBackend, dy=None) -> Dict[str, np.ndarray]:
        y, saved = arm.forward(x, w4, bias, stride, pad, want_saved=True)
        # Synthetic cotangent: the reference arm's own y (shape,
        # magnitudes).
        dx, dw = arm.backward(x, w4, y if dy is None else dy, stride, pad,
                              saved=saved)
        return {"y": y, "dx": dx, "dw": dw}

    reference, candidate = CONV_ARMS[REFERENCE], CONV_ARMS["blas-fat"]
    proven = False
    if _probe_decides(x, w4, stride, pad):
        truth = run(reference)
        proven = _matches(truth, run(candidate, truth["y"]))
    choice = candidate if proven else reference
    _chosen[sig] = choice
    _records[sig] = {"signature": sig, "backend": choice.name,
                     "exact": {candidate.name: proven}}
    return choice


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------
def autotune_report() -> List[dict]:
    """Per-signature selection records (for the benches and tests)."""
    return [dict(_records[key]) for key in sorted(_records)]


def clear_selection_cache() -> None:
    """Drop every selection; the next dispatch of a signature re-probes."""
    _chosen.clear()
    _records.clear()
