"""Wire codecs: gradient compression for the simulated interconnect.

Each codec adapts an existing stash encoding into a transport format:
``encode`` produces a JSON-serialisable message (arrays as base64, so it
survives the pool's result normalisation and the run journal) carrying
the *measured* bytes-on-wire of the underlying encoded representation —
what the paper's compressing DMA engine would actually move.  The JSON
envelope itself is simulation plumbing and is not charged.

Codecs:

========== ==================================================== ========
name       representation                                       lossless
========== ==================================================== ========
fp32       raw float32 stream (the baseline wire)               yes
rle        zero-run-length (:class:`RunLengthEncoding`)         yes
csr        narrow CSR (:func:`csr_encode`); signed zeros        yes*
           canonicalise to ``+0.0``
auto       cheapest of fp32/rle/csr per tensor, skipping csr    yes
           when the tensor holds a ``-0.0`` (bit-exactness)
dpr-fp16   delayed-precision-reduction pack to fp16             no
dpr-fp10   DPR pack to fp10                                     no
dpr-fp8    DPR pack to fp8                                      no
========== ==================================================== ========

Lossy DPR codecs are *deterministic*: both the replicated and the serial
run push gradients through the same rounding, so the replicas-N ≡ serial
bit-identity guarantee holds for every codec in the table.
"""

from __future__ import annotations

import base64
from typing import List

import numpy as np

from repro.dtypes import DPR_FORMATS
from repro.encodings.dpr import DPRTensor, dpr_encoding
from repro.encodings.runlength import RLETensor, RunLengthEncoding
from repro.encodings.ssdc import (
    CSRTensor,
    csr_decode,
    csr_encode,
    csr_index_dtype,
)

#: Names accepted by :func:`wire_codec`.
WIRE_CODECS: List[str] = [
    "fp32", "rle", "csr", "auto", "dpr-fp16", "dpr-fp10", "dpr-fp8",
]

_NEG_ZERO_BITS = np.uint32(0x8000_0000)


def _b64(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode(
        "ascii")


def _unb64(blob: str, dtype) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob), dtype=dtype)


def _has_negative_zero(flat: np.ndarray) -> bool:
    return bool(np.any(flat.view(np.uint32) == _NEG_ZERO_BITS))


class WireCodec:
    """One gradient-compression scheme for replica traffic.

    ``encode`` returns a message dict with at least ``codec``, ``shape``
    and ``wire_bytes`` keys; :func:`decode_wire` reconstructs the float32
    array from any codec's message (the message names its own codec, so
    an ``auto`` sender needs no side channel).
    """

    def __init__(self, name: str):
        if name not in WIRE_CODECS:
            raise ValueError(
                f"unknown wire codec {name!r}; known: {WIRE_CODECS}"
            )
        self.name = name
        self.lossless = not name.startswith("dpr-")

    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> dict:
        """Encode one gradient tensor into a wire message."""
        flat = np.ascontiguousarray(x, dtype=np.float32).reshape(-1)
        name = self.name
        if name == "auto":
            # Cheapest lossless representation for this tensor, each
            # candidate encoded once and the winner's encoding sent.  CSR
            # canonicalises ``-0.0`` (its zero test is by value), so it is
            # only eligible when the tensor carries none — ``auto``
            # promises a bit-exact round trip.
            candidates = ["fp32", "rle"]
            if not _has_negative_zero(flat):
                candidates.append("csr")
            encoded = {n: _encode_as(n, flat) for n in candidates}
            # Deterministic tie-break: cheapest, then alphabetical.
            name = min(sorted(encoded), key=lambda n: encoded[n].nbytes)
            enc = encoded[name]
        else:
            enc = _encode_as(name, flat)
        message = {"codec": name, "shape": list(np.asarray(x).shape),
                   "wire_bytes": int(enc.nbytes)}
        if name == "fp32":
            message["data"] = _b64(enc)
        elif name == "rle":
            message.update(runs=_b64(enc.run_lengths), values=_b64(enc.values))
        elif name == "csr":
            message.update(cols=enc.cols, values=_b64(enc.values),
                           col_idx=_b64(enc.col_idx),
                           row_ptr=_b64(enc.row_ptr))
        else:
            message["words"] = _b64(enc.words)
        return message


def _encode_as(name: str, flat: np.ndarray):
    """The stash-codec representation wire codec ``name`` sends (each has
    an ``nbytes``: the measured bytes-on-wire)."""
    if name == "fp32":
        return flat
    if name == "rle":
        return RunLengthEncoding().encode(flat)
    if name == "csr":
        return csr_encode(flat)
    return dpr_encoding(name[len("dpr-"):]).encode(flat)


def wire_codec(name: str) -> WireCodec:
    """Construct the named wire codec."""
    return WireCodec(name)


def decode_wire(message: dict) -> np.ndarray:
    """Reconstruct the float32 tensor from any codec's wire message."""
    codec = message["codec"]
    shape = tuple(message["shape"])
    if codec == "fp32":
        return _unb64(message["data"], np.float32).reshape(shape)
    if codec == "rle":
        return RunLengthEncoding().decode(RLETensor(
            _unb64(message["runs"], np.uint32),
            _unb64(message["values"], np.float32),
            shape,
        ))
    if codec == "csr":
        cols = message["cols"]
        return csr_decode(CSRTensor(
            values=_unb64(message["values"], np.float32),
            col_idx=_unb64(message["col_idx"], csr_index_dtype(cols)),
            row_ptr=_unb64(message["row_ptr"], np.int32),
            shape=shape,
            cols=cols,
        ))
    if codec.startswith("dpr-"):
        fmt = codec[len("dpr-"):]
        return dpr_encoding(fmt).decode(DPRTensor(
            _unb64(message["words"], np.uint32), shape, DPR_FORMATS[fmt]))
    raise ValueError(f"unknown wire codec in message: {codec!r}")
