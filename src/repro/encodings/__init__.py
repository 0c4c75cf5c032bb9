"""Gist's data encodings: Binarize, SSDC, DPR, plus packing substrates."""

from repro.encodings.base import Encoding, HostSwapEncoding, IdentityEncoding
from repro.encodings.binarize import (
    BinarizedTensor,
    BinarizeEncoding,
    pack_bits,
    unpack_bits,
)
from repro.encodings.dpr import (
    DPREncoding,
    DPRTensor,
    decode_words,
    dpr_encoding,
    encode_words,
    pack_codes,
    unpack_codes,
)
from repro.encodings.groupquant import (
    GroupQuantEncoding,
    GroupQuantTensor,
)
from repro.encodings.floatsim import (
    decode_minifloat,
    encode_minifloat,
    max_relative_error,
    quantize,
)
from repro.encodings.inplace import inplace_eligible_edges
from repro.encodings.ssdc import (
    CSRTensor,
    NARROW_COLS,
    SSDCEncoding,
    bitmap_bytes,
    csr_bytes,
    csr_decode,
    csr_encode,
    csr_positions,
)

__all__ = [
    "BinarizeEncoding",
    "BinarizedTensor",
    "CSRTensor",
    "DPREncoding",
    "DPRTensor",
    "Encoding",
    "GroupQuantEncoding",
    "GroupQuantTensor",
    "HostSwapEncoding",
    "IdentityEncoding",
    "NARROW_COLS",
    "SSDCEncoding",
    "bitmap_bytes",
    "csr_bytes",
    "csr_decode",
    "csr_encode",
    "csr_positions",
    "decode_minifloat",
    "decode_words",
    "dpr_encoding",
    "encode_minifloat",
    "encode_words",
    "inplace_eligible_edges",
    "max_relative_error",
    "pack_bits",
    "pack_codes",
    "quantize",
    "unpack_bits",
    "unpack_codes",
]
