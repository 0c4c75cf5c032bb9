"""SSDC — Sparse Storage and Dense Compute (paper Section IV-A).

ReLU outputs feeding convolutions are highly sparse (often >80% zeros in
VGG16), so Gist stashes them in CSR format while keeping computation
dense.  Two fidelity-critical details from the paper are reproduced:

* **Narrow Value Optimisation.**  cuSPARSE's stock CSR spends 4 bytes per
  column index, so compression only wins above 50% sparsity.  Gist
  reshapes the flattened map into rows of at most 256 columns, shrinking
  each index to 1 byte and moving the breakeven point to ~20% sparsity.
* **DPR composition.**  The lossy pass may additionally compress the CSR
  *values* array (never the meta arrays, which affect control flow).

:func:`csr_encode` has one body; :func:`csr_encode_reference`, the
row-loop build beside it, is what it is checked against byte for byte
(:mod:`repro.verify.differential`).

A bitmap format (1 bit per element + dense nonzero values) is included for
the format-choice ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dtypes import FP32, DType
from repro.encodings.base import Encoding
from repro.encodings.dpr import DPRTensor, decode_words, encode_words

#: Row width of the narrow-value reshape: 256 columns -> uint8 indices.
NARROW_COLS = 256


def csr_index_dtype(cols: int):
    """NumPy dtype of a CSR column index at row width ``cols`` (the narrow
    value optimisation: one byte up to 256 columns)."""
    return np.uint8 if cols <= 256 else np.int32


@dataclass(frozen=True)
class CSRTensor:
    """CSR stash of a (conceptually flattened) feature map.

    ``values`` is either a float32 array or a packed :class:`DPRTensor`
    when DPR is composed on top.  ``col_idx`` is uint8 (narrow) or int32
    (wide, the cuSPARSE default modelled for the ablation).
    """

    values: object
    col_idx: np.ndarray
    row_ptr: np.ndarray
    shape: Tuple[int, ...]
    cols: int

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return int(self.row_ptr[-1])

    @property
    def nbytes(self) -> int:
        """Total storage: values + column indices + row pointers."""
        if isinstance(self.values, DPRTensor):
            vbytes = self.values.nbytes
        else:
            vbytes = self.values.size * 4
        return vbytes + self.col_idx.nbytes + self.row_ptr.nbytes


def csr_encode(
    x: np.ndarray,
    cols: int = NARROW_COLS,
    value_dtype: Optional[DType] = None,
) -> CSRTensor:
    """Encode an array into (narrow) CSR.

    Args:
        x: Input feature map, any shape; flattened row-major and split into
            rows of ``cols`` elements (the last row may be shorter).
        cols: Row width.  ``<= 256`` selects 1-byte indices (the narrow
            value optimisation); wider rows fall back to 4-byte indices.
        value_dtype: Optional DPR format for the values array.
    """
    flat = np.asarray(x, dtype=np.float32).ravel()
    n = flat.size
    row_ptr = np.zeros(_csr_rows(n, cols) + 1, np.int32)
    # Every pass after ``flat != 0`` reads the bool mask (flatnonzero on
    # float32 is branchy): columns come from narrowing the flat positions
    # and row counts from per-row sums of the mask.
    mask = flat != 0
    nz = np.flatnonzero(mask)
    # 256 columns: the low byte of a flat position *is* its column.
    col_idx = (nz.astype(np.uint8) if cols == 256
               else (nz % cols).astype(csr_index_dtype(cols)))
    if n:
        # reduceat sums [start, next start): the ragged last row is free.
        counts = np.add.reduceat(mask, np.arange(0, n, cols), dtype=np.int32)
        np.cumsum(counts, out=row_ptr[1:])
    return _csr_tensor(flat[nz], col_idx, row_ptr, x.shape, cols,
                       value_dtype)


def csr_encode_reference(
    x: np.ndarray,
    cols: int = NARROW_COLS,
    value_dtype: Optional[DType] = None,
) -> CSRTensor:
    """Ground truth of :func:`csr_encode`: one ``flatnonzero`` per row."""
    flat = np.asarray(x, dtype=np.float32).ravel()
    n_rows = _csr_rows(flat.size, cols)
    row_ptr = np.zeros(n_rows + 1, np.int32)
    nz_parts, col_parts = [], []
    for r in range(n_rows):
        seg_nz = np.flatnonzero(flat[r * cols:(r + 1) * cols])
        nz_parts.append(seg_nz + r * cols)
        col_parts.append(seg_nz)
        row_ptr[r + 1] = row_ptr[r] + seg_nz.size
    col_idx = np.concatenate(col_parts).astype(csr_index_dtype(cols))
    return _csr_tensor(flat[np.concatenate(nz_parts)], col_idx, row_ptr,
                       x.shape, cols, value_dtype)


def _csr_rows(n: int, cols: int) -> int:
    """Row count of an ``n``-element CSR; every entry point's one check
    of the row width."""
    if cols <= 0:
        raise ValueError(f"cols must be positive, got {cols}")
    return max(1, -(-n // cols))


def _csr_tensor(raw_values, col_idx, row_ptr, shape, cols,
                value_dtype) -> CSRTensor:
    """The stash of the non-zero values and the meta arrays.  The flat
    non-zero positions (int64, 8 B/nnz) are not kept — decode rebuilds
    them from the indices — so it holds exactly what ``nbytes`` charges."""
    if value_dtype is None:
        values: object = raw_values
    else:
        values = DPRTensor(encode_words(raw_values, value_dtype),
                           (raw_values.size,), value_dtype)
    return CSRTensor(values, col_idx, row_ptr, tuple(shape), cols)


def csr_positions(enc: CSRTensor) -> np.ndarray:
    """Flat dense positions of the stored non-zeros, rebuilt from
    ``row_ptr`` + ``col_idx`` on every call (int64, 8 B/nnz: a transient
    of the decode, never part of the stash)."""
    row_base = np.arange(enc.row_ptr.size - 1, dtype=np.int64) * enc.cols
    positions = np.repeat(row_base, np.diff(enc.row_ptr))
    positions += enc.col_idx
    return positions


def csr_decode(enc: CSRTensor) -> np.ndarray:
    """Reconstruct the dense array from CSR (dense compute side of SSDC)."""
    n = int(np.prod(enc.shape))
    flat = np.zeros(n, dtype=np.float32)
    if isinstance(enc.values, DPRTensor):
        values = decode_words(enc.values.words, enc.nnz, enc.values.dtype)
    else:
        values = enc.values
    flat[csr_positions(enc)] = values
    return flat.reshape(enc.shape)


def csr_bytes(
    num_elements: int,
    sparsity: float,
    cols: int = NARROW_COLS,
    value_dtype: DType = FP32,
) -> int:
    """Static size model for a CSR stash.

    Args:
        num_elements: Dense element count.
        sparsity: Fraction of zeros, in [0, 1].
        cols: Row width (narrow optimisation when <= 256).
        value_dtype: Storage format of the values (FP32, or a DPR
            format packed in whole 32-bit words).
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    nnz = round(num_elements * (1.0 - sparsity))
    n_rows = _csr_rows(num_elements, cols)
    idx_bytes = 1 if cols <= 256 else 4
    return (value_dtype.size_bytes(nnz) + nnz * idx_bytes
            + (n_rows + 1) * 4)


class SSDCEncoding(Encoding):
    """Sparse Storage, Dense Compute.

    Lossless when ``value_dtype`` is ``None``; composing DPR on the values
    array makes it lossy (the zero pattern is always exact).
    """

    def __init__(self, cols: int = NARROW_COLS,
                 value_dtype: Optional[DType] = None):
        self.cols = cols
        self.value_dtype = value_dtype
        self.lossless = value_dtype is None
        suffix = f"+dpr-{value_dtype.name}" if value_dtype is not None else ""
        self.name = f"ssdc{suffix}"

    def encoded_bytes(self, num_elements: int, sparsity: float = 0.0, **ctx) -> int:
        return csr_bytes(num_elements, sparsity, self.cols,
                         self.value_dtype or FP32)

    def encode(self, x: np.ndarray) -> CSRTensor:
        return csr_encode(x, self.cols, self.value_dtype)

    def decode(self, encoded: CSRTensor) -> np.ndarray:
        return csr_decode(encoded)

    def expected_decode(self, x: np.ndarray) -> np.ndarray:
        """``x + 0.0`` in float32: the zero test is by value, so a
        ``-0.0`` is not stored and decodes as ``+0.0``.  ReLU and
        max-pool of ReLU, SSDC's producers, never emit a ``-0.0``."""
        expected = super().expected_decode(x)
        return np.asarray(expected, dtype=np.float32) + np.float32(0.0)

    def measure_bytes(self, encoded: CSRTensor) -> int:
        return encoded.nbytes


def bitmap_bytes(num_elements: int, sparsity: float) -> int:
    """Static size model for the bitmap format."""
    nnz = round(num_elements * (1.0 - sparsity))
    return -(-num_elements // 32) * 4 + nnz * 4
