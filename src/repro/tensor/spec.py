"""Shape/dtype/category descriptor for a tensor in the execution graph."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.dtypes import FP32, DType
from repro.tensor.categories import TensorCategory


@dataclass(frozen=True)
class TensorSpec:
    """Immutable description of one tensor (no data, just metadata).

    Attributes:
        name: Unique, human-readable identifier (e.g. ``"conv1_1.out"``).
        shape: Logical shape.  Feature maps use NCHW; weights use layer
            conventions; 1-D shapes are fine for packed encodings.
        dtype: Storage format — see :mod:`repro.dtypes`.
        category: Data-structure class for breakdown reporting.
        size_bytes: Bytes this tensor occupies in its storage format —
            derived once from ``shape`` and ``dtype`` (the allocator's
            sort key and group size), never part of equality, hash or
            repr; :meth:`with_dtype` builds a new spec, so it is
            recomputed there.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: DType = FP32
    category: TensorCategory = TensorCategory.FEATURE_MAP
    size_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.shape:
            raise ValueError(f"tensor {self.name!r} must have a non-empty shape")
        if any(d <= 0 for d in self.shape):
            raise ValueError(f"tensor {self.name!r} has non-positive dim: {self.shape}")
        object.__setattr__(self, "size_bytes",
                           self.dtype.size_bytes(self.num_elements))

    @property
    def num_elements(self) -> int:
        """Total number of logical elements."""
        return math.prod(self.shape)

    def with_dtype(self, dtype: DType, suffix: str = "") -> "TensorSpec":
        """A copy of this spec in a different storage format.

        Args:
            dtype: New storage format.
            suffix: Appended to the name to keep specs distinguishable,
                e.g. ``".enc"``.
        """
        return replace(self, dtype=dtype, name=self.name + suffix)

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"{self.name}[{dims}:{self.dtype.name}]"
