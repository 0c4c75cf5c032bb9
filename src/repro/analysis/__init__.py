"""Analysis utilities: sparsity models and report rendering."""

from repro.analysis.sparsity import (
    ConstantSparsity,
    DEFAULT_SPARSITY_MODEL,
    DepthSparsityModel,
    MeasuredSparsity,
    SparsityModel,
)
from repro.analysis.tables import format_breakdown, format_series, format_table
from repro.analysis.timeline import memory_timeline, sparkline

__all__ = [
    "ConstantSparsity",
    "DEFAULT_SPARSITY_MODEL",
    "DepthSparsityModel",
    "MeasuredSparsity",
    "SparsityModel",
    "format_breakdown",
    "format_series",
    "format_table",
    "memory_timeline",
    "sparkline",
]
