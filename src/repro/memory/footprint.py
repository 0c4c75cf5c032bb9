"""The paper's Memory Footprint Ratio (MFR) metric and its byte units."""

from __future__ import annotations

MiB = 1024 * 1024
GiB = 1024 * MiB


def memory_footprint_ratio(baseline_bytes: int, encoded_bytes: int) -> float:
    """The paper's comparison metric:

    ``MFR = footprint(baseline) / footprint(after encoding)``.

    Raises:
        ValueError: If the encoded footprint is zero.
    """
    if encoded_bytes <= 0:
        raise ValueError(f"encoded footprint must be positive, got {encoded_bytes}")
    return baseline_bytes / encoded_bytes
