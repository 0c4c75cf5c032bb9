"""ASCII rendering of live-memory timelines.

Turns the dynamic-allocation simulator's per-step live-byte series into a
terminal sparkline, so the Figure 2 story — Gist deflating the long
forward-backward plateau — is visible at a glance in the CLI and
examples.
"""

from __future__ import annotations

from typing import Sequence

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 72) -> str:
    """Render a numeric series as one line of block characters.

    Args:
        values: Non-negative series (live bytes per time step).
        width: Maximum output characters; longer series are bucketed by
            max within each bucket (peaks must stay visible).
    """
    if not values:
        return ""
    values = list(values)
    if len(values) > width:
        bucket = -(-len(values) // width)
        values = [
            max(values[i : i + bucket]) for i in range(0, len(values), bucket)
        ]
    peak = max(values)
    if peak <= 0:
        return _BLOCKS[0] * len(values)
    out = []
    for v in values:
        level = round(v / peak * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[level])
    return "".join(out)


def memory_timeline(tensors) -> str:
    """Sparkline of live bytes for a liveness table."""
    from repro.memory.dynamic import simulate_dynamic

    result = simulate_dynamic(tensors)
    gib = result.peak_bytes / 1024**3
    return f"{sparkline(result.timeline)}  peak {gib:.2f} GiB"
