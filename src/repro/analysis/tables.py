"""ASCII table / series rendering shared by the benchmark harness.

Every bench prints the same rows or series its paper figure shows; these
helpers keep the formatting uniform and the bench code small.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Union

Number = Union[int, float]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render rows as a fixed-width ASCII table."""
    str_rows: List[List[str]] = [
        [_fmt(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, values: Sequence[Number]) -> str:
    """Render a named numeric series on one line (figure curves)."""
    body = ", ".join(f"{v:.3f}" for v in values)
    return f"{name}: [{body}]"


def format_breakdown(label: str, parts: Dict[str, Number]) -> str:
    """Render a stacked-bar style breakdown (Figure 1/3/10 bars)."""
    total = sum(parts.values())
    segs = ", ".join(
        f"{k}={v:,.0f} ({v / total:.1%})" if total else f"{k}={v:,.0f}"
        for k, v in parts.items()
    )
    return f"{label}: {segs}; total={total:,.0f}"


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
