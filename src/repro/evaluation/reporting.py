"""ASCII reporting helpers: the paper's reproduced tables and figures
are printed as text (``benchmarks/paper.py``), with no plotting
dependency."""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["ascii_table", "format_float"]


def format_float(value: float, digits: int = 2) -> str:
    """Compact float formatting for table cells."""
    if value == 0:
        return "0"
    if abs(value) >= 1e6:
        return f"{value:.3g}"
    return f"{value:.{digits}f}"


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a fixed-width ASCII table."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "+".join("-" * (w + 2) for w in widths)
    out = [line]
    out.append("|".join(f" {h:<{w}} " for h, w in zip(headers, widths)))
    out.append(line)
    for row in str_rows:
        out.append("|".join(f" {c:<{w}} " for c, w in zip(row, widths)))
    out.append(line)
    return "\n".join(out)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return format_float(value)
    return str(value)
