"""Plain-text tables and bar charts for the benchmark harness.

The paper's artifacts are figures and tables; the harness renders both
as monospace text so every experiment prints "the same rows/series the
paper reports".
"""

from __future__ import annotations

from typing import Sequence

#: Characters in the longest bar of :func:`format_bar_chart`.
BAR_WIDTH = 48


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """A padded ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def line(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(cells[0]))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in cells[1:])
    return "\n".join(out)


def format_bar_chart(
    groups: Sequence[tuple[str, Sequence[tuple[str, float]]]],
    *,
    title: str | None = None,
) -> str:
    """Grouped horizontal bars — a text rendering of Figure 7.

    The longest bar is :data:`BAR_WIDTH` characters; values print in
    seconds.

    Args:
        groups: ``[(group label, [(series label, value), ...]), ...]``.
    """
    peak = max(
        (value for __, series in groups for __, value in series), default=1.0
    )
    label_width = max(
        (len(label) for __, series in groups for label, __ in series), default=4
    )
    out = []
    if title:
        out.append(title)
    for group, series in groups:
        out.append(f"{group}:")
        for label, value in series:
            bar = (
                "#" * max(1, round(BAR_WIDTH * value / peak)) if value > 0 else ""
            )
            out.append(f"  {label.ljust(label_width)} {bar} {value:.2f}s")
    return "\n".join(out)
