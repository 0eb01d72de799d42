"""ASCII Gantt charts for schedule traces.

Renders a :class:`~repro.sim.fluid.ScheduleResult` as one row per task:
when it ran and with how many slaves (digits encode the degree of
parallelism per time slot, so a dynamic adjustment is visible as the
digits changing mid-bar).
"""

from __future__ import annotations

from ..sim.ledger import ScheduleResult, TaskRecord

#: Columns of a chart's time axis.
WIDTH = 72


def render_gantt(
    result: ScheduleResult,
    *,
    title: str | None = None,
) -> str:
    """Render a schedule as an ASCII Gantt chart.

    Each row is one task; each of the :data:`WIDTH` columns is ``elapsed / WIDTH``
    seconds.
    The glyph in a column is the task's degree of parallelism during
    that slot (``9+`` prints as ``#``); ``.`` marks time waiting
    between arrival and start.
    """
    if not result.records:
        return "(empty schedule)"
    span = max(result.elapsed, 1e-12)
    records = sorted(result.records, key=lambda r: (r.started_at, r.task.name))
    label_width = max(len(r.task.name) for r in records)
    lines = []
    if title:
        lines.append(title)
    header = " " * label_width + "  0" + "-" * (WIDTH - 6) + f"{span:7.2f}s"
    lines.append(header)
    for record in records:
        lines.append(
            f"{record.task.name.ljust(label_width)}  {_bar(record, span, WIDTH)}"
        )
    lines.append(
        f"{'':{label_width}}  policy={result.policy_name}, "
        f"cpu={result.cpu_utilization * 100:.0f}%, io={result.io_utilization * 100:.0f}%, "
        f"adjustments={result.adjustments}"
    )
    return "\n".join(lines)


def _bar(record: TaskRecord, span: float, width: int) -> str:
    """One task's bar: arrival wait dots then parallelism digits."""
    chars = [" "] * width

    def slot(t: float) -> int:
        return min(width - 1, max(0, int(t / span * width)))

    for position in range(slot(record.task.arrival_time), slot(record.started_at)):
        chars[position] = "."
    history = list(record.parallelism_history)
    for i, (start, parallelism) in enumerate(history):
        end = history[i + 1][0] if i + 1 < len(history) else record.finished_at
        glyph = _glyph(parallelism)
        for position in range(slot(start), max(slot(start) + 1, slot(end))):
            chars[position] = glyph
    return "".join(chars).rstrip()


def _glyph(parallelism: float) -> str:
    value = int(round(parallelism))
    if value >= 10:
        return "#"
    return str(max(value, 1))
