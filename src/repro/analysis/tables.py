"""Plain-text and Markdown table rendering for experiment reports.

Every experiment driver returns structured data; these helpers render that
data as aligned text tables so the benchmark harness can print output that
reads like the paper's tables (and EXPERIMENTS.md can embed it verbatim).
The Markdown variants back :meth:`repro.api.experiments.ExperimentReport.format`
with ``style="markdown"``, so reports paste directly into docs and PRs.
"""

from __future__ import annotations

from typing import Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = "") -> str:
    """Render a simple aligned text table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} does not have {columns} columns")
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells)).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(format_row(list(headers)))
    lines.append(format_row(["-" * width for width in widths]))
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)


def render_key_values(pairs: Sequence[tuple[str, object]], *, title: str = "") -> str:
    """Render aligned ``key: value`` lines."""
    width = max((len(key) for key, _ in pairs), default=0)
    lines = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    lines.extend(f"{key.ljust(width)} : {value}" for key, value in pairs)
    return "\n".join(lines)


def _markdown_cell(cell: object) -> str:
    return str(cell).replace("|", "\\|")


def render_table_markdown(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = ""
) -> str:
    """Render the same table as GitHub-flavoured Markdown."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} does not have {columns} columns")
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(_markdown_cell(h) for h in headers) + " |")
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    lines.extend(
        "| " + " | ".join(_markdown_cell(cell) for cell in row) + " |" for row in rows
    )
    return "\n".join(lines)


def render_key_values_markdown(
    pairs: Sequence[tuple[str, object]], *, title: str = ""
) -> str:
    """Render ``key: value`` pairs as a two-column Markdown table (no pairs: the title)."""
    if not pairs:
        return f"### {title}"
    return render_table_markdown(["key", "value"], list(pairs), title=title)
