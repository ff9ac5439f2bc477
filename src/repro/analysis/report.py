"""Plain-text table rendering and paper-vs-measured comparison helpers.

The benchmark harness prints every reproduced table through these
functions so the output is uniform and diffable against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

Number = Union[int, float]


def _fmt(value) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence], note: str = ""
) -> str:
    """Render an aligned monospace table with a title rule."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [f"== {title} =="]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def comparison_table(title: str, entries: Sequence[Dict[str, Number]]) -> str:
    """Render label / paper / measured / ratio rows from entries keyed
    ``label``, ``paper`` and ``measured``.

    ``ratio = measured / paper``; a ratio near 1.0 means the
    reproduction tracks the paper.
    """
    rows = []
    for e in entries:
        paper, measured = e["paper"], e["measured"]
        ratio = measured / paper if paper else float("nan")
        rows.append([e["label"], paper, measured, f"{ratio:.3f}"])
    return render_table(title, ["label", "paper", "measured", "ratio"], rows)


def shape_preserved(
    paper_series: Sequence[Number], measured_series: Sequence[Number]
) -> bool:
    """True when the two series have identical pairwise ordering.

    The reproduction criterion for performance tables: who wins and where
    the crossovers fall must match even if absolute numbers differ.
    """
    if len(paper_series) != len(measured_series):
        raise ValueError("series length mismatch")
    for i in range(len(paper_series)):
        for j in range(i + 1, len(paper_series)):
            a = paper_series[i] - paper_series[j]
            b = measured_series[i] - measured_series[j]
            if (a > 0) != (b > 0) and (a < 0) != (b < 0):
                return False
    return True
