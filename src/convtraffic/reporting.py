"""Plain-text, CSV and JSON report rendering with deterministic output."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class ComparisonRow:
    """One reproduced metric next to its published reference value."""

    metric: str
    paper_value: float
    computed_value: float
    tolerance: float
    note: str = ""

    @property
    def relative_error(self) -> float:
        return abs(self.computed_value - self.paper_value) / abs(self.paper_value)

    @property
    def passed(self) -> bool:
        return self.relative_error <= self.tolerance

    def to_dict(self) -> dict:
        return {**asdict(self), "relative_error": self.relative_error, "pass": self.passed}


def fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_table(headers: list[str], rows: list[list]) -> str:
    cells = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(headers: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


def render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render(fmt_name: str, headers: list[str], rows: list[list], payload) -> str:
    """Render one report in the selected format. The JSON form uses the
    structured payload, the others the tabular view."""
    if fmt_name == "table":
        return render_table(headers, rows)
    if fmt_name == "csv":
        return render_csv(headers, rows)
    return render_json(payload)
