"""Plain-text and JSON rendering of experiment results.

Every figure driver returns a :class:`Report`: an ordered table plus
notes.  ``render()`` produces the aligned text the benchmark harness and
the examples print — the same rows/series the paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

#: ``None`` marks a missing cell — a run the resilient campaign recorded
#: as failed; it renders as ``n/a`` and serialises as JSON ``null``.
Cell = Union[str, int, float, None]


def _format(cell: Cell) -> str:
    if cell is None:
        return "n/a"
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


@dataclass
class Report:
    """One regenerated table/figure as structured rows."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, expected {len(self.headers)}")
        self.rows.append(cells)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, header: str) -> List[Cell]:
        """All values of one column, by header name."""
        index = list(self.headers).index(header)
        return [row[index] for row in self.rows]

    def row(self, first_cell: Cell) -> Sequence[Cell]:
        """The first row whose leading cell equals ``first_cell``."""
        for row in self.rows:
            if row[0] == first_cell:
                return row
        raise KeyError(first_cell)

    def render(self) -> str:
        """Aligned plain-text table."""
        table = [list(map(_format, self.headers))]
        table.extend([_format(c) for c in row] for row in self.rows)
        widths = [max(len(row[col]) for row in table)
                  for col in range(len(self.headers))]
        lines = [self.title, "=" * len(self.title)]
        for number, row in enumerate(table):
            lines.append("  ".join(cell.ljust(width)
                                   for cell, width in zip(row, widths)).rstrip())
            if number == 0:
                lines.append("  ".join("-" * width for width in widths))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_bars(self, value_header: str, width: int = 40) -> str:
        """ASCII bar chart of one numeric column (terminal-friendly).

        Bars are scaled to the largest absolute value; negative values
        are marked with ``-`` glyphs so regressions stand out.
        """
        index = list(self.headers).index(value_header)
        values = [None if row[index] is None else float(row[index])
                  for row in self.rows]
        present = [v for v in values if v is not None]
        if not present:
            return self.title
        peak = max(abs(v) for v in present) or 1.0
        label_width = max(len(str(row[0])) for row in self.rows)
        lines = [self.title, "=" * len(self.title)]
        for row, value in zip(self.rows, values):
            if value is None:
                lines.append(f"{str(row[0]).ljust(label_width)}       n/a")
                continue
            length = round(abs(value) / peak * width)
            glyph = "#" if value >= 0 else "-"
            lines.append(f"{str(row[0]).ljust(label_width)}  "
                         f"{value:8.2f} {glyph * length}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable form: {title, headers, rows, notes}."""
        import json

        return json.dumps({
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }, indent=2)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
