"""CSV helpers shared by the curve and report emitters.

Mapping ids may contain commas (shear ids do), so fields go through the
standard csv module: minimal quoting on write, quote-aware parsing on read.
Numeric fields are formatted by the callers; this module never reformats.
"""

from __future__ import annotations

import csv
from types import SimpleNamespace
from typing import Iterable, List, Sequence


def csv_lines(rows: Iterable[Sequence[str]]) -> List[str]:
    """Each row as one CSV line without its terminator, all from one writer."""
    lines: List[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="").writerows(rows)
    return lines


def parse_rows(text: str) -> List[List[str]]:
    return [row for row in csv.reader(text.splitlines()) if row]
