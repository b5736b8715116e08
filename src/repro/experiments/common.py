"""Shared helpers for the experiment harnesses (formatting, timing, sizes)."""

from __future__ import annotations

import time
from typing import Iterable, List, Sequence

from ..core.provrc import compress
from ..core.relation import LineageRelation
from ..core.serialize import serialize_compressed, serialize_compressed_gzip

__all__ = ["Timer", "format_table", "provrc_bytes", "provrc_gzip_bytes", "mb"]


class Timer:
    """Wall-clock timer usable as a context manager."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def mb(nbytes: float) -> float:
    """Bytes to megabytes (10^6, as the paper reports)."""
    return nbytes / 1e6


def provrc_bytes(relations: Iterable[LineageRelation]) -> int:
    """Long-term ProvRC storage (backward tables) of a set of relations."""
    return sum(len(serialize_compressed(compress(rel))) for rel in relations)


def provrc_gzip_bytes(relations: Iterable[LineageRelation]) -> int:
    """ProvRC-GZip storage of a set of relations."""
    return sum(len(serialize_compressed_gzip(compress(rel))) for rel in relations)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an ASCII table (used by every ``python -m repro.experiments.*``)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) < 1e-3 or abs(cell) >= 1e6):
            return f"{cell:.3e}"
        return f"{cell:.4f}".rstrip("0").rstrip(".") if "." in f"{cell:.4f}" else f"{cell:.4f}"
    return str(cell)
