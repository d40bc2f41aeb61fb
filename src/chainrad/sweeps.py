"""Tabular sweep results and their CSV form.

CSV output is fully deterministic: fixed column order, fixed float
formatting, metadata emitted as sorted ``# key=value`` comment lines.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

_FLOAT_FMT = ".12g"


def format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), _FLOAT_FMT)


def phi_columns(prefix: str, phi_list) -> list[str]:
    """Column names ``<prefix>_phi<deg>``, one per polarization angle."""
    return [f"{prefix}_phi{round(math.degrees(p))}" for p in phi_list]


@dataclass
class SweepTable:
    """Ordered rows of (grid point -> computed values)."""

    columns: list[str]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)
    footer: list[str] = field(default_factory=list)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} != {len(self.columns)} columns"
                )

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows], dtype=float)

    def write_csv(self, stream) -> None:
        for key in sorted(self.metadata):
            stream.write(f"# {key}={self.metadata[key]}\n")
        stream.write(",".join(self.columns) + "\n")
        for row in self.rows:
            stream.write(",".join(format_value(v) for v in row) + "\n")
        for line in self.footer:
            stream.write(f"# {line}\n")

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()
