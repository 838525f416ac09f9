"""Shared result containers for circuit runs and the experiment runner."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Table:
    """Column-oriented numeric table with a stable row order."""

    columns: list
    rows: list


@dataclass
class ExperimentResult:
    """Named scalar outputs, tables, and numerical-convergence metadata."""

    scalars: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    convergence: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "scalars": _plain(self.scalars),
            "tables": {name: {"columns": t.columns, "rows": _plain(t.rows)}
                       for name, t in self.tables.items()},
            "convergence": _plain(self.convergence),
        }


def _plain(value):
    """Recursively convert numpy scalars / complex numbers for JSON output."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        if value.imag == 0.0:
            return value.real
        return {"re": value.real, "im": value.imag}
    return value
