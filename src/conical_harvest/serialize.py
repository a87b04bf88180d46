"""CSV / JSON serialization with a stable, version-stamped schema.

Every CSV starts with `# conical-harvest v<version>` followed by a header row;
numeric fields carry 12 significant digits, so identical inputs and version
produce byte-identical output.
"""

from typing import Iterable, Optional, Sequence

from ._version import __version__
from .entanglement import SweepTable

SWEEP_COLUMNS = ("param", "P_A_per_lambda2", "P_B_per_lambda2",
                 "abs_X_per_lambda2", "concurrence_per_lambda2", "diverged")


def version_line() -> str:
    return f"# conical-harvest v{__version__}"


def format_number(value: Optional[float]) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [version_line(), ",".join(columns)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            else:
                cells.append(format_number(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _sweep_cells(row) -> tuple:    # in SWEEP_COLUMNS order
    return row.param, row.p_a, row.p_b, row.abs_x, row.concurrence, row.diverged


def sweep_to_csv(table: SweepTable) -> str:
    return csv_text(SWEEP_COLUMNS, (_sweep_cells(r) for r in table.rows))


def sweep_to_dict(table: SweepTable) -> dict:
    return {
        "version": __version__,
        "axis": table.axis,
        "alignment": table.alignment.value,
        "nu": table.nu,
        "fixed": table.fixed,
        "rows": [dict(zip(SWEEP_COLUMNS, _sweep_cells(r))) for r in table.rows],
    }
