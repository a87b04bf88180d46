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
            elif cell is None or isinstance(cell, (int, float)):
                cells.append(format_number(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def sweep_to_csv(table: SweepTable) -> str:
    rows = ((r.param, r.p_a, r.p_b, r.abs_x, r.concurrence, r.diverged) for r in table.rows)
    return csv_text(SWEEP_COLUMNS, rows)


def sweep_to_dict(table: SweepTable) -> dict:
    return {
        "version": __version__,
        "axis": table.axis,
        "alignment": table.alignment.value,
        "nu": table.nu,
        "fixed": table.fixed,
        "rows": [
            {
                "param": r.param,
                "P_A_per_lambda2": r.p_a,
                "P_B_per_lambda2": r.p_b,
                "abs_X_per_lambda2": r.abs_x,
                "concurrence_per_lambda2": r.concurrence,
                "diverged": r.diverged,
            }
            for r in table.rows
        ],
    }
