"""Terminal-friendly ASCII charts for experiment output.

:func:`cdf_chart` renders a latency distribution as percentile rows, so its
shape is visible in a terminal without a plotting stack (see
``examples/trace_replay.py``).
"""

from __future__ import annotations

import math


def cdf_chart(values: list[float], points: int = 10, unit: str = "") -> str:
    """Textual CDF: percentile -> value rows."""
    if not values:
        return "(empty)"
    ordered = sorted(values)
    lines = []
    for i in range(points):
        pct = (i + 1) / points * 100.0
        rank = min(len(ordered) - 1, int(math.ceil(pct / 100.0 * len(ordered))) - 1)
        lines.append(f"p{pct:5.1f}  {ordered[rank]:.4g}{unit}")
    return "\n".join(lines)
