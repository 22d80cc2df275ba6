"""Report and trajectory serialization.

Reports are a single JSON document; trajectories are CSV with the header
t, q_1..q_n, h_1..h_n, gauge_defect.  All floats are written with 17
significant digits so files are bit-reproducible and round-trip exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _fmt(x: float) -> str:
    """x with 17 significant digits; ValueError for any non-finite real
    (Python or numpy float of any width), which JSON cannot hold."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x}")
    return format(float(x), ".17g")


def dumps_json(obj, indent: int = 0) -> str:
    """JSON serializer with fixed 17-significant-digit float formatting."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps_json(v, indent + 2).lstrip()}'
            for k, v in obj.items())
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        items = ",\n".join(f"{pad}  {dumps_json(v, indent + 2).lstrip()}" for v in obj)
        return f"{pad}[\n{items}\n{pad}]" if obj else f"{pad}[]"
    if isinstance(obj, (bool, np.bool_)):
        return pad + ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _fmt(obj)
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    if obj is None:
        return pad + "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def trajectory_csv(traj) -> str:
    """Render a Trajectory in the CSV schema; the whole table is formatted
    by one % operation."""
    idx = range(1, traj.n + 1)
    header = ["t"] + [f"q_{i}" for i in idx] + [f"h_{l}" for l in idx] + ["gauge_defect"]
    table = np.column_stack([traj.times, [p.Q.q for p in traj.points],
                             traj.conserved, traj.gauge_defects])
    finite = np.isfinite(table)
    if not finite.all():
        raise ValueError(f"non-finite value in report: {table[~finite][0]}")
    rows, cols = table.shape
    row = ",".join(["%.17g"] * cols) + "\n"  # "%.17g" % v == format(v, ".17g")
    return ",".join(header) + "\n" + row * rows % tuple(table.ravel().tolist())
