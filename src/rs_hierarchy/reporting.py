"""Report and trajectory serialization.

Reports are a single JSON document; trajectories are CSV with the header
t, q_1..q_n, h_1..h_n, gauge_defect.  All floats are written with 17
significant digits so files are bit-reproducible and round-trip exactly.
"""

from __future__ import annotations

import io
import json

import numpy as np


def _fmt(x: float) -> str:
    if isinstance(x, float) and (np.isnan(x) or np.isinf(x)):
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
    """Render a Trajectory in the CSV schema."""
    idx = range(1, traj.n + 1)
    header = ["t"] + [f"q_{i}" for i in idx] + [f"h_{l}" for l in idx] + ["gauge_defect"]
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for i, t in enumerate(traj.times):
        row = ([_fmt(t)] + [_fmt(v) for v in traj.points[i].Q.q]
               + [_fmt(v) for v in traj.conserved[i]]
               + [_fmt(traj.gauge_defects[i])])
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
