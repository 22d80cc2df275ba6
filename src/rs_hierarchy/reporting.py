"""Report and trajectory serialization.

Reports are a single JSON document, whose floats are Python's shortest
round-trip repr; trajectories are CSV with the header t, q_1..q_n,
h_1..h_n, gauge_defect, whose floats have 17 significant digits.  Both are
bit-reproducible and round-trip exactly.
"""

from __future__ import annotations

import json

import numpy as np


def dumps_json(obj) -> str:
    """The report format: json.dumps with a two-space indent, each float in
    Python's shortest repr that round-trips and a numpy scalar as its Python
    value.  JSON holds no NaN or infinity: ValueError for either."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False, default=np.generic.item)
    except ValueError as exc:
        raise ValueError(f"non-finite value in report: {exc}") from None


def trajectory_csv(traj) -> str:
    """Render a Trajectory of one start point in the CSV schema; the whole
    table is formatted by one % operation.  ValueError naming the batch
    shape for a stacked one: a CSV holds one trajectory."""
    if traj.gauge_defects.ndim > 1:
        raise ValueError(f"a CSV holds one trajectory, got a stack of batch shape "
                         f"{traj.gauge_defects.shape[1:]}")
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
