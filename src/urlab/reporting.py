"""Deterministic artifact emission.

Every writer here produces byte-stable output for equal inputs: comma
separated, LF line endings, header row first for CSV; UTF-8 with stable
insertion-order keys for JSON.  Floats are rendered with repr, the
shortest string that round-trips, so checksums are reproducible across
runs and platforms with IEEE doubles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

SUMMARY_COLUMNS = ("statistic", "n", "mean", "mc_se", "reps", "seed")
TRAJECTORY_COLUMNS = ("t", "omega", "epsilon", "eta", "x", "y")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows, columns) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def write_text(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))
    return path


def write_summary_csv(path, summaries) -> Path:
    rows = [asdict(s) for s in summaries]
    return write_text(path, render_csv(rows, SUMMARY_COLUMNS))


def write_json(path, payload) -> Path:
    return write_text(path, render_json(payload))


def checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def trajectory_rows(traj) -> list[dict]:
    """Column-oriented dump of one path for debugging.

    Row t carries whichever series are defined at t: x starts at 0,
    omega and eta at 1, epsilon and y at 2 and run through n+1.
    """
    rows = [{"t": 0, "x": 0.0}]
    for t in range(1, traj.n + 2):
        row: dict = {"t": t}
        if t <= traj.n:
            row["omega"] = float(traj.omega[t - 1])
            row["eta"] = float(traj.eta[t - 1])
            row["x"] = float(traj.x[t])
        if t >= 2:
            row["epsilon"] = float(traj.epsilon[t - 2])
            row["y"] = float(traj.y[t - 2])
        rows.append(row)
    return rows


def write_trajectory_csv(path, traj) -> Path:
    return write_text(path, render_csv(trajectory_rows(traj), TRAJECTORY_COLUMNS))
