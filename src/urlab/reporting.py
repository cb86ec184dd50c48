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

