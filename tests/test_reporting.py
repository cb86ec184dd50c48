import numpy as np

from urlab.monte_carlo import McSummary
from urlab.reporting import (
    SUMMARY_COLUMNS,
    checksum,
    render_csv,
    render_json,
    write_json,
    write_summary_csv,
)


def test_csv_layout_and_float_round_trip(tmp_path):
    summaries = [
        McSummary("fpe_stat", 100, 2.0000000000000004, 0.1, 50, 7, 1.0),
        McSummary("fpe_stat", 200, 1.97, None, 20, 7, None),
    ]
    path = write_summary_csv(tmp_path / "s.csv", summaries)
    raw = path.read_bytes().decode("utf-8")
    lines = raw.split("\n")
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    assert "\r" not in raw and raw.endswith("\n")
    cells = lines[1].split(",")
    assert float(cells[2]) == 2.0000000000000004  # repr survives the round trip
    assert lines[2].split(",")[3] == ""  # suppressed mc_se renders empty


def test_render_csv_is_deterministic():
    rows = [{"a": 1.0 / 3.0, "b": 10}]
    assert render_csv(rows, ("a", "b")) == render_csv(rows, ("a", "b"))
    assert render_csv(rows, ("a", "b")) == "a,b\n0.3333333333333333,10\n"


def test_json_preserves_insertion_order(tmp_path):
    payload = {"zeta": 1, "alpha": {"n": 2.5}}
    text = render_json(payload)
    assert text.index("zeta") < text.index("alpha")
    path = write_json(tmp_path / "r.json", payload)
    assert path.read_bytes().decode("utf-8") == text


def test_checksum_tracks_content(tmp_path):
    a = write_json(tmp_path / "a.json", {"v": 1})
    b = write_json(tmp_path / "b.json", {"v": 1})
    c = write_json(tmp_path / "c.json", {"v": 2})
    assert checksum(a) == checksum(b)
    assert checksum(a) != checksum(c)


def test_numpy_scalars_render_as_plain_floats():
    rows = [{"a": float(np.float64(0.25))}]
    assert render_csv(rows, ("a",)) == "a\n0.25\n"
