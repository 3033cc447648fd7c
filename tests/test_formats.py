"""File format round-trips and malformed-input rejection."""

import numpy as np
import pytest

from gldpcsim.formats import (
    CSV_SCHEMA,
    code_identity_hash,
    format_result_rows,
    parse_config,
    read_alist,
    read_placement,
    read_profile,
    read_result_csv,
    write_alist,
    write_placement,
    write_profile,
    write_result_csv,
)
from gldpcsim.graph import TannerGraph, place_gc_nodes
from gldpcsim.qc import QcProfile, expand


@pytest.fixture()
def small_profile():
    return QcProfile(J=2, K=6, s=7, shifts=((0,) * 6, (0, 1, 2, 3, 4, 5)))


def test_alist_round_trip_irregular(tmp_path):
    rng = np.random.default_rng(0)
    h = (rng.random((9, 14)) < 0.3).astype(np.uint8)
    h[0, 0] = 1  # keep at least one entry
    p = tmp_path / "h.alist"
    write_alist(h, p)
    assert np.array_equal(read_alist(p), h)


def test_alist_round_trip_lifted(tmp_path, small_profile):
    h = expand(small_profile)
    p = tmp_path / "h.alist"
    write_alist(h, p)
    back = read_alist(p)
    assert np.array_equal(back, h)
    # header is 'cols rows'
    assert p.read_text().splitlines()[0] == f"{h.shape[1]} {h.shape[0]}"


def test_alist_reads_unpadded(tmp_path):
    # same matrix, entries written without zero padding
    text = "3 2\n2 2\n1 1 2\n2 2\n1\n2\n1 2\n1 3\n2 3\n"
    p = tmp_path / "h.alist"
    p.write_text(text)
    assert np.array_equal(read_alist(p), [[1, 0, 1], [0, 1, 1]])


def test_alist_rejects_garbage(tmp_path):
    p = tmp_path / "h.alist"
    p.write_text("3 2\n2 2\n1 1 2\n2 2\n1\n")
    with pytest.raises(ValueError, match="truncated"):
        read_alist(p)
    p.write_text("hello")
    with pytest.raises(ValueError):
        read_alist(p)


def test_profile_round_trip(tmp_path, small_profile):
    p = tmp_path / "code.profile"
    write_profile(small_profile, p)
    back = read_profile(p)
    assert (back.J, back.K, back.s) == (2, 6, 7)
    assert np.array_equal(back.shifts, small_profile.shifts)
    assert p.read_text().splitlines()[0] == "2 6 7"


def test_profile_rejects_wrong_row_count(tmp_path):
    p = tmp_path / "code.profile"
    p.write_text("2 6 7\n0 0 0 0 0 0\n")
    with pytest.raises(ValueError, match="shift rows"):
        read_profile(p)


def test_placement_round_trip(tmp_path, small_profile):
    graph = TannerGraph(expand(small_profile))
    placement = place_gc_nodes(graph, 0.5, seed=3)
    p = tmp_path / "code.placement"
    write_placement(placement, p)
    back = read_placement(p)
    assert back.n_checks == placement.n_checks
    assert back.gc_indices == placement.gc_indices
    for idx in placement.gc_indices:
        assert np.array_equal(back.position_maps[idx], placement.position_maps[idx])


def test_placement_round_trip_empty(tmp_path, small_profile):
    graph = TannerGraph(expand(small_profile))
    placement = place_gc_nodes(graph, 0.0)
    p = tmp_path / "code.placement"
    write_placement(placement, p)
    assert read_placement(p).gc_indices == ()


def test_placement_rejects_inconsistent_nu(tmp_path, small_profile):
    graph = TannerGraph(expand(small_profile))
    placement = place_gc_nodes(graph, 0.5, seed=3)
    p = tmp_path / "code.placement"
    write_placement(placement, p)
    lines = p.read_text().splitlines()
    lines[0] = "nu_actual 1/2024"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="inconsistent"):
        read_placement(p)


def test_config_parsing():
    text = """
    # channel block
    channel = awgn-qpsk   # trailing comment
    grid = 1.0, 1.5 ,2.0
    note = a=b stays intact
    """
    cfg = parse_config(text)
    assert cfg["channel"] == "awgn-qpsk"
    assert cfg["grid"] == "1.0, 1.5 ,2.0"
    assert cfg["note"] == "a=b stays intact"


def test_config_rejects_bad_lines():
    with pytest.raises(ValueError, match="key = value"):
        parse_config("just words\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ValueError, match="empty key"):
        parse_config("= 3\n")


def _sample_rows():
    return [
        {"param": 1.5, "trials": 1000, "block_errors": 100, "bit_errors": 4321,
         "bler": 0.1, "ber": 4321 / 498000, "ci_lo": 0.08, "ci_hi": 0.12,
         "mean_iters": 4.25, "op_count": 123456},
        {"param": 2.0, "trials": 50000, "block_errors": 100, "bit_errors": 999,
         "bler": 0.002, "ber": 999 / 24900000, "ci_lo": 0.0016, "ci_hi": 0.0024,
         "mean_iters": 2.0, "op_count": 9999999},
    ]


def test_csv_round_trip(tmp_path):
    p = tmp_path / "out.csv"
    rows = _sample_rows()
    write_result_csv(rows, p)
    text = p.read_text()
    assert text.splitlines()[0].startswith("#")
    assert text.splitlines()[1] == ",".join(CSV_SCHEMA)
    back = read_result_csv(p)
    for orig, parsed in zip(rows, back):
        for field in CSV_SCHEMA:
            assert parsed[field] == orig[field]


def test_csv_floats_round_trip_exactly():
    rows = _sample_rows()
    text = format_result_rows(rows)
    cell = text.splitlines()[2].split(",")[5]
    assert float(cell) == rows[0]["ber"]


def test_csv_rejects_foreign_schema(tmp_path):
    p = tmp_path / "out.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="schema"):
        read_result_csv(p)


def test_code_hash_distinguishes():
    a = np.eye(4, dtype=np.uint8)
    b = a.copy()
    b[0, 1] = 1
    assert code_identity_hash(a) == code_identity_hash(np.eye(4, dtype=np.uint8))
    assert code_identity_hash(a) != code_identity_hash(b)
    assert len(code_identity_hash(a, b)) == 16
