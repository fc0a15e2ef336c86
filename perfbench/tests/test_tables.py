"""The table check accepts rounding-level differences and catches wrong values."""

import csv

from tables import RTOL, check, compare, read_table, sumrate_invariants
from workloads import SUMRATE_REFERENCE_SEEDS, WORKLOADS


def _write(path, header, rows):
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header] + rows)
    return path


def _perturbed(src, dst, row, col, factor):
    header, rows = read_table(src)
    rows[row][col] = repr(float(rows[row][col]) * factor)
    return _write(dst, header, rows)


def test_reference_matches_itself_and_empty_equals_minus_inf(tmp_path):
    ref = WORKLOADS["sinr-m"].reference(0)
    assert compare(ref, ref) == []
    header, rows = read_table(ref)
    assert any("-inf" in row for row in rows)
    blanked = [["" if c == "-inf" else c for c in row] for row in rows]
    assert compare(_write(tmp_path / "t.csv", header, blanked), ref) == []


def test_rounding_passes_and_a_wrong_value_fails(tmp_path):
    ref = WORKLOADS["corr-dist"].reference(0)
    assert compare(_perturbed(ref, tmp_path / "a.csv", 7, 2, 1 + 1e-9), ref) == []
    problems = compare(_perturbed(ref, tmp_path / "b.csv", 7, 2, 1 + 100 * RTOL), ref)
    assert len(problems) == 1 and "row 7" in problems[0]


def test_a_missing_value_or_a_changed_shape_fails(tmp_path):
    ref = WORKLOADS["sinr-m"].reference(0)
    header, rows = read_table(ref)
    assert compare(_write(tmp_path / "short.csv", header, rows[:-1]), ref)
    rows[0][2] = "-inf"
    assert compare(_write(tmp_path / "gap.csv", header, rows), ref)


def test_sumrate_invariants(tmp_path):
    ref = WORKLOADS["sumrate"].reference(0)
    assert sumrate_invariants(ref) == []
    header, rows = read_table(ref)
    zf, mmse = header.index("upw_zf_sumrate_bpshz"), header.index("upw_mmse_sumrate_bpshz")
    rows[2][mmse] = repr(float(rows[2][zf]) * 0.99)
    assert sumrate_invariants(_write(tmp_path / "low.csv", header, rows))
    rows[2][mmse] = "nan"
    assert sumrate_invariants(_write(tmp_path / "nan.csv", header, rows))


def test_held_out_seed_uses_the_invariants(tmp_path):
    held_out = max(SUMRATE_REFERENCE_SEEDS) + 1
    assert WORKLOADS["sumrate"].reference(held_out) is None
    ref = WORKLOADS["sumrate"].reference(0)
    assert check(ref, None) == []
