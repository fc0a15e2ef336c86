"""Checks on the CSV tables a sweep writes.

A table passes when it matches the stored reference cell by cell within
RTOL, or, for a sumrate seed without a reference, when it satisfies the
sum-rate invariants.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# Relative tolerance, applied to each cell plus its column's largest
# magnitude.  Reductions that are not exactly rounded (BLAS Gram) moved
# cells by 9e-10 relative; ZF residuals near collinearity amplify that by
# up to ~1e3, and dB columns turn it into an absolute error.  A wrong
# formula (an extra factor, an off-by-one element count at M = 1000) moves
# a cell by 1e-4 or more.
RTOL = 1e-6

MISSING = ("", "-inf")


def read_table(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _value(cell: str) -> float | None:
    """Cell as a float; -inf and empty both mean 'no value' and compare equal."""
    return None if cell.strip() in MISSING else float(cell)


def compare(path, reference) -> list[str]:
    """Problems found comparing the table at path with the reference table."""
    header, rows = read_table(path)
    ref_header, ref_rows = read_table(reference)
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            return [f"row {i} has {len(row)} cells, header has {len(header)}"]
    try:
        got = [[_value(c) for c in row] for row in rows]
    except ValueError as exc:
        return [f"unparsable cell: {exc}"]
    want = [[_value(c) for c in row] for row in ref_rows]
    problems = []
    for col, name in enumerate(header):
        scale = max(
            (abs(r[col]) for r in want if r[col] is not None and math.isfinite(r[col])),
            default=0.0,
        )
        for i, (g_row, w_row) in enumerate(zip(got, want)):
            g, w = g_row[col], w_row[col]
            if g is None or w is None or not (math.isfinite(g) and math.isfinite(w)):
                ok = g == w
            else:
                ok = abs(g - w) <= RTOL * (abs(w) + scale)
            if not ok:
                problems.append(f"row {i} {name}: {g!r} != reference {w!r}")
    return problems


def sumrate_invariants(path) -> list[str]:
    """Problems with a sum-rate table: non-finite rates, MMSE below MRC or ZF."""
    header, rows = read_table(path)
    if not rows:
        return ["empty table"]
    problems = []
    models = [c[: -len("_mmse_sumrate_bpshz")] for c in header if c.endswith("_mmse_sumrate_bpshz")]
    if not models:
        return [f"no MMSE sum-rate column in {header}"]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            return [f"row {i} has {len(row)} cells, header has {len(header)}"]
        cells = dict(zip(header, row))
        try:
            values = {k: float(v) for k, v in cells.items()}
        except ValueError as exc:
            return [f"row {i}: unparsable cell: {exc}"]
        bad = [k for k, v in values.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"row {i}: non-finite {bad}")
            continue
        if values["m"] != values["m_y"] * values["m_z"]:
            problems.append(f"row {i}: m != m_y * m_z")
        for model in models:
            rate = {s: values[f"{model}_{s}_sumrate_bpshz"] for s in ("mrc", "zf", "mmse")}
            floor = max(rate["mrc"], rate["zf"])
            if rate["mmse"] < floor - RTOL * abs(floor):
                problems.append(f"row {i} {model}: MMSE {rate['mmse']!r} < max(MRC, ZF) {floor!r}")
            if any(values[f"{model}_{s}_sumrate_stderr_bpshz"] < 0 for s in rate):
                problems.append(f"row {i} {model}: negative standard error")
    return problems


def check(path, reference: Path | None) -> list[str]:
    """Reference comparison when a reference exists, else the sum-rate invariants."""
    if reference is None:
        return sumrate_invariants(path)
    if not reference.is_file():
        return [f"missing reference table {reference.name}"]
    return compare(path, reference)
