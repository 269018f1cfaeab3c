"""Compare an op's outputs with the reference outputs stored for it.

References live under `reference/<size>/<kind>/<log base>/`.  A base-2 file
identical to its base-e twin is stored once, under `e/`.  Tolerances are
per file and column in `reference/tolerances.json`, with the reason for
each under its `_why` key: a cell matches when it
equals the reference text, when both read as NaN, or when both are numbers
with |actual - reference| <= atol + rtol * |reference|.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

STDOUT_FILE = "stdout.txt"
_PUNCTUATION = "(),:;"


def reference_file(ref_root: Path, size: str, kind: str, log_base: str, name: str) -> Path:
    path = ref_root / size / kind / log_base / name
    if not path.exists():
        path = ref_root / size / kind / "e" / name
    return path


def load_tolerances(ref_root: Path) -> dict:
    with open(ref_root / "tolerances.json") as fh:
        return json.load(fh)


def _tolerance(tolerances: dict, name: str, column: str) -> tuple[float, float]:
    table = tolerances.get(name, {})
    rtol, atol = table.get(column, table.get("*", tolerances["*"]["*"]))
    return float(rtol), float(atol)


def _number(text: str) -> float:
    """A float from its text, also when written as a numpy repr `np.float64(x)`."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _cell_matches(actual: str, reference: str, rtol: float, atol: float) -> bool:
    if actual == reference:
        return True
    try:
        a, r = _number(actual), _number(reference)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(r):
        return math.isnan(a) and math.isnan(r)
    return abs(a - r) <= atol + rtol * abs(r)


def compare_csv(actual: Path, reference: Path, tolerances: dict) -> list[str]:
    """Mismatch messages; empty when every cell is within tolerance."""
    if not actual.exists():
        return [f"{actual.name}: missing"]
    with open(actual, newline="") as fh:
        got = list(csv.reader(fh))
    with open(reference, newline="") as fh:
        want = list(csv.reader(fh))
    if not got or got[0] != want[0]:
        return [f"{actual.name}: header {got[:1]} != {want[0]}"]
    if len(got) != len(want):
        return [f"{actual.name}: {len(got) - 1} rows, reference has {len(want) - 1}"]
    header = want[0]
    limits = [_tolerance(tolerances, actual.name, column) for column in header]
    problems = []
    for line, (row, ref_row) in enumerate(zip(got[1:], want[1:]), start=2):
        if len(row) != len(ref_row):
            problems.append(f"{actual.name}:{line}: {len(row)} cells, reference has {len(ref_row)}")
            continue
        for column, cell, ref_cell, (rtol, atol) in zip(header, row, ref_row, limits):
            if not _cell_matches(cell, ref_cell, rtol, atol):
                problems.append(f"{actual.name}:{line}:{column}: {cell!r} != {ref_cell!r}")
    return problems


def compare_text(actual: str, reference: str, tolerances: dict) -> list[str]:
    """Token-wise comparison of printed text; numbers use the file tolerance."""
    rtol, atol = _tolerance(tolerances, STDOUT_FILE, "*")
    got, want = actual.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return [f"stdout: {len(got)} lines, reference has {len(want)}"]
    problems = []
    for line, (g, w) in enumerate(zip(got, want), start=1):
        g_tokens, w_tokens = re.split(r"\s+", g.strip()), re.split(r"\s+", w.strip())
        ok = len(g_tokens) == len(w_tokens) and all(
            _cell_matches(a.strip(_PUNCTUATION), r.strip(_PUNCTUATION), rtol, atol)
            for a, r in zip(g_tokens, w_tokens)
        )
        if not ok:
            problems.append(f"stdout:{line}: {g!r} != {w!r}")
    return problems


def count_cells(path: Path, columns) -> int:
    """Non-empty cells of the named columns: the diagnostic values written."""
    if not columns or not path.exists():
        return 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return sum(1 for row in rows for column in columns if row.get(column))
