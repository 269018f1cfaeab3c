"""Byte-identity of the emitted CSV files and gnuplot scripts.

tests/golden/ holds what each command below writes at 4 field modes and 5
cycles, in nats, and the configuration file that dump_config writes for the
defaults.  A refactor must reproduce every byte.  When an output is
meant to change, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff: for each file whose bytes change, regenerating prints
the changed cells (changed lines for a gnuplot script) and the largest
relative change per column.
"""

import csv
import difflib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from entfarm import cli, config

GOLDEN = Path(__file__).parent / "golden"
ENV = {"ENTFARM_RUN_N_CYCLES": "5", "ENTFARM_CAVITY_MODES": "4"}

# command -> the files it writes, each pinned as tests/golden/<file>
COMMANDS = {
    "trajectory": (["run-cycles"], ("trajectory.csv", "trajectory.gp")),
    "short_cycle": (["short-cycle", "--tf-r", "1.44"], ("short_cycle.csv", "short_cycle.gp")),
    "extinction": (["reproduce-fig", "extinction"], ("extinction.csv", "extinction.gp")),
    "lognegplot": (["reproduce-fig", "lognegplot"], ("lognegplot.csv", "lognegplot.gp")),
    "energyfig": (["reproduce-fig", "energyfig"], ("energyfig.csv", "energyfig.gp")),
    "thermPure": (["reproduce-fig", "thermPure"], ("thermPure.csv", "thermPure.gp")),
    "thermality": (["reproduce-fig", "thermality"], ("thermality.csv", "thermality.gp")),
    "eigtime": (["reproduce-fig", "eigtime"], ("eigtime.csv", "eigtime.gp")),
    "eigcoupling": (["reproduce-fig", "eigcoupling"], ("eigcoupling.csv", "eigcoupling.gp")),
    "ultralong": (["reproduce-fig", "ultralong"], ("ultralong.csv", "ultralong.gp")),
    "sweep": (
        ["sweep", "--param", "lambda", "--min", "0.005", "--max", "0.04",
         "--points", "5", "--scale", "log"],
        ("sweep.csv", "sweep.gp"),
    ),
    "spectrum": (["spectrum"], ("spectrum.csv",)),
    "fixed_point": (["fixed-point"], ("fixed_point.csv", "fixed_point_sigma.csv")),
}
DEFAULT_CONFIG = "default_config.ini"


def _default_config_text() -> str:
    return config.dump_config(config.load_config(None, environ={}))


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_outputs_match_golden_bytes(stem, monkeypatch, tmp_path):
    for name, value in ENV.items():
        monkeypatch.setenv(name, value)
    argv, files = COMMANDS[stem]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    for filename in files:
        expected = (GOLDEN / filename).read_bytes()
        assert (tmp_path / filename).read_bytes() == expected, filename


def test_default_config_dump_matches_golden_bytes():
    assert _default_config_text() == (GOLDEN / DEFAULT_CONFIG).read_text()


def test_changes_lists_moved_cells_and_the_largest_move_per_column():
    old = b"cycle,value,note\n1,2.0,a\n2,4.0,b\n"
    new = b"cycle,value,note\n1,2.0,a\n2,4.4,c\n"
    assert changes("x.csv", old, new) == [
        "row 2 value: 4.0 -> 4.4 (relative 0.1)",
        "row 2 note: b -> c (relative inf)",
        "largest relative change in value: 0.1",
        "largest relative change in note: inf",
    ]
    assert changes("x.csv", old, old) == []
    assert changes("x.gp", b"set a\nplot 1\n", b"set a\nplot 2\n") == ["-plot 1", "+plot 2"]


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _relative_change(old: str, new: str) -> float:
    """|new - old| / |old|; inf when either cell is not a number or old is 0."""
    a, b = _as_float(old), _as_float(new)
    if a is None or b is None or (a == 0.0 and b != 0.0):
        return math.inf
    return 0.0 if a == b else abs(b - a) / abs(a)


def changes(filename: str, old: bytes, new: bytes) -> list[str]:
    """Report lines for one golden file moving from old to new bytes."""
    if not filename.endswith(".csv"):
        return [
            line.rstrip("\n")
            for line in difflib.unified_diff(
                old.decode().splitlines(True), new.decode().splitlines(True), n=0
            )
            if line[:1] in "+-" and line[:3] not in ("+++", "---")
        ]
    old_rows = list(csv.reader(io.StringIO(old.decode())))
    new_rows = list(csv.reader(io.StringIO(new.decode())))
    if len(old_rows) != len(new_rows) or old_rows[:1] != new_rows[:1]:
        return [f"header or row count changed: {len(old_rows)} -> {len(new_rows)} rows"]
    header = new_rows[0]
    report, largest = [], {}
    for i, (before, after) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        for column, a, b in zip(header, before, after):
            if a != b:
                change = _relative_change(a, b)
                largest[column] = max(largest.get(column, 0.0), change)
                report.append(f"row {i} {column}: {a} -> {b} (relative {change:.2g})")
    report += [f"largest relative change in {c}: {v:.2g}" for c, v in largest.items()]
    return report


def regenerate() -> None:
    os.environ.update(ENV)
    GOLDEN.mkdir(exist_ok=True)
    for stem, (argv, files) in COMMANDS.items():
        with tempfile.TemporaryDirectory() as out:
            if cli.main(argv + ["--out", out]) != 0:
                raise SystemExit(f"{stem}: command failed")
            for filename in files:
                _rewrite(GOLDEN / filename, (Path(out) / filename).read_bytes())
    _rewrite(GOLDEN / DEFAULT_CONFIG, _default_config_text().encode())


def _rewrite(path: Path, new: bytes) -> None:
    old = path.read_bytes() if path.exists() else b""
    if old != new:
        print(f"{path.name}: changed")
        for line in changes(path.name, old, new):
            print(f"  {line}")
        path.write_bytes(new)


if __name__ == "__main__":
    sys.exit(regenerate())
