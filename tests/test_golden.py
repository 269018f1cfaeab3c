"""Byte-identity of the emitted CSV files and gnuplot scripts.

tests/golden/ holds what each command below writes at 4 field modes and 5
cycles, in nats.  A refactor must reproduce every byte.  When an output is
meant to change, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff.
"""

import os
import sys
import tempfile
from pathlib import Path

import pytest

from entfarm import cli

GOLDEN = Path(__file__).parent / "golden"
ENV = {"ENTFARM_RUN_N_CYCLES": "5", "ENTFARM_CAVITY_MODES": "4"}

# output stem -> command that writes <stem>.csv and <stem>.gp
COMMANDS = {
    "trajectory": ["run-cycles"],
    "short_cycle": ["short-cycle", "--tf-r", "1.44"],
    "extinction": ["reproduce-fig", "extinction"],
    "lognegplot": ["reproduce-fig", "lognegplot"],
    "energyfig": ["reproduce-fig", "energyfig"],
    "thermPure": ["reproduce-fig", "thermPure"],
    "thermality": ["reproduce-fig", "thermality"],
    "eigtime": ["reproduce-fig", "eigtime"],
    "eigcoupling": ["reproduce-fig", "eigcoupling"],
    "ultralong": ["reproduce-fig", "ultralong"],
}


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_outputs_match_golden_bytes(stem, monkeypatch, tmp_path):
    for name, value in ENV.items():
        monkeypatch.setenv(name, value)
    assert cli.main(COMMANDS[stem] + ["--out", str(tmp_path)]) == 0
    for suffix in (".csv", ".gp"):
        expected = (GOLDEN / (stem + suffix)).read_bytes()
        assert (tmp_path / (stem + suffix)).read_bytes() == expected, stem + suffix


def regenerate() -> None:
    os.environ.update(ENV)
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv in COMMANDS.items():
        with tempfile.TemporaryDirectory() as out:
            if cli.main(argv + ["--out", out]) != 0:
                raise SystemExit(f"{stem}: command failed")
            for suffix in (".csv", ".gp"):
                (GOLDEN / (stem + suffix)).write_bytes((Path(out) / (stem + suffix)).read_bytes())


if __name__ == "__main__":
    sys.exit(regenerate())
