"""Byte-identity of the emitted CSV files and gnuplot scripts.

tests/golden/ holds what each command below writes at 4 field modes and 5
cycles, in nats, and the configuration file that dump_config writes for the
defaults.  A refactor must reproduce every byte.  When an output is
meant to change, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff.
"""

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


def regenerate() -> None:
    os.environ.update(ENV)
    GOLDEN.mkdir(exist_ok=True)
    for stem, (argv, files) in COMMANDS.items():
        with tempfile.TemporaryDirectory() as out:
            if cli.main(argv + ["--out", out]) != 0:
                raise SystemExit(f"{stem}: command failed")
            for filename in files:
                (GOLDEN / filename).write_bytes((Path(out) / filename).read_bytes())
    (GOLDEN / DEFAULT_CONFIG).write_text(_default_config_text())


if __name__ == "__main__":
    sys.exit(regenerate())
