"""Tests for configuration parsing, defaults, overrides, and sweeps."""

import configparser
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from entfarm import config as config_mod
from entfarm.config import ConfigError, ExperimentConfig, SweepSpec


def test_defaults_without_file():
    cfg = config_mod.load_config(None, environ={})
    assert cfg == ExperimentConfig()
    assert cfg.coupling == 0.01
    assert cfg.length == 8.0
    assert cfg.detector_frequency == pytest.approx(math.pi / 8.0)
    assert cfg.modes == 128
    assert cfg.temperature == 0.0
    assert cfg.log_base == "e"


def test_round_trip_is_identity():
    cfg = ExperimentConfig(
        length=6.0,
        coupling=0.02,
        x1=1.5,
        cycle_time=21.0,
        modes=16,
        window="default",
        temperature=0.5,
        n_cycles=42,
        log_base="2",
        directory="out",
    )
    text = config_mod.dump_config(cfg)
    reparsed = _load_text(text)
    assert reparsed == cfg


def _load_text(text, environ=None, tmp_path=None):
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".ini")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        return config_mod.load_config(path, environ=environ or {})
    finally:
        os.unlink(path)


def test_file_values_override_defaults(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[cavity]\ncoupling = 0.03\nmodes = 32\n[run]\nn_cycles = 9\n")
    cfg = config_mod.load_config(str(path), environ={})
    assert cfg.coupling == 0.03
    assert cfg.modes == 32
    assert cfg.n_cycles == 9
    assert cfg.length == 8.0


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "exp.ini"
    for text, key in (
        ("[cavity]\ncoupling_strength = 0.03\n", "coupling_strength"),
        ("[run]\nenergy_convention = paper\n", "energy_convention"),
        ("[run]\nsnapshot_stride = geometric\n", "snapshot_stride"),
    ):
        path.write_text(text)
        with pytest.raises(ConfigError, match=key):
            config_mod.load_config(str(path), environ={})


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[detector]\nfrequency = 1\n")
    with pytest.raises(ConfigError, match="detector"):
        config_mod.load_config(str(path), environ={})


def test_bad_value_names_section_and_key(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[run]\nn_cycles = soon\n")
    with pytest.raises(ConfigError, match=r"\[run\] n_cycles"):
        config_mod.load_config(str(path), environ={})


def test_env_overrides_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[cavity]\ncoupling = 0.03\n")
    cfg = config_mod.load_config(
        str(path), environ={"ENTFARM_CAVITY_COUPLING": "0.04", "ENTFARM_RUN_N_CYCLES": "3"}
    )
    assert cfg.coupling == 0.04
    assert cfg.n_cycles == 3


def test_unrecognized_env_override_rejected():
    with pytest.raises(ConfigError, match="ENTFARM_CAVITY_GAIN"):
        config_mod.load_config(None, environ={"ENTFARM_CAVITY_GAIN": "2"})


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_cycles", 0),
        ("modes", 0),
        ("temperature", -0.1),
        ("temperature", math.nan),
        ("temperature", math.inf),
        ("log_base", "10"),
        ("window", "wide"),
        ("window", "nan"),
        ("window", "inf"),
    ],
)
def test_validation_rejects_bad_fields(field, value):
    with pytest.raises(ConfigError):
        ExperimentConfig(**{field: value})


def test_every_field_is_a_key_in_exactly_one_section():
    keys = [key for keys in config_mod.SECTIONS.values() for key in keys]
    assert sorted(keys) == sorted(field.name for field in fields(ExperimentConfig))


def test_every_key_is_documented_and_dumped():
    dumped = config_mod.dump_config(ExperimentConfig())
    for field in fields(ExperimentConfig):
        assert re.search(rf"^#.*\b{field.name}\b", config_mod._DOC, re.M), field.name
        assert re.search(rf"^{field.name} = ", dumped, re.M), field.name


def test_every_key_has_an_environment_override():
    cfg = ExperimentConfig(
        length=6.0,
        coupling=0.02,
        detector_frequency=0.5,
        x1=1.5,
        x2=4.5,
        cycle_time=21.0,
        modes=16,
        window="default",
        temperature=0.5,
        n_cycles=42,
        log_base="2",
        directory="out",
    )
    assert all(getattr(cfg, field.name) != field.default for field in fields(cfg))
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(config_mod.dump_config(cfg))
    environ = {
        f"ENTFARM_{section.upper()}_{key.upper()}": value
        for section in ini.sections()
        for key, value in ini[section].items()
    }
    assert len(environ) == len(fields(cfg))
    assert config_mod.load_config(None, environ=environ) == cfg


def test_cavity_config_mode_policies():
    full = ExperimentConfig(modes=8).cavity_config()
    assert full.mode_numbers == tuple(range(1, 9))
    windowed = ExperimentConfig(modes=8, window="default").cavity_config()
    assert windowed.mode_numbers == (1, 2, 3, 4, 5)
    narrow = ExperimentConfig(modes=8, window="0.1").cavity_config()
    # pi/8 is the fundamental; a 0.1-wide window keeps only mode 1
    assert narrow.mode_numbers == (1,)


def test_sweep_grids():
    lin = SweepSpec("t_f", 1.0, 33.0, 33, "linear")
    np.testing.assert_allclose(lin.grid(), np.arange(1.0, 34.0))
    log = SweepSpec("lambda", 0.005, 0.04, 7, "log")
    grid = log.grid()
    assert grid[0] == pytest.approx(0.005)
    assert grid[-1] == pytest.approx(0.04)
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, ratios[0])
    single = SweepSpec("lambda", 0.01, 0.01, 1)
    np.testing.assert_allclose(single.grid(), [0.01])


def test_sweep_validation():
    with pytest.raises(ConfigError):
        SweepSpec("mass", 0.0, 1.0, 2)
    with pytest.raises(ConfigError):
        SweepSpec("lambda", 1.0, 0.5, 2)
    with pytest.raises(ConfigError):
        SweepSpec("lambda", 0.0, 1.0, 2, "log")
    with pytest.raises(ConfigError):
        SweepSpec("lambda", 0.1, 1.0, 0)
    for lo, hi in ((math.nan, math.nan), (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec("lambda", lo, hi, 2)


def test_sweep_apply_targets_right_field():
    cfg = ExperimentConfig()
    assert SweepSpec("lambda", 0.0, 1.0, 2).apply(cfg, 0.02).coupling == 0.02
    assert SweepSpec("t_f", 1.0, 2.0, 2).apply(cfg, 21.0).cycle_time == 21.0
    with pytest.raises(ConfigError, match="sweep parameter"):
        SweepSpec("temperature", 0.0, 1.0, 2)
