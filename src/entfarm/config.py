"""Experiment configuration: file format, defaults, env overrides, sweeps.

The on-disk format is flat key=value INI with three sections.  Every key
has a documented default; an absent file means "all defaults".  Values can
be overridden, in order of increasing precedence, by the config file, by
ENTFARM_<SECTION>_<KEY> environment variables, and by command-line flags.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from entfarm import cavity


class ConfigError(ValueError):
    """A configuration file, env override, or flag failed validation."""


ENV_PREFIX = "ENTFARM_"

# every known key with its default literal; blank means "derived later"
DEFAULTS: dict[str, dict[str, str]] = {
    "cavity": {
        "length": "8.0",
        "coupling": "0.01",
        "detector_frequency": repr(math.pi / 8.0),
        "x1": "",  # blank: length / 3
        "x2": "",  # blank: 2 length / 3
        "cycle_time": "20.0",
        "modes": "128",
        "window": "",  # blank: keep all modes; "default": five lowest; number: width
    },
    "run": {
        "temperature": "0.0",
        "n_cycles": "500",
        "log_base": "e",
    },
    "output": {
        "directory": ".",
    },
}

_DOC = """\
# Experiment configuration.  Any key may be omitted; the values below are
# the defaults.  Environment variables ENTFARM_<SECTION>_<KEY> override the
# file; command-line flags override both.
#
# [cavity]
#   length              cavity size (detector spacing derives from it)
#   coupling            detector-field coupling strength
#   detector_frequency  identical for both detectors; default is pi/8
#   x1, x2              detector positions; blank means length/3 and 2*length/3
#   cycle_time          duration of one extraction cycle
#   modes               number of lowest field modes retained
#   window              blank keeps all of them; "default" keeps the five
#                       lowest; a number keeps modes within that distance of
#                       the detector frequency
# [run]
#   temperature         initial field temperature; 0 means vacuum
#   n_cycles            cycles to simulate
#   log_base            e or 2: entropies and log-negativities are written
#                       in nats or in bits; the library computes in nats
# [output]
#   directory           where CSV and plot scripts are written
"""


@dataclass(frozen=True)
class ExperimentConfig:
    length: float = 8.0
    coupling: float = 0.01
    detector_frequency: float = math.pi / 8.0
    x1: float | None = None
    x2: float | None = None
    cycle_time: float = 20.0
    modes: int = 128
    window: str = ""
    temperature: float = 0.0
    n_cycles: int = 500
    log_base: str = "e"
    directory: str = "."

    def __post_init__(self):
        if self.modes < 1:
            raise ConfigError(f"[cavity] modes: need at least 1, got {self.modes}")
        if self.n_cycles < 1:
            raise ConfigError(f"[run] n_cycles: need at least 1, got {self.n_cycles}")
        if self.temperature < 0.0:
            raise ConfigError(f"[run] temperature: must be >= 0, got {self.temperature}")
        if self.log_base not in ("e", "2"):
            raise ConfigError(f"[run] log_base: must be e or 2, got {self.log_base!r}")
        if self.window not in ("", "default"):
            try:
                float(self.window)
            except ValueError:
                raise ConfigError(
                    "[cavity] window: must be blank, 'default', or a number, got "
                    f"{self.window!r}"
                )

    def cavity_config(self) -> cavity.CavityConfig:
        try:
            base = cavity.standard_config(
                self.modes,
                length=self.length,
                coupling=self.coupling,
                detector_frequency=self.detector_frequency,
                x1=self.x1,
                x2=self.x2,
                cycle_time=self.cycle_time,
            )
        except ValueError as exc:
            raise ConfigError(f"[cavity] {exc}")
        if not self.window:
            return base
        width = None if self.window == "default" else float(self.window)
        try:
            return cavity.resonant_window(base, width)
        except ValueError as exc:
            raise ConfigError(f"[cavity] window: {exc}")

    @property
    def log_base_value(self) -> float:
        return math.e if self.log_base == "e" else 2.0


_FIELD_BY_KEY = {
    ("cavity", "length"): "length",
    ("cavity", "coupling"): "coupling",
    ("cavity", "detector_frequency"): "detector_frequency",
    ("cavity", "x1"): "x1",
    ("cavity", "x2"): "x2",
    ("cavity", "cycle_time"): "cycle_time",
    ("cavity", "modes"): "modes",
    ("cavity", "window"): "window",
    ("run", "temperature"): "temperature",
    ("run", "n_cycles"): "n_cycles",
    ("run", "log_base"): "log_base",
    ("output", "directory"): "directory",
}

_FLOAT_KEYS = {"length", "coupling", "detector_frequency", "cycle_time", "temperature"}
_OPTIONAL_FLOAT_KEYS = {"x1", "x2"}
_INT_KEYS = {"modes", "n_cycles"}


def _convert(section: str, key: str, raw: str):
    field = _FIELD_BY_KEY[(section, key)]
    raw = raw.strip()
    try:
        if field in _FLOAT_KEYS:
            return field, float(raw)
        if field in _OPTIONAL_FLOAT_KEYS:
            return field, (None if raw == "" else float(raw))
        if field in _INT_KEYS:
            return field, int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}")
    return field, raw


def load_config(path: str | None = None, environ=None) -> ExperimentConfig:
    """Read configuration from a file (optional) plus environment overrides."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh, source=path)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"config parse failure: {exc}")
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    environ = os.environ if environ is None else environ
    for name, value in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX) :].lower()
        section, _, key = rest.partition("_")
        if (section, key) not in _FIELD_BY_KEY:
            raise ConfigError(f"unrecognized environment override {name}")
        parser[section][key] = value
    fields = {}
    for (section, key), _field in _FIELD_BY_KEY.items():
        field, value = _convert(section, key, parser[section][key])
        fields[field] = value
    return ExperimentConfig(**fields)


def dump_config(config: ExperimentConfig) -> str:
    """Serialize to INI text that load_config parses back identically."""
    parser = configparser.ConfigParser(interpolation=None)
    rendered: dict[str, dict[str, str]] = {s: {} for s in DEFAULTS}
    for (section, key), field in _FIELD_BY_KEY.items():
        value = getattr(config, field)
        if value is None:
            text = ""
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        rendered[section][key] = text
    parser.read_dict(rendered)
    out = io.StringIO()
    out.write(_DOC)
    parser.write(out)
    return out.getvalue()


def apply_flag_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """Fold recognized command-line flags into the config (highest precedence)."""
    updates = {}
    if getattr(args, "modes", None) is not None:
        updates["modes"] = args.modes
    if getattr(args, "window", None) is not None:
        updates["window"] = args.window
    if getattr(args, "log_base", None) is not None:
        updates["log_base"] = args.log_base
    if getattr(args, "out", None) is not None:
        updates["directory"] = args.out
    if not updates:
        return config
    try:
        return replace(config, **updates)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# parameter sweeps


_SWEEP_FIELDS = {"lambda": "coupling", "t_f": "cycle_time", "temperature": "temperature"}


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if self.parameter not in _SWEEP_FIELDS:
            raise ConfigError(
                f"sweep parameter must be one of {sorted(_SWEEP_FIELDS)}, got "
                f"{self.parameter!r}"
            )
        if self.points < 1:
            raise ConfigError(f"sweep needs at least one point, got {self.points}")
        if self.hi < self.lo:
            raise ConfigError(f"sweep grid is not monotone: [{self.lo}, {self.hi}]")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and self.lo <= 0.0:
            raise ConfigError("log-scale sweep requires a positive lower bound")

    def grid(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.lo])
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)

    def apply(self, config: ExperimentConfig, value: float) -> ExperimentConfig:
        return replace(config, **{_SWEEP_FIELDS[self.parameter]: float(value)})
