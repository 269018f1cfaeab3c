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
from dataclasses import dataclass, fields, replace

import numpy as np

from entfarm import cavity


class ConfigError(ValueError):
    """A configuration file, env override, or flag failed validation."""


ENV_PREFIX = "ENTFARM_"
LOG_BASES = ("e", "2")

# the INI section of each key; a key is the name of an ExperimentConfig field,
# which states its type and default
SECTIONS: dict[str, tuple[str, ...]] = {
    "cavity": (
        "length", "coupling", "detector_frequency", "x1", "x2", "cycle_time", "modes", "window"
    ),
    "run": ("temperature", "n_cycles", "log_base"),
    "output": ("directory",),
}
_SECTION_OF = {key: section for section, keys in SECTIONS.items() for key in keys}


def key_error(key: str, problem: str) -> ConfigError:
    """A ConfigError that names the key and its section: "[section] key: problem"."""
    return ConfigError(f"[{_SECTION_OF[key]}] {key}: {problem}")


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
    """One run's settings.  Each field is a configuration key of the same name:
    its annotation gives the key's type and its value the key's default."""

    length: float = cavity.CavityConfig.length
    coupling: float = cavity.CavityConfig.coupling
    detector_frequency: float = cavity.CavityConfig.detector_frequency
    x1: float | None = cavity.CavityConfig.x1
    x2: float | None = cavity.CavityConfig.x2
    cycle_time: float = cavity.CavityConfig.cycle_time
    modes: int = cavity.DEFAULT_N_MODES
    window: str = ""
    temperature: float = 0.0
    n_cycles: int = 500
    log_base: str = "e"
    directory: str = "."

    def __post_init__(self):
        if self.modes < 1:
            raise key_error("modes", f"need at least 1, got {self.modes}")
        if self.n_cycles < 1:
            raise key_error("n_cycles", f"need at least 1, got {self.n_cycles}")
        if not 0.0 <= self.temperature < math.inf:
            raise key_error("temperature", f"must be finite and >= 0, got {self.temperature}")
        if self.log_base not in LOG_BASES:
            raise key_error("log_base", f"must be e or 2, got {self.log_base!r}")
        if self.window not in ("", "default"):
            try:
                width = float(self.window)
            except ValueError:
                width = math.nan
            if not math.isfinite(width):
                raise key_error(
                    "window",
                    f"must be blank, 'default', or a finite number, got {self.window!r}",
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
            raise key_error("window", str(exc))

    @property
    def log_base_value(self) -> float:
        return math.e if self.log_base == "e" else 2.0


def _optional_float(raw: str) -> float | None:
    return None if raw == "" else float(raw)


# the parser of each key, from its field's annotation
_PARSERS = {"float": float, "float | None": _optional_float, "int": int, "str": str}
_PARSER_OF = {field.name: _PARSERS[field.type] for field in fields(ExperimentConfig)}


def load_config(path: str | None = None, environ=None) -> ExperimentConfig:
    """Read configuration from a file (optional) plus environment overrides."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({section: {} for section in SECTIONS})
    if path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh, source=path)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"config parse failure: {exc}")
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    environ = os.environ if environ is None else environ
    for name, value in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        section, _, key = name[len(ENV_PREFIX) :].lower().partition("_")
        if key not in SECTIONS.get(section, ()):
            raise ConfigError(f"unrecognized environment override {name}")
        parser[section][key] = value
    values = {}
    for key, section in _SECTION_OF.items():
        if key in parser[section]:
            raw = parser[section][key].strip()
            try:
                values[key] = _PARSER_OF[key](raw)
            except ValueError:
                raise key_error(key, f"cannot parse {raw!r}")
    return ExperimentConfig(**values)


def _render(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def dump_config(config: ExperimentConfig) -> str:
    """Serialize to INI text that load_config parses back identically."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(
        {
            section: {key: _render(getattr(config, key)) for key in keys}
            for section, keys in SECTIONS.items()
        }
    )
    out = io.StringIO()
    out.write(_DOC)
    parser.write(out)
    return out.getvalue()


# command-line flag (argparse dest) -> the key it sets
_FLAG_KEYS = {"modes": "modes", "window": "window", "log_base": "log_base", "out": "directory"}


def apply_flag_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """Fold recognized command-line flags into the config (highest precedence)."""
    updates = {
        key: getattr(args, flag)
        for flag, key in _FLAG_KEYS.items()
        if getattr(args, flag, None) is not None
    }
    return replace(config, **updates)


# ---------------------------------------------------------------------------
# parameter sweeps


# sweep parameter name -> the key it sets; there is no temperature sweep,
# since the cycle map's spectrum does not depend on the start temperature
SWEEP_FIELDS = {"lambda": "coupling", "t_f": "cycle_time"}
SWEEP_SCALES = ("linear", "log")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if self.parameter not in SWEEP_FIELDS:
            raise ConfigError(
                f"sweep parameter must be one of {sorted(SWEEP_FIELDS)}, got "
                f"{self.parameter!r}"
            )
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError(f"sweep bounds must be finite: [{self.lo}, {self.hi}]")
        if self.points < 1:
            raise ConfigError(f"sweep needs at least one point, got {self.points}")
        if self.hi < self.lo:
            raise ConfigError(f"sweep grid is not monotone: [{self.lo}, {self.hi}]")
        if self.scale not in SWEEP_SCALES:
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
        return replace(config, **{SWEEP_FIELDS[self.parameter]: float(value)})
