"""The settable parameters of the library, pinned.

Every defaulted parameter of a public function or class of the library
modules is an option that tests and benchmarks must cover.  The list below
is the whole set; a new option, or a removed one, needs a visible edit here.
"""

import importlib
import inspect

LIBRARY_MODULES = (
    "cavity", "config", "dynamics", "fock", "gaussian", "protocol", "spectral", "thermo"
)

PINNED = [
    "cavity.CavityConfig(length)",
    "cavity.CavityConfig(coupling)",
    "cavity.CavityConfig(detector_frequency)",
    "cavity.CavityConfig(x1)",
    "cavity.CavityConfig(x2)",
    "cavity.CavityConfig(cycle_time)",
    "cavity.CavityConfig(mode_numbers)",
    "cavity.standard_config(n_modes)",
    "cavity.resonant_window(width)",
    "config.ExperimentConfig(length)",
    "config.ExperimentConfig(coupling)",
    "config.ExperimentConfig(detector_frequency)",
    "config.ExperimentConfig(x1)",
    "config.ExperimentConfig(x2)",
    "config.ExperimentConfig(cycle_time)",
    "config.ExperimentConfig(modes)",
    "config.ExperimentConfig(window)",
    "config.ExperimentConfig(temperature)",
    "config.ExperimentConfig(n_cycles)",
    "config.ExperimentConfig(log_base)",
    "config.ExperimentConfig(directory)",
    "config.load_config(path)",
    "config.load_config(environ)",
    "config.SweepSpec(scale)",
    "fock.FockConfig(cutoff)",
    "gaussian.energy_from_traces(convention)",
    "gaussian.energy(convention)",
    "gaussian.StateAnalysis(groups)",
    "protocol.run_cycles(sigma_f0)",
    "protocol.run_cycles(n_cycles)",
    "protocol.run_cycles(observables)",
    "spectral.extinction_scan(sigma_f0)",
]


def defaulted_parameters() -> list[str]:
    """module.name(parameter) for each defaulted parameter.

    Counts the functions and the non-exception classes each module defines
    under a public name; a re-exported name counts only in its own module.
    """
    found = []
    for module_name in LIBRARY_MODULES:
        module = importlib.import_module(f"entfarm.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, BaseException)):
                continue
            found += [
                f"{module_name}.{name}({p.name})"
                for p in inspect.signature(obj).parameters.values()
                if p.default is not inspect.Parameter.empty
            ]
    return found


def test_library_options_are_the_pinned_set():
    assert sorted(defaulted_parameters()) == sorted(PINNED)
