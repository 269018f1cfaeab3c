"""The public surface and the settable parameters of the library, pinned.

Every public function and class of the library modules is surface that the
commands, the README or the benchmark must need, and every defaulted
parameter of one is an option that tests and benchmarks must cover.  The
lists below are the whole sets; a new name or option, or a removed one,
needs a visible edit here.
"""

import importlib
import inspect

LIBRARY_MODULES = (
    "cavity", "config", "dynamics", "fock", "gaussian", "protocol", "spectral", "thermo"
)

SURFACE = {
    "cavity": [
        "CavityConfig", "standard_config", "resonant_window", "mode_frequencies",
        "joint_frequencies", "coupling_matrix", "hamiltonian_matrix",
        "decoupled_positions", "parity_sectors",
    ],
    "config": [
        "ConfigError", "key_error", "ExperimentConfig", "load_config", "dump_config",
        "apply_flag_overrides", "SweepSpec",
    ],
    "dynamics": [
        "PropagatorAccuracyError", "UnboundedHamiltonianError", "propagator", "propagator_for",
        "propagator_from",
    ],
    "fock": [
        "TooLargeError", "CutoffTooSmallError", "NormDriftError", "FockConfig",
        "oscillator_hamiltonian", "evolve_ground_state", "state_covariance",
        "evolve_and_covariance",
    ],
    "gaussian": [
        "InvalidStateError", "DecompositionError", "apply_symplectic_form",
        "vacuum_state", "thermal_state", "thermal_symplectic_eigenvalues", "mode_count",
        "reduce_modes", "symplectic_eigenvalues", "assert_physical", "williamson_normal_form",
        "check_symplectic", "purity", "entropy_of_spectrum", "von_neumann_entropy",
        "block_traces", "energy_from_traces", "energy", "Partition", "StateAnalysis",
        "ppt_minimum_eigenvalue", "log_negativity",
    ],
    "protocol": [
        "GrowthOverflowError", "AffineMap", "CycleBlocks", "CycleStates", "CycleRecord",
        "Trajectory", "block_decompose", "blocks_for", "full_cycle", "run_cycles",
    ],
    "spectral": [
        "SpectralFailureError", "NoUniqueFixedPointError", "FieldSpectrum", "field_spectrum",
        "timescales", "FixedPointResult", "fixed_point", "power_map", "ExtinctionScan",
        "extinction_scan",
    ],
    "thermo": [
        "DivergentLogDensityError", "NoThermalMatchError", "UndefinedEstimatorError",
        "QuadraticLogDensity", "ThermalFit", "log_density", "relative_entropy",
        "effective_temperature", "thermality_estimator", "thermality_of",
    ],
}

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
    "protocol.run_cycles(sigma_f0)",
    "protocol.run_cycles(n_cycles)",
    "protocol.run_cycles(observables)",
    "spectral.extinction_scan(sigma_f0)",
]


def public_callables():
    """(module name, name, object) for each function and class a library module
    defines under a public name; a re-exported name counts only in its own module."""
    for module_name in LIBRARY_MODULES:
        module = importlib.import_module(f"entfarm.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if callable(obj):
                yield module_name, name, obj


def defaulted_parameters() -> list[str]:
    """module.name(parameter) for each defaulted parameter of a public
    function or non-exception class."""
    found = []
    for module_name, name, obj in public_callables():
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        found += [
            f"{module_name}.{name}({p.name})"
            for p in inspect.signature(obj).parameters.values()
            if p.default is not inspect.Parameter.empty
        ]
    return found


def test_library_surface_is_the_pinned_set():
    surface = {module_name: [] for module_name in LIBRARY_MODULES}
    for module_name, name, _ in public_callables():
        surface[module_name].append(name)
    assert {m: sorted(names) for m, names in surface.items()} == {
        m: sorted(names) for m, names in SURFACE.items()
    }


def test_library_options_are_the_pinned_set():
    assert sorted(defaulted_parameters()) == sorted(PINNED)
