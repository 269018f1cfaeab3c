"""Command-line driver: cycle runs, fixed points, sweeps, figure data.

Every subcommand reads an optional INI config (see entfarm.config), applies
environment and flag overrides, writes CSV files plus gnuplot scripts into
the output directory, and exits 0 on success, 2 on configuration problems,
3 on numerical failures.  Error lines are prefixed "error:" on stderr.
Outputs are deterministic: on one host at one BLAS thread count the same
configuration produces bit-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from dataclasses import replace

import numpy as np

from entfarm import cavity, dynamics, fock, gaussian, protocol, spectral, thermo
from entfarm import config as config_mod
from entfarm.config import ConfigError, ExperimentConfig, SweepSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (
    gaussian.InvalidStateError,
    gaussian.DecompositionError,
    dynamics.PropagatorAccuracyError,
    dynamics.UnboundedHamiltonianError,
    spectral.SpectralFailureError,
    spectral.NoUniqueFixedPointError,
    spectral.GrowthOverflowError,
    fock.TooLargeError,
    fock.CutoffTooSmallError,
    fock.NormDriftError,
    thermo.DivergentLogDensityError,
    thermo.NoThermalMatchError,
    thermo.UndefinedEstimatorError,
)


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain digits for numpy scalars too
    return str(value)


def _in_unit(cfg: ExperimentConfig, nats):
    """An entropy or log-negativity, computed in nats, in the configured unit."""
    return None if nats is None else nats / math.log(cfg.log_base_value)


def _warn_blank(columns: str, exc: Exception) -> None:
    print(f"warning: {columns} left blank: {type(exc).__name__}: {exc}", file=sys.stderr)


def _gnuplot(name: str, ylabel: str, plots: list[str], extra: str = "") -> str:
    lines = [
        f"# gnuplot script; run as: gnuplot {name}.gp",
        "set datafile separator ','",
        "set terminal pngcairo size 900,600",
        f"set output '{name}.png'",
        "set xlabel 'cycle'",
        f"set ylabel '{ylabel}'",
        "set key top right",
    ]
    if extra:
        lines.append(extra)
    lines.append("plot " + ", \\\n     ".join(plots))
    return "\n".join(lines) + "\n"


def _initial_field(cfg: ExperimentConfig, cav: cavity.CavityConfig):
    if cfg.temperature == 0.0:
        return None
    freqs = cavity.mode_frequencies(cav)
    return gaussian.thermal_state(freqs, cfg.temperature)


def _load(args) -> ExperimentConfig:
    cfg = config_mod.load_config(getattr(args, "config", None))
    cfg = config_mod.apply_flag_overrides(cfg, args)
    try:
        os.makedirs(cfg.directory, exist_ok=True)
    except OSError as exc:
        raise config_mod.key_error("directory", str(exc))
    return cfg


def _write(cfg: ExperimentConfig, filename: str, header=None, rows=(), text: str = "") -> str:
    """Write a CSV of header and rows, or text when there is no header; return its path.

    This is the one place an output file is opened.  A file that cannot be
    written is a configuration error of the output directory.
    """
    path = os.path.join(cfg.directory, filename)
    try:
        with open(path, "w", newline="") as fh:
            if header is None:
                fh.write(text)
            else:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows([_fmt(v) for v in row] for row in rows)
    except OSError as exc:
        raise config_mod.key_error("directory", str(exc))
    return path


def _write_all(cfg: ExperimentConfig, *files: tuple) -> list[str]:
    """_write each (filename, header, rows, text) of files; return their paths.

    A command writes all of its files or none: when one cannot be written,
    those this call already wrote are removed before the error is raised.
    """
    paths = []
    try:
        for file in files:
            paths.append(_write(cfg, *file))
    except ConfigError:
        for path in paths:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return paths


def _emit(cfg: ExperimentConfig, name: str, header, rows, script: str, *notes: str) -> None:
    """Write name.csv and its gnuplot script name.gp, and say so with any notes."""
    csv_path, gp_path = _write_all(
        cfg, (f"{name}.csv", header, rows), (f"{name}.gp", None, (), script)
    )
    summary = ", ".join([f"{len(rows)} rows", *notes])
    print(f"wrote {csv_path} and {gp_path} ({summary})")


# ---------------------------------------------------------------------------
# run-cycles


_REL_ENTROPY = "relative_entropy_to_fixed_point"


def _coupled_fixed_point(blocks: protocol.CycleBlocks):
    """Log-density of the fixed point on the coupled modes; None when not computable.

    The decoupled modes sit at their initial state forever on both sides of
    the comparison, so they contribute nothing to the distance; dropping
    them also keeps the reference state mixed (a frozen vacuum mode would
    make its log-density divergent).  Each cycle's field_analysis,
    restricted to the parity sectors, is the field state on the same modes.
    """
    try:
        star = gaussian.StateAnalysis(spectral.fixed_point(blocks.coupled_map).sigma_star)
        star.physical_spectrum  # checked on the Cholesky factor log_density reads
        return thermo.log_density(star)
    except NUMERICAL_ERRORS as exc:
        _warn_blank(_REL_ENTROPY, exc)
        return None


def cmd_run_cycles(args) -> int:
    cfg = _load(args)
    cav = cfg.cavity_config()
    sigma0 = _initial_field(cfg, cav)
    # an unusable Hamiltonian fails here, before any cycle or warning
    blocks = protocol.blocks_for(cav)
    ref = _coupled_fixed_point(blocks)
    observables = dict(protocol.DIAGNOSTICS)
    if ref is not None:
        coupled = [m for sector in blocks.sectors for m in sector]
        observables[_REL_ENTROPY] = lambda s: ref.relative_entropy(
            s.field_analysis.restricted(coupled)
        )
    traj = protocol.run_cycles(
        cav,
        sigma_f0=sigma0,
        n_cycles=cfg.n_cycles,
        observables=observables,
    )
    rows = [
        (
            r.cycle,
            _in_unit(cfg, r.log_negativity),
            r.energy_input,
            r.field_purity,
            r.field_thermality,
            _in_unit(cfg, r.values.get(_REL_ENTROPY)),
        )
        for r in traj.records
    ]
    header = (
        "cycle",
        "log_negativity",
        "energy_input",
        "field_purity",
        "thermality",
        _REL_ENTROPY,
    )
    plots = ["'trajectory.csv' skip 1 using 1:2 with lines title 'per-cycle E_N'"]
    _emit(cfg, "trajectory", header, rows, _gnuplot("trajectory", "log-negativity", plots))
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixed-point


def cmd_fixed_point(args) -> int:
    cfg = _load(args)
    cav = cfg.cavity_config()
    sigma0 = _initial_field(cfg, cav)
    blocks = protocol.blocks_for(cav)
    res = spectral.fixed_point(blocks.coupled_map)
    # the decoupled modes keep their initial state
    frozen = gaussian.vacuum_state(cav.n_field_modes) if sigma0 is None else sigma0
    sigma_star = blocks.whole_field(res.sigma_star, frozen)
    neg = _in_unit(cfg, gaussian.log_negativity(blocks.detector_out(sigma_star)))
    freqs = cavity.mode_frequencies(cav)
    physical = False
    try:
        star = gaussian.StateAnalysis(sigma_star)
        star.physical_spectrum  # raises InvalidStateError unless physical
        physical = True
        purity = star.purity
        thermality = thermo.thermality_of(star, freqs)
    except NUMERICAL_ERRORS as exc:
        _warn_blank("field_purity and thermality", exc)
        purity = math.nan
        thermality = math.nan
    if not physical:
        print(
            "warning: log_negativity was computed from a non-physical fixed point",
            file=sys.stderr,
        )
    columns = ("method", "coupled_dim", "residual", "log_negativity", "field_purity", "thermality")
    row = (res.method, res.sigma_star.shape[0], res.residual, neg, purity, thermality)
    _write_all(
        cfg,
        ("fixed_point.csv", columns, [row]),
        ("fixed_point_sigma.csv", [f"c{j}" for j in range(sigma_star.shape[1])], list(sigma_star)),
    )
    print(
        f"fixed point via {res.method}: residual {res.residual:.3e}, "
        f"fresh-cycle log-negativity {neg:.6e}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum


def _coupled_spectrum(blocks: protocol.CycleBlocks):
    """Spectrum of the cycle map without the decoupled modes, and its timescales."""
    spec = spectral.field_spectrum(blocks.coupled_map)
    return spec, spectral.timescales(spec)


def cmd_spectrum(args) -> int:
    cfg = _load(args)
    blocks = protocol.blocks_for(cfg.cavity_config())
    full = spectral.field_spectrum(blocks.field_map)
    coupled, (conv, inst) = _coupled_spectrum(blocks)
    rows = [
        (label, idx, ev.real, ev.imag, abs(ev))
        for label, spec in (("full", full), ("coupled", coupled))
        for idx, ev in enumerate(spec.eigenvalues)
    ]
    header = ("subspace", "index", "real", "imag", "modulus")
    _write(cfg, "spectrum.csv", header, rows)
    print(f"coupled max modulus: {coupled.max_modulus!r}")
    print(f"convergence cycles: {'-' if conv is None else repr(conv)}")
    print(f"instability cycles: {'-' if inst is None else repr(inst)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _sweep(cfg: ExperimentConfig, spec: SweepSpec, name: str, extra: str):
    """Header, rows and gnuplot script of critical cycles over a sweep.

    Points are solved in grid order, which is ascending, one at a time.
    Each point's propagator is dynamics.propagator_from the previous point's
    (config, propagator), so a cycle-time sweep steps one propagator on
    instead of exponentiating at every point.  That propagator is the one
    matrix a point leaves behind: no name holds a point's blocks, so they
    are freed before the next point's propagator is built.  A point that
    fails, numerically or with an invalid value, records the error in its
    failure column and leaves no propagator, so the next point starts afresh.
    """
    rows, previous = [], None
    for value in spec.grid().tolist():
        try:
            cav = spec.apply(cfg, value).cavity_config()
            previous = cav, dynamics.propagator_from(previous, cav)
            spectrum, (_, instability) = _coupled_spectrum(protocol._blocks_of(*previous))
            log_critical = None if instability is None else math.log10(instability)
            rows.append((value, spectrum.max_modulus, log_critical, ""))
        except NUMERICAL_ERRORS + (ConfigError,) as exc:
            previous = None
            rows.append((value, None, None, f"{type(exc).__name__}: {exc}"))
    plots = [f"'{name}.csv' skip 1 using 1:3 with linespoints title 'critical cycles'"]
    header = ("parameter", "max_modulus", "log10_critical_cycles", "failure")
    return header, rows, _gnuplot(name, "log10 critical cycles", plots, extra=extra)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    spec = SweepSpec(args.param, args.min, args.max, args.points, args.scale)
    header, rows, script = _sweep(cfg, spec, "sweep", f"set xlabel '{args.param}'")
    failures = sum(1 for row in rows if row[3])
    _emit(cfg, "sweep", header, rows, script, f"{failures} failures")
    return EXIT_OK


# ---------------------------------------------------------------------------
# per-cycle curves


def _curves(cfg: ExperimentConfig, name: str, attr: str, ylabel: str, columns):
    """Header, rows and gnuplot script of one per-cycle diagnostic over several runs.

    Each column is (header, plot title, the ExperimentConfig of its run).
    Each run starts from its config's temperature, lasts cfg.n_cycles cycles
    and computes only that diagnostic; log-negativity is written in the
    configured unit.
    """
    observables = {attr: protocol.DIAGNOSTICS[attr]}
    curves, plots = [], []
    for index, (_, title, run_cfg) in enumerate(columns, start=2):
        cav = run_cfg.cavity_config()
        sigma0 = _initial_field(run_cfg, cav)
        traj = protocol.run_cycles(
            cav, sigma_f0=sigma0, n_cycles=cfg.n_cycles, observables=observables
        )
        values = [getattr(rec, attr) for rec in traj.records]
        if attr == "log_negativity":
            values = [_in_unit(cfg, v) for v in values]
        curves.append(values)
        plots.append(f"'{name}.csv' skip 1 using 1:{index} with lines title '{title}'")
    header = ("cycle", *(head for head, _, _ in columns))
    rows = [(k, *values) for k, values in enumerate(zip(*curves), start=1)]
    return header, rows, _gnuplot(name, ylabel, plots)


def _at_tf_r(cfg: ExperimentConfig, tf_r: float) -> ExperimentConfig:
    """cfg with a cycle time of tf_r times the detector separation r."""
    cav = cfg.cavity_config()
    return replace(cfg, cycle_time=tf_r * abs(cav.x2 - cav.x1))


# ---------------------------------------------------------------------------
# short-cycle


def cmd_short_cycle(args) -> int:
    cfg = _at_tf_r(_load(args), args.tf_r)
    cfg.cavity_config()  # an out-of-range cycle time is an error, before any warning
    if cfg.modes < 128:
        print(
            f"warning: modes={cfg.modes} is below the recommended floor of 128; "
            "short cycles excite high modes",
            file=sys.stderr,
        )
    columns = [("log_negativity", "per-cycle E_N", cfg)]
    header, rows, script = _curves(
        cfg, "short_cycle", "log_negativity", "log-negativity", columns
    )
    _emit(cfg, "short_cycle", header, rows, script, f"cycle time {cfg.cycle_time!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce-fig


# figures of one diagnostic per cycle from several start temperatures:
# name -> (record attribute, column prefix, y label, start temperatures).
# The thermality vacuum curve starts after one cycle: the estimator is
# undefined on the exactly pure initial state.
_START_FIGURES = {
    "lognegplot": ("log_negativity", "en", "log-negativity", (0.0, 0.5, 1.0)),
    "energyfig": ("energy_input", "energy", "energy cost per cycle", (0.0, 0.5, 1.0)),
    "thermPure": ("field_purity", "purity", "field purity", (0.0, 1.0)),
    "thermality": ("field_thermality", "thermality", "thermality estimator", (0.0, 0.5, 1.0)),
}


def _fig_starts(name: str, cfg: ExperimentConfig):
    attr, prefix, ylabel, temperatures = _START_FIGURES[name]
    columns = []
    for t in temperatures:
        head = f"{prefix}_vacuum" if t == 0.0 else f"{prefix}_t{t:g}".replace(".", "")
        title = "vacuum start" if t == 0.0 else f"T={t:g} start"
        columns.append((head, title, replace(cfg, temperature=t)))
    return _curves(cfg, name, attr, ylabel, columns)


def _fig_ultralong(name: str, cfg: ExperimentConfig):
    cav = cfg.cavity_config()
    scan = spectral.extinction_scan(cav, sigma_f0=_initial_field(cfg, cav))
    rows = [(k, _in_unit(cfg, e)) for k, e in zip(scan.ks, scan.negativities)]
    extra = "set logscale x 10"
    if scan.spectral_estimate is not None:
        extra += (
            f"\nset arrow from {scan.spectral_estimate!r}, graph 0 "
            f"to {scan.spectral_estimate!r}, graph 1 nohead dashtype 2"
        )
    plots = [f"'{name}.csv' skip 1 using 1:2 with linespoints title 'E_N at cycle k'"]
    return ("cycle", "log_negativity"), rows, _gnuplot(
        name, "log-negativity", plots, extra=extra
    )


# figures of critical cycles over a parameter sweep:
# name -> (sweep, cycle time it runs at or None for the configured one,
# gnuplot lines before the plot)
_SWEEP_FIGURES = {
    "eigcoupling": (
        SweepSpec("lambda", 0.005, 0.04, 7, "log"),
        21.0,
        "set xlabel 'coupling'\nset logscale x 10",
    ),
    "eigtime": (SweepSpec("t_f", 1.0, 33.0, 33, "linear"), None, "set xlabel 'cycle time'"),
}


def _fig_sweep(name: str, cfg: ExperimentConfig):
    spec, cycle_time, extra = _SWEEP_FIGURES[name]
    if cycle_time is not None:
        cfg = replace(cfg, cycle_time=cycle_time)
    return _sweep(cfg, spec, name, extra)


def _fig_extinction(name: str, cfg: ExperimentConfig):
    columns = [
        (f"en_{factor:g}".replace(".", ""), f"t_f = {factor:g} r", _at_tf_r(cfg, factor))
        for factor in (1.44, 1.48, 1.52)
    ]
    return _curves(cfg, name, "log_negativity", "log-negativity", columns)


# name -> builder(name, cfg) of the figure's header, rows and gnuplot script
_FIG_BUILDERS = {
    **dict.fromkeys(_START_FIGURES, _fig_starts),
    "ultralong": _fig_ultralong,
    **dict.fromkeys(_SWEEP_FIGURES, _fig_sweep),
    "extinction": _fig_extinction,
}


def cmd_reproduce_fig(args) -> int:
    if args.name not in _FIG_BUILDERS:
        print(
            f"error: unknown figure {args.name!r}; valid names: {', '.join(_FIG_BUILDERS)}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    cfg = _load(args)
    header, rows, script = _FIG_BUILDERS[args.name](args.name, cfg)
    _emit(cfg, args.name, header, rows, script)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = _load(args)
    checks: list[tuple[str, bool, str]] = []

    def record(name, ok, detail):
        checks.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    cavs = {n: replace(cfg, modes=n, window="").cavity_config() for n in (1, 2)}
    for n_modes, cutoff in ((1, 8), (2, 6)):
        cav = cavs[n_modes]
        s = dynamics.propagator_for(cav)
        sigma_g = s @ s.T  # the evolved vacuum, S I S^T
        sigma_g = (sigma_g + sigma_g.T) / 2.0
        sigma_f = fock.evolve_and_covariance(fock.FockConfig(cav, cutoff), cav.cycle_time)
        err = float(np.max(np.abs(sigma_f - sigma_g)))
        record(
            f"covariance agreement ({n_modes} field mode{'s' if n_modes > 1 else ''})",
            err < 1e-4,
            f"max entry difference {err:.3e} (tolerance 1e-4)",
        )
        if n_modes == 1:
            en_g = _in_unit(cfg, gaussian.log_negativity(gaussian.reduce_modes(sigma_g, (0, 1))))
            en_f = _in_unit(cfg, gaussian.log_negativity(gaussian.reduce_modes(sigma_f, (0, 1))))
            record(
                "detector negativity agreement",
                abs(en_f - en_g) < 1e-4,
                f"difference {abs(en_f - en_g):.3e} (tolerance 1e-4)",
            )
            nus = gaussian.symplectic_eigenvalues(sigma_f)
            record(
                "brute-force covariance physical",
                bool(np.all(nus >= 1.0 - 1e-6)),
                f"min symplectic eigenvalue {float(nus.min())!r}",
            )
    try:
        fock.evolve_and_covariance(fock.FockConfig(cavs[1], 2), cavs[1].cycle_time)
        record("truncation leakage gate", False, "cutoff 2 was not rejected")
    except fock.CutoffTooSmallError:
        record("truncation leakage gate", True, "cutoff 2 rejected as expected")

    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"error: {len(failed)} verification check(s) failed", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"all {len(checks)} verification checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="INI configuration file")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument(
        "--log-base", choices=config_mod.LOG_BASES, dest="log_base",
        help="unit of entropy and negativity",
    )
    shared.add_argument(
        "--modes", type=int, metavar="M", help="number of lowest field modes to keep"
    )
    shared.add_argument(
        "--window", metavar="W",
        help="resonant window: 'default' for the five lowest modes, or a width",
    )

    parser = argparse.ArgumentParser(
        prog="entfarm",
        description="Repeated entanglement extraction from a cavity field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-cycles", parents=[shared], help="simulate extraction cycles")
    p.set_defaults(func=cmd_run_cycles)

    p = sub.add_parser("fixed-point", parents=[shared], help="solve the field fixed point")
    p.set_defaults(func=cmd_fixed_point)

    p = sub.add_parser("spectrum", parents=[shared], help="spectrum of the cycle map")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", parents=[shared], help="sweep a parameter")
    p.add_argument("--param", required=True, choices=tuple(config_mod.SWEEP_FIELDS))
    p.add_argument("--min", required=True, type=float)
    p.add_argument("--max", required=True, type=float)
    p.add_argument("--points", required=True, type=int)
    p.add_argument("--scale", default="linear", choices=config_mod.SWEEP_SCALES)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "short-cycle", parents=[shared], help="cycles near the light-crossing time"
    )
    p.add_argument(
        "--tf-r", required=True, type=float, dest="tf_r",
        help="cycle time as a multiple of the detector separation",
    )
    p.set_defaults(func=cmd_short_cycle)

    p = sub.add_parser("reproduce-fig", parents=[shared], help="emit figure data + script")
    p.add_argument("name", help=f"one of: {', '.join(_FIG_BUILDERS)}")
    p.set_defaults(func=cmd_reproduce_fig)

    p = sub.add_parser("verify", parents=[shared], help="brute-force validation suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
