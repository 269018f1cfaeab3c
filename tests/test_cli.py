"""End-to-end tests of the command-line interface."""

import argparse
import csv
import math
import os
import re
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from entfarm import cavity, cli, config, dynamics, fock, gaussian, protocol, spectral, thermo

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv, monkeypatch, tmp_path, n_cycles=12, modes=4):
    """Invoke the CLI with small defaults so tests stay fast."""
    monkeypatch.setenv("ENTFARM_RUN_N_CYCLES", str(n_cycles))
    monkeypatch.setenv("ENTFARM_CAVITY_MODES", str(modes))
    return cli.main(argv + ["--out", str(tmp_path)])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_run_cycles_writes_trajectory(monkeypatch, tmp_path):
    assert run(["run-cycles"], monkeypatch, tmp_path) == 0
    header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header == [
        "cycle",
        "log_negativity",
        "energy_input",
        "field_purity",
        "thermality",
        "relative_entropy_to_fixed_point",
    ]
    assert len(rows) == 12
    assert rows[0][0] == "1"
    assert float(rows[0][1]) > 0.0
    assert (tmp_path / "trajectory.gp").exists()


def test_run_cycles_deterministic(monkeypatch, tmp_path):
    run(["run-cycles"], monkeypatch, tmp_path)
    first = (tmp_path / "trajectory.csv").read_bytes()
    run(["run-cycles"], monkeypatch, tmp_path)
    assert (tmp_path / "trajectory.csv").read_bytes() == first


def test_run_cycles_windowed_reports_distance_to_fixed_point(monkeypatch, tmp_path):
    assert run(["run-cycles", "--modes", "8", "--window", "default"],
               monkeypatch, tmp_path) == 0
    _, rows = read_csv(tmp_path / "trajectory.csv")
    values = [float(r[5]) for r in rows]
    assert all(math.isfinite(v) and v > 0.0 for v in values)
    # the protocol drives the field toward the fixed point
    assert values[-1] < values[0]


def test_run_cycles_takes_the_fixed_point_log_density_once(monkeypatch, tmp_path):
    calls = []
    log_density = thermo.log_density

    def counted(state):
        calls.append(state.sigma.shape)
        return log_density(state)

    monkeypatch.setattr(thermo, "log_density", counted)
    assert run(["run-cycles"], monkeypatch, tmp_path, n_cycles=5) == 0
    _, rows = read_csv(tmp_path / "trajectory.csv")
    assert len(rows) == 5
    assert all(r[5] != "" for r in rows)
    assert len(calls) == 1


def test_run_cycles_factors_each_cycle_once_for_every_column(monkeypatch, tmp_path):
    # purity, thermality and the relative entropy read one analysis, so each
    # further cycle costs one Cholesky factorization, of the one parity
    # sector with two modes; the other sector and the nodal mode have one
    # mode each, in closed form
    shapes = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
    counts = []
    for n_cycles in (3, 5):
        shapes.clear()
        assert run(["run-cycles"], monkeypatch, tmp_path, n_cycles=n_cycles) == 0
        assert all(r[5] != "" for r in read_csv(tmp_path / "trajectory.csv")[1])
        counts.append(len(shapes))
    assert counts[1] - counts[0] == 2
    # the 3 coupled modes of 4 are factored whole only for the fixed point,
    # once for its physicality check and its log-density together
    assert set(shapes) == {(4, 4), (6, 6)}
    assert shapes.count((6, 6)) == 1


def test_run_cycles_warns_when_fixed_point_fails(monkeypatch, tmp_path, capsys):
    # at 64 modes a coupled eigenvalue product sits 1.6e-11 from the unit
    # circle, so there is no unique fixed point to measure the distance to
    assert run(["run-cycles", "--modes", "64"], monkeypatch, tmp_path, n_cycles=2) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "NoUniqueFixedPointError" in warnings[0]
    assert "unit circle" in warnings[0]
    _, rows = read_csv(tmp_path / "trajectory.csv")
    assert len(rows) == 2
    assert all(r[5] == "" for r in rows)


def test_log_base_flag_halves_nothing_but_rescales(monkeypatch, tmp_path):
    run(["run-cycles"], monkeypatch, tmp_path)
    header, rows_e = read_csv(tmp_path / "trajectory.csv")
    run(["run-cycles", "--log-base", "2"], monkeypatch, tmp_path)
    _, rows_2 = read_csv(tmp_path / "trajectory.csv")
    assert len(rows_2) == len(rows_e) == 12
    rel = "relative_entropy_to_fixed_point"
    for nats, bits in zip(rows_e, rows_2):
        row_e, row_2 = dict(zip(header, nats)), dict(zip(header, bits))
        assert row_2["cycle"] == row_e["cycle"]
        # entropic columns are computed in nats and divided once on output
        assert float(row_2["log_negativity"]) == float(row_e["log_negativity"]) / math.log(2.0)
        assert row_e[rel] != ""
        assert float(row_2[rel]) == pytest.approx(float(row_e[rel]) / math.log(2.0), rel=1e-14)
        # energy, purity and the entropy ratio carry no unit
        for column in ("energy_input", "field_purity", "thermality"):
            assert float(row_2[column]) == pytest.approx(float(row_e[column]), rel=1e-14)


def test_fixed_point_report(monkeypatch, tmp_path):
    assert run(["fixed-point", "--window", "default", "--modes", "8"],
               monkeypatch, tmp_path) == 0
    header, rows = read_csv(tmp_path / "fixed_point.csv")
    assert header[:4] == ["method", "coupled_dim", "residual", "log_negativity"]
    row = rows[0]
    assert float(row[2]) < 1e-9
    assert float(row[3]) > 0.0
    sig_header, sig_rows = read_csv(tmp_path / "fixed_point_sigma.csv")
    assert len(sig_rows) == len(sig_header) == 10


def test_fixed_point_sigma_cells_are_plain_floats(monkeypatch, tmp_path):
    assert run(["fixed-point", "--window", "default", "--modes", "8"],
               monkeypatch, tmp_path) == 0
    _, rows = read_csv(tmp_path / "fixed_point_sigma.csv")
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_fixed_point_warns_when_state_diagnostics_fail(monkeypatch, tmp_path, capsys):
    # at cycle time 21 the coupled map is expanding, and its fixed point at 8
    # modes is not positive definite: purity and thermality are undefined there
    cfgfile = tmp_path / "t21.ini"
    cfgfile.write_text("[cavity]\ncycle_time = 21.0\n")
    assert run(["fixed-point", "--config", str(cfgfile), "--modes", "8"],
               monkeypatch, tmp_path) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 2
    assert warnings[0].startswith(
        "warning: field_purity and thermality left blank: InvalidStateError: "
        "covariance is not positive definite"
    )
    assert warnings[1] == "warning: log_negativity was computed from a non-physical fixed point"
    header, rows = read_csv(tmp_path / "fixed_point.csv")
    row = dict(zip(header, rows[0]))
    assert row["field_purity"] == row["thermality"] == "nan"
    assert float(row["log_negativity"]) > 0.0


def test_fixed_point_checks_physicality_before_thermality(monkeypatch, tmp_path, capsys):
    # at 4 modes the non-positive-definite fixed point has negative excitation
    # energy, which thermality alone would misreport as the vacuum floor
    cfgfile = tmp_path / "t21.ini"
    cfgfile.write_text("[cavity]\ncycle_time = 21.0\n")
    assert run(["fixed-point", "--config", str(cfgfile)], monkeypatch, tmp_path, modes=4) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 2
    assert warnings[0].startswith(
        "warning: field_purity and thermality left blank: InvalidStateError: "
        "covariance is not positive definite (eigenvalue "
    )
    assert warnings[1] == "warning: log_negativity was computed from a non-physical fixed point"
    header, rows = read_csv(tmp_path / "fixed_point.csv")
    row = dict(zip(header, rows[0]))
    assert row["field_purity"] == row["thermality"] == "nan"


def test_fixed_point_uncoupled_exits_3(monkeypatch, tmp_path, capsys):
    cfgfile = tmp_path / "zero.ini"
    cfgfile.write_text("[cavity]\ncoupling = 0.0\n")
    code = run(
        ["fixed-point", "--config", str(cfgfile), "--window", "default", "--modes", "8"],
        monkeypatch, tmp_path,
    )
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")


def test_unbounded_hamiltonian_exits_3_before_any_cycle(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("ENTFARM_CAVITY_COUPLING", "0.3")
    assert run(["run-cycles", "--modes", "8"], monkeypatch, tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: coupling 0.3 makes the Hamiltonian unbounded below")
    assert "least eigenvalue" in err
    assert "warning" not in err
    assert not (tmp_path / "trajectory.csv").exists()


def test_coupling_below_the_bound_still_runs(monkeypatch, tmp_path):
    monkeypatch.setenv("ENTFARM_CAVITY_COUPLING", "0.25")
    assert run(["run-cycles", "--modes", "8"], monkeypatch, tmp_path, n_cycles=3) == 0
    assert len(read_csv(tmp_path / "trajectory.csv")[1]) == 3


def test_expanding_cycle_map_exits_3_at_the_growth_cap(monkeypatch, tmp_path, capsys):
    # at coupling 0.25 the 8-mode cycle map is bounded but expanding (coupled
    # max modulus 1.13); the field passes the cap long before the state's
    # uncertainty bound drowns in rounding
    monkeypatch.setenv("ENTFARM_CAVITY_COUPLING", "0.25")
    assert run(["run-cycles", "--modes", "8"], monkeypatch, tmp_path, n_cycles=200) == 3
    err = capsys.readouterr().err
    assert "error: cycle 110: largest field covariance entry" in err
    assert "passed the growth cap 1e+12; the cycle map is expanding" in err


def _broadcast_error(*args):
    raise ValueError("operands could not be broadcast together")


# a bare ValueError (numpy's shape mismatch, say) is a fault, not a result:
# it leaves main as a traceback, so the process exits nonzero, instead of
# becoming a blank cell or a sweep failure row
@pytest.mark.parametrize(
    "argv, module, name, output",
    [
        (["run-cycles"], thermo, "log_density", "trajectory.csv"),
        (["fixed-point"], thermo, "thermality_of", "fixed_point.csv"),
        (["sweep", "--param", "t_f", "--min", "10", "--max", "20", "--points", "2"],
         spectral, "field_spectrum", "sweep.csv"),
    ],
    ids=["run-cycles", "fixed-point", "sweep"],
)
def test_a_bare_value_error_is_not_a_blank_cell(
    argv, module, name, output, monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(module, name, _broadcast_error)
    with pytest.raises(ValueError, match="operands could not be broadcast together"):
        run(argv, monkeypatch, tmp_path)
    assert not (tmp_path / output).exists()
    assert "warning" not in capsys.readouterr().err


# detector frequency 3 pi / 8 with window 0.1 keeps mode 3 alone, which has a
# node at both detectors (L/3 and 2L/3)
NODAL_WINDOW = "[cavity]\ndetector_frequency = 1.1780972450961724\nwindow = 0.1\n"
NODAL_ERROR = "[cavity] window: resonant window keeps only modes [3]"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sweep", "--param", "t_f", "--min", "10", "--max", "20", "--points", "3"], "sweep"),
        (["reproduce-fig", "eigtime"], "eigtime"),
        (["reproduce-fig", "eigcoupling"], "eigcoupling"),
    ],
    ids=["sweep", "eigtime", "eigcoupling"],
)
def test_sweeps_over_a_window_of_nodal_modes_only_record_the_error(
    argv, name, monkeypatch, tmp_path
):
    cfgfile = tmp_path / "nodal.ini"
    cfgfile.write_text(NODAL_WINDOW)
    assert run(argv + ["--config", str(cfgfile)], monkeypatch, tmp_path) == 0
    _, rows = read_csv(tmp_path / f"{name}.csv")
    assert rows
    assert all(r[1] == r[2] == "" for r in rows)
    assert all(r[3].startswith(f"ConfigError: {NODAL_ERROR}") for r in rows)


def test_spectrum_output(monkeypatch, tmp_path, capsys):
    assert run(["spectrum", "--modes", "8", "--window", "default"],
               monkeypatch, tmp_path) == 0
    out = capsys.readouterr().out
    assert "coupled max modulus" in out
    assert "convergence cycles" in out
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["subspace", "index", "real", "imag", "modulus"]
    # 5 window modes full (10 eigenvalues) + 4 coupled modes (8 eigenvalues)
    assert len(rows) == 18


def test_sweep_ordering_and_determinism(monkeypatch, tmp_path):
    argv = ["sweep", "--param", "lambda", "--min", "0.005", "--max", "0.04",
            "--points", "5", "--scale", "log"]
    assert run(argv, monkeypatch, tmp_path) == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    assert run(argv, monkeypatch, tmp_path) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["parameter", "max_modulus", "log10_critical_cycles", "failure"]
    params = [float(r[0]) for r in rows]
    assert params == sorted(params)
    assert all(r[3] == "" for r in rows)


def test_sweep_records_an_invalid_point_in_its_failure_row(monkeypatch, tmp_path):
    argv = ["sweep", "--param", "t_f", "--min", "0", "--max", "2", "--points", "3"]
    assert run(argv, monkeypatch, tmp_path) == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert rows[0] == ["0.0", "", "", "ConfigError: [cavity] cycle time must be positive"]
    assert all(float(r[1]) > 0.0 and r[3] == "" for r in rows[1:])


def test_a_sweep_frees_each_point_before_the_next_propagator(monkeypatch, tmp_path):
    # every CycleBlocks a sweep point made is dead when the next point's
    # propagator is entered, so one point's blocks are held at a time; of the
    # points' propagators only the previous point's (which the next one steps
    # from) and the first's (the cached step of eigtime's uniform grid) live
    made, stepped, alive = [], [], []
    blocks_of = protocol._blocks_of
    propagator_for, propagator_from = dynamics.propagator_for, dynamics.propagator_from

    def recording_blocks_of(config, s):
        blocks = blocks_of(config, s)
        made.append(weakref.ref(blocks))
        return blocks

    def recording_propagator_from(previous, config):
        s = propagator_from(previous, config)
        stepped.append(weakref.ref(s))
        return s

    def counting_propagator_for(config):
        alive.append((sum(ref() is not None for ref in made),
                      sum(ref() is not None for ref in stepped)))
        return propagator_for(config)

    monkeypatch.setattr(protocol, "_blocks_of", recording_blocks_of)
    monkeypatch.setattr(dynamics, "propagator_from", recording_propagator_from)
    monkeypatch.setattr(dynamics, "propagator_for", counting_propagator_for)
    assert run(["reproduce-fig", "eigtime"], monkeypatch, tmp_path) == 0
    assert len(made) == len(stepped) == 33
    assert alive == [(0, 0), (0, 1)] + [(0, 2)] * 31


def test_a_failed_stepped_point_leaves_the_next_to_start_afresh(monkeypatch, tmp_path):
    # the fourth point's stepped product fails its symplectic check: its row
    # names the error, and the fifth point is computed from scratch, as a
    # lone propagator_for at its cycle time computes it
    check_symplectic, propagator = gaussian.check_symplectic, dynamics.propagator
    inside, products = [], []

    def marking_propagator(f_sym, t):
        inside.append(True)
        try:
            return propagator(f_sym, t)
        finally:
            inside.pop()

    def failing_check(s):
        if not inside:
            products.append(s)
            if len(products) == 3:
                return 1.0
        return check_symplectic(s)

    monkeypatch.setattr(dynamics, "propagator", marking_propagator)
    monkeypatch.setattr(gaussian, "check_symplectic", failing_check)
    argv = ["sweep", "--param", "t_f", "--min", "1", "--max", "6", "--points", "6"]
    assert run(argv, monkeypatch, tmp_path) == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert rows[3][:3] == ["4.0", "", ""]
    assert rows[3][3] == "PropagatorAccuracyError: propagator violates the symplectic " \
        "condition by 1.000e+00"
    assert [r[3] for r in rows[:3] + rows[4:]] == ["", "", "", "", ""]
    assert len(products) == 4  # points 2, 3, 4 and 6 step; point 5 does not

    monkeypatch.setattr(gaussian, "check_symplectic", check_symplectic)
    dynamics.propagator_for.cache_clear()
    cav = cavity.standard_config(4, cycle_time=5.0)
    spectrum, (_, instability) = cli._coupled_spectrum(protocol.blocks_for(cav))
    assert rows[4] == ["5.0", repr(spectrum.max_modulus), repr(math.log10(instability)), ""]


def test_sweep_rejects_removed_workers_flag(monkeypatch, tmp_path, capsys):
    # sweep points run serially; a script that still passes --workers fails loudly
    argv = ["sweep", "--param", "lambda", "--min", "0.005", "--max", "0.04", "--points", "2"]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--workers", "2"], monkeypatch, tmp_path)
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_sweep_rejects_temperature(monkeypatch, tmp_path, capsys):
    # the cycle map does not depend on the start temperature: no column could move
    argv = ["sweep", "--param", "temperature", "--min", "0", "--max", "2", "--points", "3"]
    with pytest.raises(SystemExit) as exc:
        run(argv, monkeypatch, tmp_path)
    assert exc.value.code == 2
    assert "--param" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_short_cycle_warns_below_mode_floor(monkeypatch, tmp_path, capsys):
    assert run(["short-cycle", "--tf-r", "1.44", "--modes", "16"],
               monkeypatch, tmp_path, n_cycles=5) == 0
    assert "warning:" in capsys.readouterr().err
    header, rows = read_csv(tmp_path / "short_cycle.csv")
    assert header == ["cycle", "log_negativity"]
    assert len(rows) == 5


def test_reproduce_fig_unknown_name(monkeypatch, tmp_path, capsys):
    assert run(["reproduce-fig", "nosuchfigure"], monkeypatch, tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: unknown figure 'nosuchfigure'; valid names: lognegplot, energyfig, "
        "thermPure, thermality, ultralong, eigcoupling, eigtime, extinction\n"
    )


def test_reproduce_fig_help_lists_figures_in_order(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.main(["reproduce-fig", "--help"])
    assert (
        "positional arguments:\n"
        "  name              one of: lognegplot, energyfig, thermPure, thermality,\n"
        "                    ultralong, eigcoupling, eigtime, extinction\n"
    ) in capsys.readouterr().out


def test_reproduce_fig_lognegplot(monkeypatch, tmp_path):
    assert run(["reproduce-fig", "lognegplot"], monkeypatch, tmp_path,
               n_cycles=8, modes=8) == 0
    header, rows = read_csv(tmp_path / "lognegplot.csv")
    assert header == ["cycle", "en_vacuum", "en_t05", "en_t1"]
    assert len(rows) == 8
    # a hot field suppresses extraction at the start
    assert float(rows[0][3]) == 0.0
    assert float(rows[0][1]) > 0.0
    script = (tmp_path / "lognegplot.gp").read_text()
    assert "lognegplot.csv" in script and script.startswith("#")


def test_reproduce_fig_thermality_starts_defined(monkeypatch, tmp_path):
    assert run(["reproduce-fig", "thermality"], monkeypatch, tmp_path,
               n_cycles=4, modes=8) == 0
    _, rows = read_csv(tmp_path / "thermality.csv")
    # vacuum curve begins after one cycle, where the estimator exists
    assert rows[0][0] == "1"
    assert math.isfinite(float(rows[0][1]))


def test_reproduce_fig_ultralong(monkeypatch, tmp_path):
    assert run(["reproduce-fig", "ultralong", "--window", "default", "--modes", "8"],
               monkeypatch, tmp_path) == 0
    _, rows = read_csv(tmp_path / "ultralong.csv")
    ks = [int(r[0]) for r in rows]
    assert ks[:5] == [1, 2, 4, 8, 16]
    assert all(float(r[1]) > 0.0 for r in rows)


def test_reproduce_fig_ultralong_marks_the_instability_timescale(monkeypatch, tmp_path):
    # at cycle time 21 the 16-mode map is unstable: the script marks the
    # spectral estimate of the extinction cycle with a dashed arrow
    monkeypatch.setenv("ENTFARM_CAVITY_CYCLE_TIME", "21")
    assert run(["reproduce-fig", "ultralong", "--modes", "16"], monkeypatch, tmp_path) == 0
    cav = config.load_config(None, environ={
        "ENTFARM_CAVITY_CYCLE_TIME": "21", "ENTFARM_CAVITY_MODES": "16"}).cavity_config()
    e = spectral.extinction_scan(cav).spectral_estimate
    assert e is not None
    assert (
        f"set arrow from {e!r}, graph 0 to {e!r}, graph 1 nohead dashtype 2\n"
        in (tmp_path / "ultralong.gp").read_text()
    )
    # the contracting 4-mode default map has no instability to mark
    monkeypatch.delenv("ENTFARM_CAVITY_CYCLE_TIME")
    assert run(["reproduce-fig", "ultralong"], monkeypatch, tmp_path) == 0
    assert "set arrow" not in (tmp_path / "ultralong.gp").read_text()


def test_config_file_plus_flag_precedence(monkeypatch, tmp_path):
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text("[run]\nn_cycles = 3\n[cavity]\nmodes = 64\n")
    monkeypatch.delenv("ENTFARM_RUN_N_CYCLES", raising=False)
    code = cli.main(
        ["run-cycles", "--config", str(cfgfile), "--modes", "4", "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "trajectory.csv")
    assert len(rows) == 3  # file value survives; flag overrode the mode count


def test_bad_config_file_exits_2(monkeypatch, tmp_path, capsys):
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text("[cavity]\ncoupling = banana\n")
    assert run(["run-cycles", "--config", str(cfgfile)], monkeypatch, tmp_path) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "ini, argv",
    [
        ("[cavity]\ncycle_time = -1\n", ["run-cycles"]),
        ("[cavity]\nx1 = 9\n", ["run-cycles"]),
        ("[cavity]\nlength = 0\n", ["run-cycles"]),
        ("", ["short-cycle", "--tf-r", "-1"]),
        ("[cavity]\ncoupling = nan\n", ["run-cycles"]),
        ("[cavity]\ncoupling = inf\n", ["run-cycles"]),
        ("[cavity]\ndetector_frequency = nan\n", ["run-cycles"]),
        ("[cavity]\ndetector_frequency = inf\n", ["run-cycles"]),
        ("[cavity]\ncycle_time = nan\n", ["run-cycles"]),
        ("[cavity]\ncycle_time = inf\n", ["run-cycles"]),
        ("", ["short-cycle", "--tf-r", "nan"]),
        (NODAL_WINDOW, ["fixed-point"]),
        (NODAL_WINDOW, ["spectrum"]),
    ],
    ids=[
        "cycle_time", "x1", "length", "tf_r", "coupling_nan", "coupling_inf",
        "detector_frequency_nan", "detector_frequency_inf", "cycle_time_nan",
        "cycle_time_inf", "tf_r_nan", "nodal_window_fixed_point", "nodal_window_spectrum",
    ],
)
def test_out_of_range_cavity_values_exit_2(ini, argv, monkeypatch, tmp_path, capsys):
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text(ini)
    assert run(argv + ["--config", str(cfgfile)], monkeypatch, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [cavity] ")
    assert "Traceback" not in err


def test_non_finite_sweep_bounds_exit_2(monkeypatch, tmp_path, capsys):
    argv = ["sweep", "--param", "lambda", "--min", "nan", "--max", "nan", "--points", "2"]
    assert run(argv, monkeypatch, tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: sweep bounds must be finite")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("kind", ["empty", "file"])
def test_unusable_output_directory_exits_2(kind, monkeypatch, tmp_path, capsys):
    if kind == "empty":
        out = ""
    else:
        out = tmp_path / "taken"
        out.write_text("")
    monkeypatch.setenv("ENTFARM_RUN_N_CYCLES", "2")
    monkeypatch.setenv("ENTFARM_CAVITY_MODES", "4")
    assert cli.main(["run-cycles", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [output] directory: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, blocked",
    [
        (["run-cycles"], "trajectory.csv"),
        (["fixed-point"], "fixed_point_sigma.csv"),
        (["spectrum"], "spectrum.csv"),
        (["reproduce-fig", "lognegplot"], "lognegplot.gp"),
    ],
    ids=["run-cycles", "fixed-point", "spectrum", "reproduce-fig"],
)
def test_unwritable_output_file_exits_2(argv, blocked, monkeypatch, tmp_path, capsys):
    # a directory in place of one of the files the command writes: the command
    # reports nothing written and leaves none of its other files behind
    (tmp_path / blocked).mkdir()
    assert run(argv, monkeypatch, tmp_path, n_cycles=2) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: [output] directory: ")
    assert blocked in err
    assert "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == [blocked]


def test_extinction_curve_matches_short_cycle(monkeypatch, tmp_path):
    # both run the cycle time of 1.44 detector separations from the same start
    assert run(["reproduce-fig", "extinction"], monkeypatch, tmp_path, n_cycles=5) == 0
    assert run(["short-cycle", "--tf-r", "1.44"], monkeypatch, tmp_path, n_cycles=5) == 0
    header, rows = read_csv(tmp_path / "extinction.csv")
    en_144 = [row[header.index("en_144")] for row in rows]
    header, rows = read_csv(tmp_path / "short_cycle.csv")
    assert [row[header.index("log_negativity")] for row in rows] == en_144
    assert len(en_144) == 5


def test_verify_builds_every_cavity_from_the_config(monkeypatch, tmp_path):
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text("[cavity]\nx1 = 2.0\nx2 = 5.0\n")
    seen = []
    original = fock.evolve_and_covariance

    def recording(config, t):
        seen.append(config)
        return original(config, t)

    monkeypatch.setattr(fock, "evolve_and_covariance", recording)
    run(["verify", "--config", str(cfgfile)], monkeypatch, tmp_path)
    assert len(seen) == 3
    assert [(c.cavity_config.x1, c.cavity_config.x2) for c in seen] == [(2.0, 5.0)] * 3


def test_verify_passes(monkeypatch, tmp_path, capsys):
    assert run(["verify"], monkeypatch, tmp_path) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_verify_exits_3_when_the_fock_state_norm_drifts(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(fock, "_chebyshev_action", lambda h, psi, t: 1.5 * psi)
    assert run(["verify"], monkeypatch, tmp_path) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: state norm drifted to 1.5 during evolution"]


# no command looks a config up again once it has moved on to the next, so one
# cached propagator gives every command the hits a larger cache would
PROPAGATOR_LOOKUPS = [
    (["run-cycles"], 1, 1),
    (["run-cycles", "--window", "default"], 1, 1),
    (["reproduce-fig", "lognegplot"], 2, 1),
    (["reproduce-fig", "eigtime"], 32, 1),
    (["reproduce-fig", "eigcoupling"], 0, 7),
    (["sweep", "--param", "lambda", "--min", "0.01", "--max", "0.03", "--points", "3"], 0, 3),
    (["sweep", "--param", "t_f", "--min", "10", "--max", "20", "--points", "3"], 1, 2),
    (["reproduce-fig", "extinction"], 0, 3),
    (["verify"], 0, 2),
    (["fixed-point"], 0, 1),
    (["spectrum"], 0, 1),
    (["reproduce-fig", "ultralong"], 0, 1),
    (["short-cycle", "--tf-r", "1.48"], 0, 1),
]


@pytest.mark.parametrize(
    "argv, hits, misses", PROPAGATOR_LOOKUPS, ids=[" ".join(c[0]) for c in PROPAGATOR_LOOKUPS]
)
def test_propagator_cache_holds_the_last_config_only(argv, hits, misses, monkeypatch, tmp_path):
    dynamics.propagator_for.cache_clear()
    assert run(argv, monkeypatch, tmp_path, n_cycles=3) == 0
    info = dynamics.propagator_for.cache_info()
    assert (info.hits, info.misses) == (hits, misses)
    assert info.currsize == 1


def _subcommand_options() -> dict[str, set[str]]:
    """Option strings of each subcommand, -h and --help left out."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }


def test_readme_names_every_cli_option():
    readme = README.read_text()
    missing = sorted(
        f"{name} {opt}"
        for name, options in _subcommand_options().items()
        for opt in options
        if not re.search(re.escape(opt) + r"(?![\w-])", readme)
    )
    assert missing == []


def test_readme_shell_examples_use_accepted_flags():
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
        for line in block.splitlines()
    ]
    flags = {flag for line in lines for flag in re.findall(r"(?<![\w-])--[\w-]+", line)}
    accepted = set().union(*_subcommand_options().values()) | {"--no-build-isolation"}
    assert "--out" in flags
    assert sorted(flags - accepted) == []
    # each example command line parses as written
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("entfarm ")]
    assert commands
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])


def test_readme_python_examples_run(tmp_path):
    # the blocks build on each other, so they run in order as one script
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 2
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENTFARM_")}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
