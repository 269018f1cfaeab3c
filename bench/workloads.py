"""Workload definitions for the entfarm benchmark.

A workload is a fixed set of op kinds.  One op is one fresh `entfarm` CLI
process; a run drives the kinds of its workload in rounds, back to back,
with a single client (closed loop).  The workload seed chooses the order of
the kinds within each round and the entropy unit (`--log-base e` or `2`) of
every op.  Neither choice changes the cost of an op, so runs with different
seeds measure the same work; the log base does change the emitted numbers,
so the reference CSVs exist for both units.

Why each workload exists:

trajectory
    `run-cycles --modes 128` at the reference parameters, vacuum start.  This
    is the default user run, and every per-cycle diagnostic is written.  Most
    of the work is `thermo` and `gaussian` at large, LAPACK-bound sizes.
    `dynamics` and `spectral` do one call each: one `expm` and one
    fixed-point attempt that fails at the reference parameters.

yield_figure
    `reproduce-fig lognegplot --modes 64`, three starting temperatures.  It
    writes only E_N, so most of its per-cycle work is diagnostics it throws
    away.  This is the workload where computing diagnostics on demand should
    show; `trajectory` reads every diagnostic, so the prediction there is no
    change.

longrun
    `reproduce-fig eigtime` (33 distinct propagators and spectra, 128
    modes), `reproduce-fig ultralong` (`power_map` doubling towards 2^30),
    `fixed-point --modes 64` at cycle time 21 (the Stein route; the fixed
    point is unique there) and `verify` (the Fock oracle).  Most of the work
    is `dynamics`, `spectral` and `fock`, with almost no `thermo`.  It
    applies the cycle map by doubling rather than by stepping, so a map
    refactor that helps stepping but slows composition shows here.  Its
    propagator cache is rarely hit: `eigtime` and `verify` never reuse a
    propagator, the other two kinds look theirs up twice.

Each workload fixes its BLAS thread count: at the program's default on a
2-core host (2 threads) `eigtime` is about 3x slower than at 1 thread while
`ultralong` is faster, so the count is part of the workload, not of the host.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

LOG_BASES = ("e", "2")


@dataclass(frozen=True)
class OpKind:
    """One CLI invocation shape, minus the per-op `--log-base` and `--out`.

    `config` is written to an INI file passed with `--config`.  `outputs`
    are the files checked against the stored reference; `check_stdout`
    compares standard output instead (for `verify`, which writes no CSV).
    `diagnostic_columns` names, per output file, the columns that carry
    per-cycle diagnostics of `protocol.run_cycles`.
    """

    name: str
    args: tuple[str, ...]
    config: dict[str, dict[str, str]] = field(default_factory=dict)
    outputs: tuple[str, ...] = ()
    check_stdout: bool = False
    diagnostic_columns: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    blas_threads: int
    kinds: dict[str, tuple[OpKind, ...]]  # size -> op kinds


def _run_cycles(modes: int, n_cycles: int) -> OpKind:
    return OpKind(
        name="run-cycles",
        args=("run-cycles", "--modes", str(modes)),
        config={"run": {"n_cycles": str(n_cycles)}},
        outputs=("trajectory.csv",),
        diagnostic_columns={
            "trajectory.csv": ("log_negativity", "energy_input", "field_purity", "thermality")
        },
    )


def _lognegplot(modes: int, n_cycles: int) -> OpKind:
    return OpKind(
        name="lognegplot",
        args=("reproduce-fig", "lognegplot", "--modes", str(modes)),
        config={"run": {"n_cycles": str(n_cycles)}},
        outputs=("lognegplot.csv",),
        diagnostic_columns={"lognegplot.csv": ("en_vacuum", "en_t05", "en_t1")},
    )


def _longrun(modes: int, fixed_point_modes: int) -> tuple[OpKind, ...]:
    return (
        OpKind(
            name="eigtime",
            args=("reproduce-fig", "eigtime", "--modes", str(modes)),
            outputs=("eigtime.csv",),
        ),
        OpKind(
            name="ultralong",
            args=("reproduce-fig", "ultralong", "--modes", str(modes)),
            outputs=("ultralong.csv",),
        ),
        OpKind(
            name="fixed-point",
            args=("fixed-point", "--modes", str(fixed_point_modes)),
            config={"cavity": {"cycle_time": "21.0"}},
            outputs=("fixed_point.csv", "fixed_point_sigma.csv"),
        ),
        OpKind(name="verify", args=("verify",), check_stdout=True),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="trajectory",
            why=(
                "Default user run: run-cycles at 128 modes writes every per-cycle "
                "diagnostic, so thermo and gaussian at LAPACK-bound sizes dominate; "
                "one expm, one failing fixed point."
            ),
            blas_threads=2,
            kinds={"full": (_run_cycles(128, 40),), "tiny": (_run_cycles(8, 3),)},
        ),
        Workload(
            name="yield_figure",
            why=(
                "lognegplot at 64 modes from three start temperatures writes only E_N, "
                "so most per-cycle diagnostics are thrown away; on-demand diagnostics "
                "should show here, not on trajectory."
            ),
            blas_threads=2,
            kinds={"full": (_lognegplot(64, 60),), "tiny": (_lognegplot(8, 3),)},
        ),
        Workload(
            name="longrun",
            why=(
                "eigtime, ultralong, fixed-point (Stein) and verify: dynamics, spectral "
                "and fock dominate, the map is composed by doubling, and eigtime and verify "
                "never reuse a propagator."
            ),
            blas_threads=2,
            kinds={"full": _longrun(128, 64), "tiny": _longrun(8, 8)},
        ),
    )
}


@dataclass(frozen=True)
class Op:
    index: int
    kind: OpKind
    log_base: str


def op_stream(workload: Workload, size: str, seed: int):
    """Endless seeded stream of ops, in rounds that hold each kind once."""
    rng = random.Random(seed)
    kinds = list(workload.kinds[size])
    index = 0
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            yield Op(index=index, kind=kind, log_base=rng.choice(LOG_BASES))
            index += 1


def cli_args(op: Op, config_path: str, out_dir: str) -> list[str]:
    """The exact argument list the program receives for one op."""
    return [
        *op.kind.args,
        "--config", config_path,
        "--log-base", op.log_base,
        "--out", out_dir,
    ]


def config_text(kind: OpKind) -> str:
    lines = []
    for section, values in kind.config.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    return "\n".join(lines) + "\n"
