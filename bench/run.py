"""entfarm benchmark runner.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is a fresh `python3 -m entfarm.cli` process run from `src/` (no
install needed).  One client runs the ops of the workload back to back (a
closed loop) for S seconds, always finishing at least one round of its op
kinds.  Every op's outputs are checked against the stored reference; an op
that exits non-zero or misses any reference cell counts as failed.

With `--trace 0` the last line reports the end-to-end metrics of BENCHMARK.json
for the untraced ops.  With `--trace 1` every op runs twice in seeded order,
once plain and once with every public entfarm function traced
(`traced_op.py`), and the last line reports the per-layer metrics, including
the traced run's overhead against the plain one.

A workload with several op kinds reports, for each metric, the mean over
kinds of the kind's median: the typical cost of one op of the mix, whatever
order and count the kinds ran in.  Earlier lines print every metric with its
unit, sample counts, `failed_frac` and the environment (BLAS library and
thread count, library versions, commit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import refcheck
import tracer
from workloads import LOG_BASES, WORKLOADS, Op, cli_args, config_text, op_stream

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OP_TIMEOUT_S = 60.0
SETUP_PROBES = 15

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# span name -> which of its aggregates are reported
_SPAN_METRICS = {
    "thermo.thermality_estimator": ("self_s", "calls"),
    "thermo.effective_temperature": ("self_s", "calls"),
    "gaussian.von_neumann_entropy": ("self_s", "calls"),
    "gaussian.symplectic_eigenvalues": ("self_s", "calls"),
    "gaussian.assert_physical": ("self_s", "calls"),
    "gaussian.purity": ("self_s", "calls"),
    "gaussian.energy": ("self_s", "calls"),
    "gaussian.log_negativity": ("self_s", "calls"),
    "protocol.full_cycle": ("self_s", "calls"),
    "protocol.run_cycles": ("self_s",),
    "protocol.block_decompose": ("calls",),
    "dynamics.propagator": ("self_s", "calls"),
    "spectral.field_spectrum": ("self_s", "calls"),
    "spectral.power_map": ("self_s", "calls"),
    "spectral.extinction_scan": ("self_s", "calls"),
    "spectral.fixed_point": ("self_s", "calls"),
    "thermo.relative_entropy": ("self_s", "calls"),
    "thermo.log_density": ("self_s", "calls"),
    "gaussian.williamson_normal_form": ("self_s", "calls"),
    "fock.evolve_ground_state": ("self_s",),
    "fock.state_covariance": ("self_s",),
}

PER_LAYER = (
    *(
        (f"{span}.{agg}", "s" if agg == "self_s" else "count")
        for span, aggs in _SPAN_METRICS.items()
        for agg in aggs
    ),
    ("protocol.full_cycle.gflop_computed", "GFLOP"),
    ("protocol.diagnostic_use_ratio", "ratio"),
    ("dynamics.propagator_for.hit_ratio", "ratio"),
    ("spectral.fixed_point.failures", "count"),
    ("fock.hilbert_dim", "count"),
    ("cli.untraced_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)


@dataclass
class Sample:
    """One finished op process."""

    kind: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool
    traced: bool = False
    problems: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)


class Bench:
    def __init__(self, root: Path, workload, size: str, seed: int, ref_root: Path):
        self.root = root
        self.workload = workload
        self.size = size
        self.seed = seed
        self.ref_root = ref_root
        self.tolerances = refcheck.load_tolerances(ref_root)
        self.threads = min(workload.blas_threads, os.cpu_count() or 1)
        self.work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("ENTFARM_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.update({var: str(self.threads) for var in THREAD_VARS})
        self.config_paths = {}

    def prepare(self) -> None:
        self.work.mkdir(parents=True)
        for kind in self.workload.kinds[self.size]:
            path = self.work / f"{kind.name}.ini"
            path.write_text(config_text(kind))
            self.config_paths[kind.name] = str(path)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    def spawn(self, cmd, out_dir: Path, timeout: float = OP_TIMEOUT_S):
        """Run one process; return (exit code, wall s, cpu s, peak RSS MiB)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / ".stdout", "wb") as out, open(out_dir / ".stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0

    def run_op(self, op: Op, traced: bool) -> Sample:
        out_dir = self.work / f"op{op.index}{'t' if traced else ''}"
        args = cli_args(op, self.config_paths[op.kind.name], str(out_dir))
        trace_path = out_dir / ".trace.json"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_op.py"), str(trace_path),
                   f"{self.workload.name}/{self.seed}/{op.index}", "--", *args]
        else:
            cmd = [sys.executable, "-m", "entfarm.cli", *args]
        code, wall, cpu, rss = self.spawn(cmd, out_dir)
        problems = [] if code == 0 else [f"exit code {code}: {self._tail(out_dir)}"]
        if code == 0:
            problems += self.check(op, out_dir)
        sample = Sample(op.kind.name, wall, cpu, rss, not problems, traced, problems)
        if traced and trace_path.exists():
            sample.layer = self.layer_values(op, out_dir, trace_path)
        shutil.rmtree(out_dir, ignore_errors=True)
        return sample

    @staticmethod
    def _tail(out_dir: Path) -> str:
        text = (out_dir / ".stderr").read_text(errors="replace").strip().splitlines()
        return text[-1] if text else ""

    def check(self, op: Op, out_dir: Path) -> list[str]:
        def ref(name):
            return refcheck.reference_file(
                self.ref_root, self.size, op.kind.name, op.log_base, name
            )

        problems = []
        for name in op.kind.outputs:
            problems += refcheck.compare_csv(out_dir / name, ref(name), self.tolerances)
        if op.kind.check_stdout:
            problems += refcheck.compare_text(
                (out_dir / ".stdout").read_text(),
                ref(refcheck.STDOUT_FILE).read_text(),
                self.tolerances,
            )
        return problems

    def layer_values(self, op: Op, out_dir: Path, trace_path: Path) -> dict[str, float]:
        with open(trace_path) as fh:
            trace = json.load(fh)
        calls, self_s = tracer.self_times(trace["spans"])
        counters = trace["counters"]
        values = {}
        for span, aggs in _SPAN_METRICS.items():
            for agg in aggs:
                values[f"{span}.{agg}"] = float(self_s[span] if agg == "self_s" else calls[span])
        hits = counters.get("dynamics.propagator_for.hits", 0)
        lookups = hits + counters.get("dynamics.propagator_for.misses", 0)
        computed = counters.get("protocol.run_cycles.diagnostics", 0)
        written = sum(
            refcheck.count_cells(out_dir / name, columns)
            for name, columns in op.kind.diagnostic_columns.items()
        )
        values.update({
            "protocol.full_cycle.gflop_computed": counters.get("protocol.full_cycle.flops", 0) / 1e9,
            # no diagnostics computed means none were wasted
            "protocol.diagnostic_use_ratio": written / computed if computed else 1.0,
            "dynamics.propagator_for.hit_ratio": hits / lookups if lookups else 0.0,
            "spectral.fixed_point.failures": float(counters.get("spectral.fixed_point.failures", 0)),
            "fock.hilbert_dim": float(counters.get("fock.hilbert_dim", 0)),
            "cli.untraced_s": float(self_s["cli.main"]),
            "cli.output_bytes": float(
                sum(p.stat().st_size for p in out_dir.iterdir() if not p.name.startswith("."))
            ),
            "trace.spans": float(len(trace["spans"])),
        })
        return values

    def setup_probes(self):
        """Seeded set-up probes, SETUP_PROBES per run and at least 3 per op kind."""
        kinds = self.workload.kinds[self.size]
        per_kind = max(3, -(-SETUP_PROBES // len(kinds)))
        rng = random.Random(f"setup-{self.seed}")
        for index in range(per_kind * len(kinds)):
            yield Op(index=index, kind=kinds[index % len(kinds)], log_base=rng.choice(LOG_BASES))

    def setup_time(self, op: Op) -> float:
        """Seconds to the op's first propagator, in a fresh probe process."""
        out_dir = self.work / f"setup{op.index}"
        args = cli_args(op, self.config_paths[op.kind.name], str(out_dir))
        code, *_ = self.spawn([sys.executable, str(BENCH_DIR / "setup_probe.py"), *args], out_dir)
        if code != 0:
            raise RuntimeError(f"set-up probe for {op.kind.name} failed: {self._tail(out_dir)}")
        seconds = float((out_dir / ".stdout").read_text())
        shutil.rmtree(out_dir, ignore_errors=True)
        return seconds

    def environment(self) -> dict:
        out_dir = self.work / "env"
        code, *_ = self.spawn([sys.executable, str(BENCH_DIR / "envinfo.py")], out_dir)
        if code != 0:
            raise RuntimeError(f"environment probe failed: {self._tail(out_dir)}")
        env = json.loads((out_dir / ".stdout").read_text())
        shutil.rmtree(out_dir, ignore_errors=True)
        src = Path(env["entfarm_file"]).resolve()
        if self.root / "src" not in src.parents:
            raise RuntimeError(f"ops import entfarm from {src}, not from this checkout")
        env.update(
            nproc=os.cpu_count(),
            affinity_cpus=len(os.sched_getaffinity(0)),
            blas_threads_set=self.threads,
            blas_threads_workload=self.workload.blas_threads,
            git_commit=_git_commit(self.root),
            source_sha256=_source_hash(self.root / "src"),
            workload=self.workload.name,
            seed=self.seed,
            size=self.size,
        )
        return env


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_hash(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def mix_value(by_kind: dict[str, list[float]]) -> float:
    """Mean over op kinds of each kind's median."""
    return statistics.fmean(statistics.median(v) for v in by_kind.values() if v)


def _by_kind(samples, value) -> dict[str, list[float]]:
    by_kind: dict[str, list[float]] = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(value(s))
    return by_kind


def _timed(samples):
    """Successful ops of each kind, or all of its ops when none succeeded."""
    ok_kinds = {s.kind for s in samples if s.ok}
    return [s for s in samples if s.ok or s.kind not in ok_kinds]


def run_loop(bench: Bench, seconds: float, trace: bool):
    """Closed loop of ops for `seconds`, finishing at least one round.

    Untraced runs interleave the set-up probes with the first ops, so that
    both sample the same stretch of the host's load.  Traced runs run each
    op twice, traced and plain, in seeded order.
    """
    kinds = len(bench.workload.kinds[bench.size])
    order = random.Random(f"trace-{bench.seed}")
    probes = iter(() if trace else bench.setup_probes())
    samples: list[Sample] = []
    setup: dict[str, list[float]] = {}
    start = time.perf_counter()
    for op in op_stream(bench.workload, bench.size, bench.seed):
        if op.index >= kinds and time.perf_counter() - start >= seconds:
            break
        probe = next(probes, None)
        if probe is not None:
            setup.setdefault(probe.kind.name, []).append(bench.setup_time(probe))
        modes = (False,)
        if trace:
            modes = (True, False) if order.random() < 0.5 else (False, True)
        samples.extend(bench.run_op(op, traced) for traced in modes)
    for probe in probes:  # probes left when the ops ran out of time
        setup.setdefault(probe.kind.name, []).append(bench.setup_time(probe))
    return samples, setup


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(samples, setup: dict[str, list[float]]) -> dict:
    timed = _timed(samples)
    values = {
        "wall_s": mix_value(_by_kind(timed, lambda s: s.wall_s)),
        "cpu_s": mix_value(_by_kind(timed, lambda s: s.cpu_s)),
        "setup_s": mix_value(setup),
        "peak_rss_mb": mix_value(_by_kind(timed, lambda s: s.peak_rss_mb)),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(samples) -> dict:
    traced = [s for s in _timed(samples) if s.traced and s.layer]
    plain = [s for s in _timed(samples) if not s.traced]
    if not traced:
        raise RuntimeError("no traced op left a trace")
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            value = (
                mix_value(_by_kind(traced, lambda s: s.wall_s))
                / mix_value(_by_kind(plain, lambda s: s.wall_s))
                - 1.0
            )
        else:
            value = mix_value(_by_kind(traced, lambda s, n=name: s.layer[n]))
        metrics[name] = _metric(value, unit)
    return metrics


def report(samples, metrics: dict, env: dict) -> None:
    for s in samples:
        for problem in s.problems[:5]:
            print(f"failed op ({s.kind}{', traced' if s.traced else ''}): {problem}")
    for traced in sorted({s.traced for s in samples}):
        timed = [s for s in _timed(samples) if s.traced == traced]
        for kind, walls in _by_kind(timed, lambda s: s.wall_s).items():
            _report_walls(f"{kind}{' traced' if traced else ''}", walls)
    failed = sum(not s.ok for s in samples)
    print(f"failed_frac {failed / len(samples):.6g} frac ({failed}/{len(samples)} ops)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(env, sort_keys=True))


def _report_walls(label: str, walls: list[float]) -> None:
    line = f"ops {label}: n={len(walls)} median wall {statistics.median(walls):.4f} s"
    if len(walls) > 20:  # the highest percentile with at least ten samples beyond it
        pct = int(100 * (1 - 10 / len(walls)))
        cut = statistics.quantiles(walls, n=100, method="inclusive")[pct - 1]
        line += f", p{pct} {cut:.4f} s"
    print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny runs the same ops at toy sizes, for the self-test")
    parser.add_argument("--reference", type=Path, default=REFERENCE_DIR,
                        help="directory of reference outputs and tolerances")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "entfarm" / "cli.py").is_file():
        print(f"error: {root} holds no entfarm source tree (src/entfarm)", file=sys.stderr)
        return 2
    bench = Bench(root, WORKLOADS[args.workload], args.size, args.seed, args.reference)
    try:
        bench.prepare()
        env = bench.environment()
        if bench.threads < bench.workload.blas_threads:
            print(f"warning: {bench.threads} BLAS threads, the workload defines "
                  f"{bench.workload.blas_threads}; results are not comparable", file=sys.stderr)
        samples, setup = run_loop(bench, args.seconds, bool(args.trace))
        metrics = per_layer(samples) if args.trace else end_to_end(samples, setup)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    report(samples, metrics, env)
    failed = sum(not s.ok for s in samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
