"""Regenerate the reference outputs every benchmark op is checked against.

Usage, from the root of a source checkout:

    python3 bench/make_reference.py [--out DIR] [--threads N]

Runs every op kind of every workload, at both sizes and both log bases,
with the workload's BLAS thread count (or N), and stores the CSVs it emits
(standard output for `verify`) under DIR, by default bench/reference.
Tolerances (reference/tolerances.json) are kept by hand and not touched;
they were set from the differences between two such sets made with 2 and
with 1 BLAS thread (`--out DIR --threads 1`).
Regenerate only when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import argparse
import filecmp
import shutil
import sys
from pathlib import Path

import refcheck
from run import REFERENCE_DIR, THREAD_VARS, Bench
from workloads import LOG_BASES, WORKLOADS, Op, cli_args


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=REFERENCE_DIR)
    parser.add_argument("--threads", type=int)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    for workload in WORKLOADS.values():
        for size in workload.kinds:
            bench = Bench(root, workload, size, seed=0, ref_root=REFERENCE_DIR)
            if args.threads:
                bench.env.update({var: str(args.threads) for var in THREAD_VARS})
            bench.prepare()
            try:
                for kind in workload.kinds[size]:
                    for log_base in LOG_BASES:
                        store(bench, args.out / size / kind.name, Op(0, kind, log_base))
            finally:
                bench.close()
    return 0


def store(bench: Bench, kind_dir: Path, op: Op) -> None:
    out_dir = bench.work / f"{op.kind.name}-{op.log_base}"
    args = cli_args(op, bench.config_paths[op.kind.name], str(out_dir))
    code, wall, *_ = bench.spawn([sys.executable, "-m", "entfarm.cli", *args], out_dir)
    if code != 0:
        raise SystemExit(f"{op.kind.name} --log-base {op.log_base} exited {code}")
    names = list(op.kind.outputs)
    if op.kind.check_stdout:
        shutil.copy(out_dir / ".stdout", out_dir / refcheck.STDOUT_FILE)
        names.append(refcheck.STDOUT_FILE)
    target = kind_dir / op.log_base
    target.mkdir(parents=True, exist_ok=True)
    for name in names:
        twin = kind_dir / "e" / name
        if op.log_base != "e" and twin.exists() and filecmp.cmp(out_dir / name, twin, shallow=False):
            (target / name).unlink(missing_ok=True)
            continue
        shutil.copy(out_dir / name, target / name)
    if not any(target.iterdir()):
        target.rmdir()
    print(f"{kind_dir.parent.name}/{op.kind.name} log base {op.log_base}: {wall:.2f} s")


if __name__ == "__main__":
    sys.exit(main())
