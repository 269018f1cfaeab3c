"""Every function of the library runs in some command, or is listed here with its reason.

One fresh process runs each command kind once, at the smallest sizes that
still take each of its routes, and sys.setprofile records every library
function called, from `import entfarm.cli` on.  A function that no run
calls must be on UNCALLED with one of REASONS.  A new uncalled function
fails, and so does an entry whose function now runs or is gone, so the
list only shrinks.  The run is a subprocess because propagator_for's cache,
warmed by earlier tests, would hide the functions that build a propagator.

Run as a script, it prints each run's seconds and each uncalled function
with its reason, and exits 1 when the gate fails:

    python tests/test_reachability.py
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "entfarm"

BENCH = "traced by bench/ until its traces are retargeted to what runs (ROADMAP item 3a)"
ORACLE = "whole-matrix oracle until the per-sector propagator (ROADMAP item 2)"
README = "public API documented in README"
ERROR = "error path"
REASONS = (BENCH, ORACLE, README, ERROR)

# module.qualified name of each library function no run calls, and why it stays
UNCALLED = {
    "gaussian.assert_physical": BENCH,
    "gaussian.energy": BENCH,
    "gaussian.purity": BENCH,
    "gaussian.von_neumann_entropy": BENCH,
    "gaussian.williamson_normal_form": BENCH,
    "protocol.full_cycle": BENCH,
    "spectral.power_map": BENCH,
    "spectral._composition": BENCH,  # power_map's body
    "thermo.effective_temperature": BENCH,
    "thermo.relative_entropy": BENCH,
    "thermo.thermality_estimator": BENCH,
    "cavity.CavityConfig.fingerprint": README,
    "config.dump_config": README,
    "config._render": README,  # dump_config's value format
    "protocol.AffineMap.apply": README,
    "protocol.AffineMap.d": README,  # assembled only for a composed map
    "protocol.AffineMap.q": README,
    "protocol.CycleStates.field_in": README,
    "protocol.CycleStates.field_out": README,
    "config.key_error": ERROR,
    "gaussian.StateAnalysis._not_positive_definite": ERROR,
}

# Each run is one cli.main call with an --out directory added.  16 modes and 5
# cycles take every route the defaults take: two parity sectors and a nodal
# stack, and a 22-row coupled map past fixed_point's 16-row Kronecker bound,
# with a unique fixed point, so the Stein route runs.  The resonant window
# takes the Kronecker route and the relative entropy to the fixed point;
# ultralong at 64 modes passes the growth cap.  CONFIG stands for an INI
# whose blank x1 is read by config._optional_float and whose zero coupling
# leaves the map a free rotation: the fixed point fails, so run-cycles warns
# and leaves a column blank, and the vacuum field's thermality is NaN.
RUNS = {
    "run-cycles": ["run-cycles", "--modes", "16"],
    "fixed-point": ["fixed-point", "--modes", "16"],
    "spectrum": ["spectrum", "--modes", "16"],
    "short-cycle": ["short-cycle", "--tf-r", "1.44", "--modes", "16"],
    "sweep lambda": [
        "sweep", "--param", "lambda", "--min", "0.005", "--max", "0.04", "--points", "3",
        "--modes", "16",
    ],
    "sweep t_f": [
        "sweep", "--param", "t_f", "--min", "1", "--max", "33", "--points", "3", "--modes", "16",
    ],
    **{name: ["reproduce-fig", name, "--modes", "16"] for name in (
        "lognegplot", "energyfig", "thermPure", "thermality",
        "ultralong", "eigcoupling", "eigtime", "extinction",
    )},
    "window": ["run-cycles", "--window", "default", "--modes", "16"],
    "verify": ["verify"],
    "no coupling": ["run-cycles", "--config", "CONFIG", "--modes", "4"],
    "ultralong past the cap": ["reproduce-fig", "ultralong", "--modes", "64"],
}
CONFIG = "[cavity]\nx1 =\ncoupling = 0\n"


def definitions(directory: Path) -> dict[tuple[str, int], str]:
    """module.qualified name of each function the modules in directory define.

    Keyed by (module, first line): the line of the first decorator, else of
    the def, as co_firstlineno counts it.  co_qualname would name a code
    object directly, but Python 3.10 has none.
    """
    found = {}

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name = f"{prefix}{child.name}."
                found[(module, first)] = name[:-1]
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}{child.name}."
            visit(child, module, name)

    for path in sorted(directory.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, f"{path.stem}.")
    return found


def collect(run):
    """(the code objects of the Python functions run() calls, run()'s result)."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return codes, result


def called_in(codes, directory: Path) -> set[tuple[str, int]]:
    """(module, first line) of each code object defined in a module of directory."""
    return {
        (Path(code.co_filename).stem, code.co_firstlineno)
        for code in codes
        if Path(code.co_filename).parent == directory
    }


def uncalled(directory: Path, called: set[tuple[str, int]]) -> list[str]:
    return sorted(name for key, name in definitions(directory).items() if key not in called)


def problems(names: list[str], allowlist: dict[str, str]) -> list[str]:
    """What fails the gate, given the uncalled functions and the allowlist."""
    found = [f"{name} runs in no command and is not listed" for name in names
             if name not in allowlist]
    found += [f"{name} is listed but runs in a command, or is gone" for name in allowlist
              if name not in names]
    found += [f"{name} is listed for {reason!r}, not one of REASONS"
              for name, reason in allowlist.items() if reason not in REASONS]
    return found


def run_commands() -> dict[str, list]:
    """{run name: [exit code, seconds]} of each of RUNS, in this process."""
    from entfarm import cli  # here, so that a profile set before sees the import

    runs = {}
    with tempfile.TemporaryDirectory() as out:
        config = os.path.join(out, "config.ini")
        with open(config, "w") as fh:
            fh.write(CONFIG)
        for name, argv in RUNS.items():
            argv = [config if arg == "CONFIG" else arg for arg in argv]
            start = time.perf_counter()
            code = cli.main([*argv, "--out", out])
            runs[name] = [code, time.perf_counter() - start]
    return runs


CHILD = """
import json, sys
sys.path.insert(0, %r)
import test_reachability as gate
codes, runs = gate.collect(gate.run_commands)
print(json.dumps([sorted(gate.called_in(codes, gate.SRC)), runs]))
""" % (str(Path(__file__).resolve().parent),)


def reached() -> tuple[set[tuple[str, int]], dict[str, list]]:
    """called_in the library and the runs of run_commands, from a fresh process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENTFARM_")}
    env.update(PYTHONPATH=str(SRC.parent), ENTFARM_RUN_N_CYCLES="5")
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    called, runs = json.loads(out.splitlines()[-1])
    return {tuple(key) for key in called}, runs


def test_every_function_no_command_calls_is_listed_with_its_reason():
    called, runs = reached()
    assert {name: code for name, (code, _) in runs.items()} == dict.fromkeys(RUNS, 0)
    assert problems(uncalled(SRC, called), UNCALLED) == []


PLANTED = """\
import functools

class Box:
    @functools.cached_property
    def size(self):
        return 1

    def unused_method(self):
        return 2

def used():
    def inner():
        return Box().size
    return inner()

def orphan():
    return 3
"""


def planted_uncalled(tmp_path: Path) -> list[str]:
    """uncalled of PLANTED, a module whose used() runs."""
    path = tmp_path / "planted.py"
    path.write_text(PLANTED)
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(module)
        return module.used()

    codes, result = collect(run)
    assert result == 1
    return uncalled(tmp_path, called_in(codes, tmp_path))


def test_the_gate_fails_a_planted_uncalled_function(tmp_path):
    names = planted_uncalled(tmp_path)
    assert names == ["planted.Box.unused_method", "planted.orphan"]
    assert problems(names, {}) == [
        "planted.Box.unused_method runs in no command and is not listed",
        "planted.orphan runs in no command and is not listed",
    ]
    assert problems(names, dict.fromkeys(names, ERROR)) == []


def test_the_gate_fails_an_entry_whose_function_runs_or_is_gone(tmp_path):
    names = planted_uncalled(tmp_path)
    listed = {**dict.fromkeys(names, ERROR), "planted.used": ERROR, "planted.gone": README}
    assert problems(names, listed) == [
        "planted.used is listed but runs in a command, or is gone",
        "planted.gone is listed but runs in a command, or is gone",
    ]


def test_the_gate_fails_an_entry_without_one_of_the_four_reasons(tmp_path):
    names = planted_uncalled(tmp_path)
    listed = {"planted.Box.unused_method": "unused", "planted.orphan": ORACLE}
    assert problems(names, listed) == [
        "planted.Box.unused_method is listed for 'unused', not one of REASONS"
    ]


def test_the_package_names_only_its_submodules_and_version():
    import entfarm

    submodules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    for name in submodules:
        importlib.import_module(f"entfarm.{name}")
    assert isinstance(entfarm.__version__, str)
    assert {name for name in vars(entfarm) if not name.startswith("_")} == submodules


if __name__ == "__main__":
    called, runs = reached()
    for name, (code, seconds) in runs.items():
        print(f"{name:24} exit {code}  {seconds:.3f} s")
    print(f"{'all runs':24}         {sum(s for _, s in runs.values()):.3f} s")
    names = uncalled(SRC, called)
    print(f"\n{len(names)} functions run in no command:")
    for name in names:
        print(f"  {name:46} {UNCALLED.get(name, 'NOT LISTED')}")
    failures = problems(names, UNCALLED)
    print("\nthe gate " + ("fails:" if failures else "passes"), *failures, sep="\n")
    sys.exit(1 if failures or any(code for code, _ in runs.values()) else 0)
