"""Where the library may import scipy, and that it imports or defines nothing it leaves unused.

The core is meant to need numpy alone; each scipy import that remains is
listed here, so adding one, or removing one, shows as an edit.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import entfarm
from entfarm import dynamics

SRC = Path(entfarm.__file__).parent

# (module, enclosing function or None at module level, imported name)
ALLOWED = {
    # only where scipy's expm kernel is missing or fails its probe
    ("dynamics", "_load_expm", "scipy.linalg.expm"),
    # only for a diagonal or triangular exponential, which no command builds
    ("dynamics", "_kernel_expm", "scipy.linalg.expm"),
    ("gaussian", "williamson_normal_form", "scipy.linalg.schur"),
}
# the one compiled module dynamics loads, from its file, instead of scipy.linalg
KERNEL = "scipy.linalg._matfuncs_expm"


def scipy_imports() -> set[tuple[str, str | None, str]]:
    """(module, outermost enclosing function, name) of each run-time scipy import."""
    found = set()

    def visit(node: ast.AST, module: str, scope: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                continue  # annotations only, never imported at run time
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and scope is None:
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                names = []
            found.update((module, scope, n) for n in names if n.split(".")[0] == "scipy")
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_scipy_imports_are_the_allowed_set():
    assert scipy_imports() == ALLOWED


def test_dynamics_loads_the_pinned_kernel():
    assert dynamics._EXPM_KERNEL == KERNEL


def unused_imports(source: str) -> list[str]:
    """Names a module's source imports and never reads.

    A name listed in the module's __all__ counts as read (a re-export), and
    __future__ imports are directives, not names.  Names are compared over
    the whole module, whatever the scope of the import.
    """
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_unused_import_check_finds_a_name_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path, sys\n"
        "from csv import writer as w\n"
        "from functools import partial\n"
        "__all__ = ['w']\n"
        "sys.exit(os.sep)\n"
    )
    assert unused_imports(source) == ["partial"]


def test_library_imports_no_name_it_leaves_unused():
    unused = {path.stem: unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in unused.items() if names} == {}


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level private function, class or constant never read.

    A name counts as read when any of the modules loads it, as a bare name
    or as an attribute (module._name); dunder names are not private.
    """
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                names = []
            defined.update((module, n) for n in names if n.startswith("_") and not n.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_unused_private_name_check_finds_a_name_never_read():
    sources = {
        "a": (
            "__all__ = []\n"
            "_LIMIT: int = 3\n"
            "_SPARE = _SHARED = 0\n"
            "def _helper(): return _LIMIT\n"
            "class _Orphan: pass\n"
            "def public(): return _helper()\n"
        ),
        "b": "import a\nprint(a._SHARED)\n",
    }
    assert unused_private_names(sources) == ["a._Orphan", "a._SPARE"]


def test_library_defines_no_private_name_it_leaves_unread():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def unused_private_members(sources: dict[str, str]) -> list[str]:
    """module.Class.name of each private member of a module-level class never read.

    Members are the class body's methods (properties and cached properties
    among them) and constants, and the attributes its methods set on self.
    A member counts as read when any of the modules loads it as an
    attribute (obj._name) or, in the class body, as a bare name; setting it
    is not reading it.  Dunder names are not private.
    """
    def unpacked(targets):
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                yield from unpacked(target.elts)
            else:
                yield target

    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            names = [node.name for node in cls.body if isinstance(node, ast.FunctionDef)]
            for node in ast.walk(cls):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in unpacked(targets):
                        if isinstance(target, ast.Name) and node in cls.body:
                            names.append(target.id)
                        elif isinstance(target, ast.Attribute) and ast.unparse(target.value) == "self":
                            names.append(target.attr)
            defined.update(
                (module, cls.name, n) for n in names if n.startswith("_") and not n.endswith("__")
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    return sorted(f"{module}.{cls}.{name}" for module, cls, name in defined if name not in read)


def test_unused_private_member_check_finds_a_member_never_read():
    sources = {
        "a": (
            "from functools import cached_property\n"
            "class Box:\n"
            "    _SCALE = 2\n"
            "    _UNUSED: int = 0\n"
            "    def __init__(self, x):\n"
            "        self._x, self._spare = x, x\n"
            "        self._kept = self._log = x\n"
            "    @cached_property\n"
            "    def _doubled(self): return self._SCALE * self._x\n"
            "    def _orphan(self): return 0\n"
            "    def value(self): return self._doubled\n"
        ),
        "b": "import a\nbox = a.Box(1)\nbox._log = [box._kept]\n",
    }
    assert unused_private_members(sources) == [
        "a.Box._UNUSED", "a.Box._log", "a.Box._orphan", "a.Box._spare"
    ]


def test_library_classes_define_no_private_member_left_unread():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_private_members(sources) == []


# every command kind, at 4 modes in one process: both sweep parameters, all
# eight figures (eigtime spans cycle times 1-33, eigcoupling couplings
# 0.005-0.04 at cycle time 21) and a resonant-window run.  A command that
# reached a diagonal or triangular exponential would load scipy.linalg.
COMMANDS = {
    "run-cycles": ["run-cycles"],
    "fixed-point": ["fixed-point"],
    "spectrum": ["spectrum"],
    "short-cycle": ["short-cycle", "--tf-r", "1.44"],
    "sweep lambda": ["sweep", "--param", "lambda", "--min", "0.005", "--max", "0.04", "--points", "3"],
    "sweep t_f": ["sweep", "--param", "t_f", "--min", "1", "--max", "33", "--points", "3"],
    **{name: ["reproduce-fig", name] for name in (
        "lognegplot", "energyfig", "thermPure", "thermality",
        "ultralong", "eigcoupling", "eigtime", "extinction",
    )},
    "window": ["run-cycles", "--window", "default"],
}

# scipy.linalg and scipy.sparse modules loaded on import and after each of
# COMMANDS, with the Williamson form barred; and the relative-entropy cells
# run-cycles wrote, which take no Williamson form
LOADED_SCRIPT = """
import csv, json, os, sys, tempfile
def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse")))
import entfarm.cli
from entfarm import cli, gaussian
seen = {"import": loaded()}
def williamson_normal_form(sigma):
    raise AssertionError("a command took a Williamson form")
gaussian.williamson_normal_form = williamson_normal_form
with tempfile.TemporaryDirectory() as out:
    for name, argv in %r.items():
        assert cli.main(argv + ["--modes", "4", "--out", out]) == 0, name
        seen[name] = loaded()
        if name == "run-cycles":
            with open(os.path.join(out, "trajectory.csv")) as fh:
                cells = [r["relative_entropy_to_fixed_point"] for r in csv.DictReader(fh)]
print(json.dumps([seen, cells]))
""" % (COMMANDS,)


def run_script(script: str) -> object:
    """The JSON a script prints last, run in a fresh process on this library."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENTFARM_")}
    env.update(PYTHONPATH=str(SRC.parent), ENTFARM_RUN_N_CYCLES="3")
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_commands_load_no_scipy_linalg_but_the_kernel():
    seen, relative_entropy = run_script(LOADED_SCRIPT)
    assert list(seen) == ["import", *COMMANDS]
    assert seen == dict.fromkeys(seen, [KERNEL])
    assert len(relative_entropy) == 3
    assert all(float(cell) > 0.0 for cell in relative_entropy)


# every scipy module loaded after verify: the Fock oracle runs on numpy alone
VERIFY_SCRIPT = """
import json, sys, tempfile
from entfarm import cli
with tempfile.TemporaryDirectory() as out:
    code = cli.main(["verify", "--out", out])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_verify_loads_no_scipy_but_the_kernel():
    assert run_script(VERIFY_SCRIPT) == [0, [KERNEL]]


# modules no command computes with: hashlib loads OpenSSL's libcrypto (for
# CavityConfig.fingerprint, which no command calls), and numpy.ma comes in
# with the first np.setdiff1d
UNUSED = ("hashlib", "_hashlib", "numpy.ma")

# the unused modules loaded on import and after each command kind the
# benchmark runs, in one process, at toy sizes
UNUSED_SCRIPT = """
import json, sys, tempfile
def loaded():
    return [m for m in %r if m in sys.modules]
import entfarm.cli
from entfarm import cli
seen = {"import": loaded()}
with tempfile.TemporaryDirectory() as out:
    for argv in (["run-cycles"], ["reproduce-fig", "lognegplot"], ["reproduce-fig", "eigtime"],
                 ["reproduce-fig", "ultralong"], ["fixed-point"], ["verify"]):
        assert cli.main(argv + ["--modes", "4", "--out", out]) == 0
        seen[argv[-1]] = loaded()
print(json.dumps(seen))
""" % (UNUSED,)


def test_commands_load_no_hashlib_or_numpy_ma():
    seen = run_script(UNUSED_SCRIPT)
    assert list(seen) == [
        "import", "run-cycles", "lognegplot", "eigtime", "ultralong", "fixed-point", "verify"
    ]
    assert seen == dict.fromkeys(seen, [])
