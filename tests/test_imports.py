"""Where the library may import scipy.

The core is meant to need numpy alone; each scipy import that remains is
listed here, so adding one, or removing one, shows as an edit.
"""

import ast
from pathlib import Path

import entfarm

SRC = Path(entfarm.__file__).parent

# (module, enclosing function or None at module level, imported name)
ALLOWED = {
    ("dynamics", None, "scipy"),  # locates scipy's bundled OpenBLAS
    ("dynamics", None, "scipy.linalg.expm"),
    ("gaussian", "williamson_normal_form", "scipy.linalg.schur"),
}
# fock imports scipy.sparse only inside the functions that build a Fock space
LAZY_ONLY = "fock"


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
    found = scipy_imports()
    lazy = {(m, scope, n) for m, scope, n in found if m == LAZY_ONLY and scope is not None}
    assert lazy, "fock's lazy scipy.sparse imports were not found"
    assert found - lazy == ALLOWED
