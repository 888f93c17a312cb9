"""Public-surface guard: every public function or class in rdhkit has a caller.

A module-level public name counts as used when some module of the package
other than ``__init__.py`` refers to it by name or attribute; re-exporting it
is not a use.  The allowlist holds the reference implementations that only
tests call.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rdhkit"

# the scalar block cipher is the reference for the Blowfish known-answer and
# keystream tests
ALLOWED_UNCALLED = {"bf_encrypt_block"}


def _public_definitions(tree: ast.Module) -> set[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {n.name for n in tree.body if isinstance(n, kinds) and not n.name.startswith("_")}


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _public_definitions(tree):
            defined[name] = path.name
        if path.name != "__init__.py":
            referenced |= _references(tree)
    assert defined, f"no public definitions found under {PACKAGE}"
    unused = {
        f"{module}:{name}"
        for name, module in defined.items()
        if name not in referenced and name not in ALLOWED_UNCALLED
    }
    assert not unused, f"public names nothing in the package calls: {sorted(unused)}"
