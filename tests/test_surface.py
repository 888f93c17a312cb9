"""Public-surface guards: the package root exports the entry points alone and
nothing imports another name from it, every public function or class in rdhkit
has a caller, and so does every public method and property of its classes,
each per-unit cover step is called from one loop per direction, only
``_gcrypt`` binds a native library,
no function casts its samples to uint8 (``errors.check_samples`` refuses what
is not uint8), and no module of the package or its tests imports a name it
never uses.

A module-level public name counts as used when some module of the package
other than ``__init__.py`` refers to it by name or attribute; re-exporting it
is not a use.
"""

import ast
from pathlib import Path

import rdhkit

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rdhkit"
TESTS = Path(__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

ENTRY_POINTS = [
    "RdhError",
    "load_ppm", "save_ppm",
    "StegoKeys", "HideResult", "hide", "reveal",
    "Y4mVideo", "parse_y4m", "write_y4m", "video_hide", "video_reveal",
]


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
    unused = {f"{module}:{name}" for name, module in defined.items() if name not in referenced}
    assert not unused, f"public names nothing in the package calls: {sorted(unused)}"


def _class_members(tree: ast.Module):
    """(class, name) of each public method and property in the module's classes; a
    property is a ``name = property(...)`` assignment in the class body."""
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "property"
            ):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((cls.name, name) for name in names if not name.startswith("_"))


def test_every_public_method_and_property_has_a_use_in_the_package():
    # members are used as attributes alone; only attribute loads count, so a
    # property's own ``name = property(...)`` assignment is not a use
    members, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        members += [(path.stem, cls, name) for cls, name in _class_members(tree)]
        if path.name != "__init__.py":
            used |= {
                n.attr
                for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            }
    assert ("pipeline", "PayloadFrame", "serialize") in members
    assert ("video", "Y4mVideo", "width") in members
    unused = [f"{module}.{cls}.{name}" for module, cls, name in members if name not in used]
    assert not unused, f"methods and properties nothing in the package uses: {unused}"


def test_the_root_exports_the_entry_points_alone():
    assert rdhkit.__all__ == ENTRY_POINTS
    assert all(hasattr(rdhkit, name) for name in ENTRY_POINTS)


def test_nothing_imports_a_name_from_the_package_root():
    # the layers behind the entry points are reached as submodules
    submodules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    from_root = []
    for path in sorted(TESTS.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "rdhkit":
                from_root += [f"{path.name}:{a.name}" for a in node.names if a.name not in submodules]
    assert not from_root, f"names imported from the package root: {from_root}"


def test_no_function_casts_its_samples_to_uint8():
    # a cast wraps 256 to 0 and truncates 0.9 to 0; check_samples refuses instead
    casts = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in {"array", "asarray"}:
                    dtypes = [k.value for k in node.keywords if k.arg == "dtype"] + node.args[1:2]
                    if any(ast.unparse(d) == "np.uint8" for d in dtypes):
                        casts.add(f"{path.name}:{node.lineno}")
    assert not casts, f"np.array/np.asarray casts to uint8: {sorted(casts)}"


def test_only_pipeline_knows_the_host_layout():
    # the header-slot count is part of the capacity rule, which pipeline keeps
    outside = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "pipeline.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        if "HEADER_SLOTS" in _references(tree) | imported:
            outside.add(path.name)
    assert not outside, f"modules besides pipeline.py refer to HEADER_SLOTS: {sorted(outside)}"


def test_only_gcrypt_binds_a_native_library():
    # both ciphers run in one native library or in neither; a second binding
    # would double the configurations the tests must cover
    outside = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module}
        for module in {name.split(".")[0] for name in imported} & {"ctypes", "_hashlib"}:
            if (path.name, module) != ("_gcrypt.py", "ctypes"):
                outside.add(f"{path.name}:{module}")
    assert not outside, f"native bindings outside _gcrypt.py: {sorted(outside)}"


# the steps each direction runs on a unit sit in one loop, so a change to the
# counter layout or to how units are encrypted edits one function per direction
CALLED_ONLY_IN = {
    "bf_ctr_transform": {"pipeline.embed_segments", "pipeline.recover_units"},
    "reserve_room_plane": {"pipeline.embed_segments"},
    "recover_plane": {"pipeline.recover_units"},
    # the in-place shifts each have one caller, which owns the buffer they write
    "hs_embed": {"pipeline.reserve_room_plane"},
    "hs_extract": {"pipeline.recover_plane"},
    # recovery has one way in, for PPM and Y4M alike
    "recover_units": {"pipeline.reveal_units", "cli._cmd_recover"},
}


def test_each_unit_step_is_called_from_one_loop_per_direction():
    callers: dict[str, set[str]] = {name: set() for name in CALLED_ONLY_IN}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for statement in tree.body:
            owner = f"{path.stem}.{getattr(statement, 'name', '<module>')}"
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in callers:
                    callers[name].add(owner)
    assert callers == CALLED_ONLY_IN


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = _references(tree) | exported
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            # `import a.b` binds `a`; `from m import x as y` binds `y`
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno}:{bound}")
    return unused


def test_every_import_is_used():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused, f"imported names nothing refers to: {unused}"
