import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import relieforge as rf

from conftest import make_pgm, make_png

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(rf.__file__).resolve().parent


def test_all_names_unique_and_resolve():
    assert len(rf.__all__) == len(set(rf.__all__))
    for name in rf.__all__:
        assert hasattr(rf, name), name


def load_trace(monkeypatch):
    # Loaded from its file: "import trace" would find the standard library's module.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # trace.py imports its sibling run.py
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(trace)
    finally:
        sys.modules.pop("run", None)
    return trace


def test_trace_hooks_name_callables(monkeypatch):
    trace = load_trace(monkeypatch)
    assert trace.HOOKS
    for layer, module_name, name in trace.HOOKS:
        fn = getattr(importlib.import_module(module_name), name, None)
        assert callable(fn), f"{layer}: {module_name}.{name}"


def test_traced_decode_counts_pixels(monkeypatch):
    trace = load_trace(monkeypatch)
    png = make_png(np.zeros((3, 5, 4), dtype=np.uint8), color_type=6)
    pgm = make_pgm(np.zeros((2, 7), dtype=np.uint8))
    assert trace._counts("image_io.decode", (), rf.decode_png(png)) == {"px": 15}
    assert trace._counts("image_io.decode", (), rf.decode_pgm(pgm)) == {"px": 14}


def test_every_private_module_name_is_read():
    # A module-level _name that no other statement in the package reads
    # is a leftover. A bare name counts in its own module; `module._name`
    # and `from .module import _name` count from anywhere.
    defined, read_in, read_anywhere = [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                own = set()
            defined += [(path.name, n) for n in own if n.startswith("_") and not n.startswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                    read_in.add((path.name, node.id))
                elif isinstance(node, ast.Attribute) and node.attr not in own:
                    read_anywhere.add(node.attr)
                elif isinstance(node, ast.alias):
                    read_anywhere.add(node.name)
    assert defined
    unread = [f"{m}: {n}" for m, n in defined if (m, n) not in read_in and n not in read_anywhere]
    assert unread == []


def test_every_imported_name_is_read():
    # A name a module imports and never reads is a leftover. `import a.b`
    # binds `a`; __future__ imports, star imports and the names a module
    # lists in __all__ (its re-exports) are exempt.
    imported, unread = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exported, bound, read = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name != "*":
                        bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.Assign) and "__all__" in [
                getattr(t, "id", None) for t in node.targets
            ]:
                exported |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        imported += len(bound)
        unread += [f"{path.name}: {n}" for n in sorted(bound - read - exported)]
    assert imported
    assert unread == []


def test_import_loads_no_new_standard_module():
    # Every run pays for what `import relieforge` loads: the benchmark's
    # setup_s times that import alone. Beyond numpy's modules it loads the
    # package's own and these; a new one needs a reason. conftest puts src
    # on PYTHONPATH for the child.
    code = "import sys, numpy; s = set(sys.modules); import relieforge; print(*set(sys.modules) - s)"
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    allowed = {"__future__", "_json", "argparse", "copy", "dataclasses", "gettext", "json"}
    new = [m for m in loaded if m.partition(".")[0] not in allowed | {"relieforge"}]
    assert "relieforge.cli" in loaded and new == []
