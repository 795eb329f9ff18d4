import importlib
import importlib.util
import sys
from pathlib import Path

import relieforge as rf

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_names_unique_and_resolve():
    assert len(rf.__all__) == len(set(rf.__all__))
    for name in rf.__all__:
        assert hasattr(rf, name), name


def test_trace_hooks_name_callables(monkeypatch):
    # Loaded from its file: "import trace" would find the standard library's module.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # trace.py imports its sibling run.py
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(trace)
    finally:
        sys.modules.pop("run", None)
    assert trace.HOOKS
    for layer, module_name, name in trace.HOOKS:
        fn = getattr(importlib.import_module(module_name), name, None)
        assert callable(fn), f"{layer}: {module_name}.{name}"
