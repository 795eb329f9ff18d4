import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import relieforge as rf

from conftest import make_pgm, make_png

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
