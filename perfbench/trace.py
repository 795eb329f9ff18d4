"""Traced in-process run of one benchmark operation.

    PYTHONPATH=src python3 perfbench/trace.py SPEC.json SPANS.json

SPEC.json holds ``commands`` (each an ``argv`` for ``relieforge.cli.main``
and the ``output`` file it writes, if any) and ``seconds``. The script
wraps the public functions the CLI calls in each module, then makes two
passes over the operation:

1. a timed pass, repeating the operation within ``seconds`` (at least
   once), that records one span per call: name, start, end, parent,
   operation;
2. a memory pass, one operation under ``tracemalloc``, that records each
   call's peak allocation. It is separate because tracemalloc's
   per-allocation cost would distort the timings of the per-byte Python
   loops being measured.

Spans stay in memory and are written to SPANS.json at the end, with each
operation's exit codes, reports and output digests for the oracles. A
hook whose function is missing from the package is an error (exit 3),
never a silently dropped layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time
import traceback
import tracemalloc

from run import sha256_file  # this script's directory is first on sys.path

# (layer, module, name). The names bound in relieforge.cli are patched
# there because cli calls them through its own globals; image_io and
# transfer are called through the module, so the module is patched.
HOOKS = (
    ("image_io.decode", "relieforge.image_io", "decode_png"),
    ("image_io.decode", "relieforge.image_io", "decode_pgm"),
    ("image_io.gray", "relieforge.image_io", "to_grayscale"),
    ("image_io.encode", "relieforge.image_io", "encode_pgm"),
    ("transfer.apply", "relieforge.transfer", "apply"),
    ("heightfield.orient", "relieforge.cli", "grid_from_image"),
    ("heightfield.extent", "relieforge.cli", "assign_extent"),
    ("mesh.close", "relieforge.cli", "close_solid"),
    ("mesh.validate", "relieforge.cli", "validate"),
    ("stl_io.write", "relieforge.cli", "write_binary_stl"),
    ("stl_io.write", "relieforge.cli", "write_ascii_stl"),
    ("stl_io.read", "relieforge.cli", "read_stl"),
)


def _counts(layer: str, args: tuple, result) -> dict:
    """Work done by one call, read from its arguments and result."""
    if layer == "image_io.decode":
        return {"px": result.width * result.height}
    if layer == "mesh.close":
        return {"vertices": len(result.vertices), "triangles": result.triangle_count}
    if layer == "mesh.validate":
        return {"vertices": len(args[0].vertices), "triangles": args[0].triangle_count}
    if layer == "stl_io.write":
        return {"bytes": result}
    if layer == "stl_io.read":
        return {"vertices": len(result.vertices), "corners": 3 * result.triangle_count}
    return {}


class Tracer:
    """Span recorder; spans refer to their parent by index."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op = -1
        self.memory = False

    def open(self, name: str) -> dict:
        span = {
            "name": name,
            "op": self.op,
            "parent": self.stack[-1] if self.stack else None,
            "start": time.perf_counter(),
        }
        if self.memory:
            # Fold the peak so far into the open spans before resetting it.
            current, peak = tracemalloc.get_traced_memory()
            for i in self.stack:
                self.spans[i]["high"] = max(self.spans[i]["high"], peak)
            tracemalloc.reset_peak()
            span["base"] = span["high"] = current
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self.memory:
            span["peak_bytes"] = max(span.pop("high"), tracemalloc.get_traced_memory()[1]) - span.pop("base")
        self.stack.pop()

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.update(_counts(layer, args, result))
            return result

        return traced


def install(tracer: Tracer) -> None:
    missing = []
    for layer, module_name, name in HOOKS:
        module = importlib.import_module(module_name)
        fn = getattr(module, name, None)
        if not callable(fn):
            missing.append(f"{module_name}.{name}")
            continue
        setattr(module, name, tracer.wrap(layer, fn))
    if missing:
        raise LookupError("cannot trace missing functions: " + ", ".join(missing))


def run_op(tracer: Tracer, main, commands: list[dict], pass_name: str) -> dict:
    tracer.op += 1
    codes, stdouts = [], []
    span = tracer.open("op")
    for cmd in commands:
        out, crash = io.StringIO(), ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(cmd["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails the operation, not the run
                code, crash = 1, traceback.format_exc()
        sys.stderr.write(crash)
        codes.append(code)
        stdouts.append(out.getvalue())
    tracer.close(span)
    digests = {c["output"]: sha256_file(c["output"]) for c in commands
               if c["output"] and os.path.exists(c["output"])}
    return {"op": tracer.op, "pass": pass_name, "codes": codes, "stdouts": stdouts,
            "digests": digests}


def main(argv=None) -> int:
    spec_path, out_path = argv if argv is not None else sys.argv[1:]
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = Tracer()
    try:
        install(tracer)
    except (ImportError, LookupError) as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 3
    from relieforge.cli import main as cli_main

    # Like the untraced loop: start another operation only while one as
    # long as the last still fits in the window.
    ops = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        ops.append(run_op(tracer, cli_main, spec["commands"], "time"))
        now = time.perf_counter()
        if now - start + (now - began) > spec["seconds"]:
            break
    tracer.memory = True
    tracemalloc.start()
    ops.append(run_op(tracer, cli_main, spec["commands"], "memory"))
    tracemalloc.stop()
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "ops": ops}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
