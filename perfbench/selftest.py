"""Self-test of the benchmark: every workload at tiny sizes, then a broken mesh.

    python3 perfbench/selftest.py

Each workload runs once untraced and once traced through the same
oracles as a real run and must pass with every metric present; a traced
run must show time in exactly the layers the workload exercises. Then
an STL with one triangle's winding flipped goes through ``inspect`` and
must be counted as a failed operation. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

# Layers whose time must be non-zero on each workload; every other
# layer must read 0.
RUNS = {
    "logo-convert": {"image_io.decode", "image_io.gray", "transfer.apply", "heightfield.orient",
                     "heightfield.extent", "mesh.close", "mesh.validate", "stl_io.write"},
    "stl-inspect": {"stl_io.read", "mesh.validate"},
    "text-roundtrip": {"image_io.decode", "image_io.gray", "transfer.apply", "heightfield.orient",
                       "heightfield.extent", "mesh.close", "mesh.validate", "stl_io.write",
                       "stl_io.read"},
    "png-preview": {"image_io.decode", "image_io.gray", "transfer.apply", "heightfield.orient",
                    "heightfield.extent", "image_io.encode"},
}


def check_workloads() -> list[str]:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in bench.WORKLOADS:
        for trace in (False, True):
            result, lines = bench.run(workload, seed=1, seconds=0, trace=trace, size="tiny")
            tag = f"{workload} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: oracles failed: {[ln for ln in lines if ln.startswith('FAIL')]}")
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"{tag}: metrics {sorted(result['metrics'])}")
            if trace:
                for layer in bench.LAYERS:
                    busy = result["metrics"][f"{layer}_s"]["value"] > 0
                    if busy != (layer in RUNS[workload]):
                        problems.append(f"{tag}: layer {layer} busy={busy}")
    return problems


def check_broken_mesh() -> list[str]:
    work = bench.WORK / "selftest-negative"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = bench.Runner(bench.ROOT, work, time.monotonic() + bench.RUN_LIMIT_S)
        manifest = bench.generate(runner, "stl-inspect", 1, "tiny", negative=True)
        checker = bench.Checker(manifest["expect"])
        cmds = [bench.Command("inspect", [str(work / "flipped.stl")])]
        samples = bench.run_ops(runner, cmds, checker, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for s in samples if s.errors)
    if failed != len(samples):
        return [f"flipped winding: {failed} of {len(samples)} operations counted as failed"]
    return []


def main() -> int:
    problems = check_workloads() + check_broken_mesh()
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
