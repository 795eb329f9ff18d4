"""End-to-end benchmark of the relieforge CLI.

    python3 perfbench/run.py --workload logo-convert --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each run generates its inputs from the
seed (``gen.py``, in its own process), then runs the workload's
operation again and again within ``--seconds`` seconds, one relieforge
process at a time, and checks every output against oracles that do not
use the package. Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics: wall time per operation,
per-process peak RSS and interpreter set-up time. ``--trace 1`` spends
half the time on untraced operations and half in ``trace.py``, which
calls ``relieforge.cli.main`` in-process with each module's public
functions wrapped, and reports per-layer metrics.

This script imports nothing outside the standard library and never
holds the inputs in memory: on Linux a child's ``ru_maxrss`` starts from
its parent's high-water mark, so a large parent would inflate every
reading. The exit code is 0 only when every oracle passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

# A run's processes are killed once the run has lasted this long, so a
# hung command fails the run instead of outliving its time limit.
RUN_LIMIT_S = 170.0
# Relative tolerance for every volume oracle. The oracles model the
# float32 rounding an STL file applies, so only float64 summation order
# separates them from the package's divergence-theorem sum.
VOLUME_RTOL = 1e-9
# `python -c pass` must peak below this share of the smallest operation.
IDLE_RSS_SHARE = 0.5
SETUP_SAMPLES = 9

MIB = 1024 * 1024

# Per-layer metrics in report order, with units.
LAYER_UNITS = {
    "image_io.decode_s": "s", "image_io.decode_peak_mb": "MiB", "image_io.gray_s": "s",
    "image_io.encode_s": "s", "image_io.in_mpx": "Mpx",
    "transfer.apply_s": "s", "heightfield.orient_s": "s", "heightfield.extent_s": "s",
    "mesh.close_s": "s", "mesh.close_peak_mb": "MiB", "mesh.validate_s": "s",
    "mesh.validate_peak_mb": "MiB", "mesh.vertices": "count", "mesh.triangles": "count",
    "mesh.tri_per_px": "1/px",
    "stl_io.write_s": "s", "stl_io.write_peak_mb": "MiB", "stl_io.out_mb": "MiB",
    "stl_io.read_s": "s", "stl_io.read_peak_mb": "MiB", "stl_io.weld_ratio": "ratio",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Command:
    """One relieforge process of an operation."""

    verb: str
    args: list[str]
    output: str | None = None

    def argv(self) -> list[str]:
        return [self.verb, *self.args]


def operation(workload: str, work: Path) -> list[Command]:
    """The commands one operation of ``workload`` runs, in order."""
    if workload == "logo-convert":
        out = str(work / "out.stl")
        return [Command("convert", [str(work / "logo.png"), "-o", out], out)]
    if workload == "stl-inspect":
        return [Command("inspect", [str(work / "grid.stl")])]
    if workload == "text-roundtrip":
        out = str(work / "out_ascii.stl")
        return [
            Command("convert", [str(work / "logo.pgm"), "--ascii", "-o", out], out),
            Command("inspect", [out]),
        ]
    if workload == "png-preview":
        out = str(work / "out.pgm")
        return [Command("preview", [str(work / "logo.png"), "-o", out], out)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("logo-convert", "stl-inspect", "text-roundtrip", "png-preview")


# ---------------------------------------------------------------------------
# Processes


class Runner:
    """Spawns children one at a time and reads each one's peak RSS."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.count = 0

    def spawn(self, argv: list[str]) -> tuple[float, float, int, bytes, bytes]:
        """Run ``argv`` to completion: (wall s, peak RSS MiB, exit code, stdout, stderr)."""
        self.count += 1
        out_path = self.work / f"proc{self.count}.out"
        err_path = self.work / f"proc{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            # os.kill, not proc.kill: Popen.kill polls, which could reap
            # the child before wait4 reads its usage.
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return elapsed, usage.ru_maxrss / 1024, proc.returncode, stdout, stderr

    def python(self, *args: str):
        return self.spawn([sys.executable, *args])

    def relieforge(self, cmd: Command):
        return self.python("-m", "relieforge", *cmd.argv())


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Oracles


class Checker:
    """Checks every operation of a run against the generator's expectations.

    ``outcome`` is called once per operation with each command's exit
    code and stdout and the sha256 of each file written; it returns the
    list of failed checks, empty when the operation passed.
    """

    def __init__(self, expect: dict):
        self.expect = expect
        self.reference: list | None = None

    def outcome(self, cmds: list[Command], codes: list[int], stdouts: list[bytes],
                digests: dict[str, str]) -> list[str]:
        errors: list[str] = []
        reports = []
        for cmd, code, stdout in zip(cmds, codes, stdouts):
            if code != 0:
                errors.append(f"{cmd.verb} exited {code}")
                reports.append(None)
                continue
            report = None
            if cmd.verb != "preview":
                try:
                    report = json.loads(stdout)
                except ValueError:
                    errors.append(f"{cmd.verb} printed no JSON report")
            reports.append(report)
            if report is not None:
                errors += self._report(cmd, report, reports)
            if cmd.output is not None:
                if cmd.output in digests:
                    errors += self._output(cmd, digests[cmd.output], report)
                else:
                    errors.append(f"{cmd.verb} wrote no {cmd.output}")
        # Same input, same bytes: every operation must match the first.
        # Only elapsed_ms may differ between reports.
        fingerprint = [sorted(digests.items())] + [
            {k: v for k, v in (r or {}).items() if k != "elapsed_ms"} for r in reports
        ]
        if not errors:
            if self.reference is None:
                self.reference = fingerprint
            elif fingerprint != self.reference:
                errors.append("output differs from the run's first operation")
        return errors

    def _report(self, cmd: Command, report: dict, reports: list) -> list[str]:
        exp = self.expect
        errors = []
        if report.get("watertight") is not True:
            errors.append(f"{cmd.verb}: watertight is {report.get('watertight')}")
        if report.get("euler") != 2:
            errors.append(f"{cmd.verb}: euler is {report.get('euler')}")
        if report.get("degenerate") != 0:
            errors.append(f"{cmd.verb}: degenerate is {report.get('degenerate')}")
        key = "volume_mm3" if cmd.verb == "convert" else "volume_f32_mm3"
        volume, want = report.get("volume_mm3"), exp[key]
        if not isinstance(volume, (int, float)) or abs(volume - want) > VOLUME_RTOL * abs(want):
            errors.append(f"{cmd.verb}: volume {volume!r} != oracle {want!r}")
        if cmd.verb == "convert":
            if report.get("bbox_mm") != exp["bbox_mm"]:
                errors.append(f"convert: bbox {report.get('bbox_mm')} != {exp['bbox_mm']}")
            if report.get("input_px") != exp["input_px"]:
                errors.append(f"convert: input_px {report.get('input_px')} != {exp['input_px']}")
        elif "triangles" in exp:
            for k in ("vertices", "triangles"):
                if report.get(k) != exp[k]:
                    errors.append(f"inspect: {k} {report.get(k)} != {exp[k]}")
        elif reports[0] is not None:
            # The round trip must read back the mesh convert reported.
            for k in ("vertices", "triangles"):
                if report.get(k) != reports[0].get(k):
                    errors.append(f"inspect: {k} {report.get(k)} != convert's {reports[0].get(k)}")
        return errors

    def _output(self, cmd: Command, digest: str, report: dict | None) -> list[str]:
        size = os.path.getsize(cmd.output)
        if cmd.verb == "preview":
            want = self.expect["pgm"]
            if (size, digest) != (want["bytes"], want["sha256"]):
                return ["preview: PGM differs from the oracle's rendering"]
            return []
        if "--ascii" in cmd.args:
            with open(cmd.output, "rb") as fh:
                if fh.read(5) != b"solid":
                    return ["convert --ascii: output does not start with 'solid'"]
            return []
        if report is not None and size != 84 + 50 * report["triangles"]:
            return [f"convert: STL has {size} bytes, not 84 + 50 * {report['triangles']}"]
        return []


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class OpSample:
    seconds: float
    cmd_seconds: list[float]
    peak_rss_mb: float
    errors: list[str]


def run_ops(runner: Runner, cmds: list[Command], checker: Checker, seconds: float) -> list[OpSample]:
    """Run the operation back to back within ``seconds`` (at least once).

    Another operation starts only while one as long as the last still fits.
    """
    samples = []
    start = time.perf_counter()
    while True:
        results = [runner.relieforge(cmd) for cmd in cmds]
        outputs = {c.output: sha256_file(c.output) for c in cmds
                   if c.output and os.path.exists(c.output)}
        errors = checker.outcome(cmds, [r[2] for r in results], [r[3] for r in results], outputs)
        if errors:
            for (_, _, code, _, stderr) in results:
                if code:
                    sys.stderr.write(stderr.decode(errors="replace"))
        samples.append(OpSample(
            seconds=sum(r[0] for r in results),
            cmd_seconds=[r[0] for r in results],
            peak_rss_mb=max(r[1] for r in results),
            errors=errors,
        ))
        if time.perf_counter() - start + samples[-1].seconds > seconds:
            return samples


def setup_times(runner: Runner) -> list[float]:
    """Wall times of fresh interpreters running ``import relieforge``.

    The first import writes bytecode caches, so it is run once untimed.
    """
    code = "import relieforge"
    _, _, status, _, stderr = runner.python("-c", code)
    if status != 0:
        raise SystemExit(f"perfbench: cannot import relieforge:\n{stderr.decode(errors='replace')}")
    return [runner.python("-c", code)[0] for _ in range(SETUP_SAMPLES)]


def tail(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    parts = [f"n={len(values)}"]
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            parts.append(f"p{pct}={cut:.6g}")
            break
    return ", ".join(parts)


def end_to_end(samples: list[OpSample], cmds: list[Command], setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics and the lines that print them with sample counts."""
    metrics = {
        "op_s": (statistics.median(s.seconds for s in samples), "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    lines = [
        f"op_s {metrics['op_s'][0]:.6f} s ({tail([s.seconds for s in samples])})",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.3f} MiB (n={len(samples)})",
        f"setup_s {metrics['setup_s'][0]:.6f} s ({tail(setup)})",
    ]
    # Per-command times, named as the user types the command.
    for i, cmd in enumerate(cmds):
        times = [s.cmd_seconds[i] for s in samples]
        lines.append(f"{cmd.verb}_s {statistics.median(times):.6f} s ({tail(times)})")
    for cmd in cmds:
        if cmd.output and cmd.output.endswith(".stl") and os.path.exists(cmd.output):
            lines.append(f"stl_mb {os.path.getsize(cmd.output) / MIB:.6f} MiB")
    return metrics, lines


# ---------------------------------------------------------------------------
# Traced run

LAYERS = (
    "image_io.decode", "image_io.gray", "image_io.encode", "transfer.apply",
    "heightfield.orient", "heightfield.extent", "mesh.close", "mesh.validate",
    "stl_io.write", "stl_io.read",
)
PEAK_LAYERS = ("image_io.decode", "mesh.close", "mesh.validate", "stl_io.write", "stl_io.read")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _op_layers(op: dict, spans: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced operation; layers that did not run are 0."""
    mine = [s for s in spans if s["op"] == op["op"] and s["name"] != "op"]

    def total(layer: str, key: str) -> float:
        return sum(s.get(key, 0) for s in mine if s["name"] == layer)

    values = {f"{layer}_s": sum(s["end"] - s["start"] for s in mine if s["name"] == layer)
              for layer in LAYERS}
    checked = [s for s in mine if s["name"] == "mesh.validate"]
    values.update({
        "image_io.in_mpx": total("image_io.decode", "px") / 1e6,
        "mesh.vertices": checked[-1]["vertices"] if checked else 0,
        "mesh.triangles": checked[-1]["triangles"] if checked else 0,
        "mesh.tri_per_px": _ratio(total("mesh.close", "triangles"), total("image_io.decode", "px")),
        "stl_io.out_mb": total("stl_io.write", "bytes") / MIB,
        "stl_io.weld_ratio": _ratio(total("stl_io.read", "vertices"), total("stl_io.read", "corners")),
        "cli.self_s": op["self"],
    })
    return values


def _nesting_errors(op_index: int, spans: list[dict]) -> list[str]:
    """Children of an operation span must lie inside it without overlapping."""
    op = spans[op_index]
    children = sorted((s for s in spans if s["parent"] == op_index), key=lambda s: s["start"])
    errors = []
    last = op["start"]
    for child in children:
        if child["start"] < last or child["end"] > op["end"]:
            errors.append(f"trace: span {child['name']} of operation {op['op']} is not nested")
        last = child["end"]
    return errors


def traced(runner: Runner, cmds: list[Command], checker: Checker, seconds: float,
           e2e: dict, setup: list[float]):
    """Run trace.py, check its operations, and derive the per-layer metrics.

    Returns (metrics, lines, attempted, failed, errors).
    """
    spec, spans_path = runner.work / "trace-spec.json", runner.work / "trace-spans.json"
    spec.write_text(json.dumps({
        "seconds": seconds,
        "commands": [{"argv": c.argv(), "output": c.output} for c in cmds],
    }))
    _, _, status, _, stderr = runner.python(str(HERE / "trace.py"), str(spec), str(spans_path))
    if status != 0:
        raise SystemExit(f"perfbench: traced run failed:\n{stderr.decode(errors='replace')}")
    data = json.loads(spans_path.read_text())
    spans, ops = data["spans"], data["ops"]

    errors: list[str] = []
    failed = 0
    for op in ops:
        op_errors = checker.outcome(cmds, op["codes"], [s.encode() for s in op["stdouts"]],
                                    op["digests"])
        failed += bool(op_errors)
        errors += op_errors
        index = next(i for i, s in enumerate(spans) if s["name"] == "op" and s["op"] == op["op"])
        errors += _nesting_errors(index, spans)
        children = sum(s["end"] - s["start"] for s in spans if s["parent"] == index)
        op["span"] = spans[index]["end"] - spans[index]["start"]
        op["self"] = op["span"] - children

    timed = [op for op in ops if op["pass"] == "time"]
    per_op = [_op_layers(op, spans) for op in timed]
    metrics = {name: (statistics.median(v[name] for v in per_op), unit)
               for name, unit in LAYER_UNITS.items() if name in per_op[0]}
    memory = next(op for op in ops if op["pass"] == "memory")
    for layer in PEAK_LAYERS:
        peaks = [s["peak_bytes"] for s in spans if s["op"] == memory["op"] and s["name"] == layer]
        metrics[f"{layer}_peak_mb"] = (max(peaks, default=0) / MIB, "MiB")
    op_span = statistics.median(op["span"] for op in timed)
    untraced = e2e["op_s"][0] - len(cmds) * e2e["setup_s"][0]
    metrics["trace.overhead_s"] = (op_span - untraced, "s")
    metrics = {name: metrics[name] for name in LAYER_UNITS}

    lines = [f"traced_op_s {op_span:.6f} s (n={len(timed)})"]
    for name, (value, unit) in metrics.items():
        n = 1 if name.endswith("_peak_mb") else len(timed)
        lines.append(f"{name} {value:.6g} {unit} (n={n})")
    return metrics, lines, len(ops), failed, errors


def machine(manifest: dict) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"machine nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()}"
            f" numpy={manifest['numpy']}")


def generate(runner: Runner, workload: str, seed: int, size: str, negative: bool = False) -> dict:
    args = [str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
            "--out", str(runner.work)]
    if size == "tiny":
        args.append("--tiny")
    if negative:
        args.append("--negative")
    _, _, status, _, stderr = runner.python(*args)
    if status != 0:
        raise SystemExit(f"perfbench: input generation failed:\n{stderr.decode(errors='replace')}")
    return json.loads((runner.work / "manifest.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the lines printed before it."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(ROOT, work, time.monotonic() + RUN_LIMIT_S)
    try:
        manifest = generate(runner, workload, seed, size)
        lines = [f"# perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}",
                 machine(manifest)]
        lines += [f"input {name} {d['bytes']} B sha256={d['sha256']}"
                  for name, d in manifest["inputs"].items()]
        setup = setup_times(runner)
        cmds = operation(workload, work)
        checker = Checker(manifest["expect"])
        untraced = seconds / 2 if trace else seconds
        samples = run_ops(runner, cmds, checker, untraced)
        failures = [e for s in samples for e in s.errors]
        attempted, failed = len(samples), sum(1 for s in samples if s.errors)
        e2e, e2e_lines = end_to_end(samples, cmds, setup)
        lines += e2e_lines

        # At tiny sizes an operation peaks barely above an idle interpreter,
        # so the comparison only means something at full size.
        idle = runner.python("-c", "pass")[1]
        smallest = min(s.peak_rss_mb for s in samples)
        lines.append(f"idle_child_rss_mb {idle:.3f} MiB (smallest operation {smallest:.3f} MiB)")
        if size == "full" and idle >= IDLE_RSS_SHARE * smallest:
            failures.append(f"an idle child peaks at {idle:.1f} MiB: this process's RSS leaks into children")

        if trace:
            metrics, layer_lines, t_attempted, t_failed, t_errors = traced(
                runner, cmds, checker, seconds - untraced, e2e, setup)
            lines += layer_lines
            attempted += t_attempted
            failed += t_failed
            failures += t_errors
        else:
            metrics = e2e
        lines.append(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} operations)")
        lines += [f"FAIL {e}" for e in failures]
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="relieforge CLI benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "relieforge" / "__init__.py").is_file():
        print(f"perfbench: no relieforge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
