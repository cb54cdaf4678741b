#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (the library sources plus the benchmark's own files) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. The benchmark executable runs the workload in its own
process and prints human-readable lines and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

This script checks that object against BENCHMARK.json (every end_to_end metric
with --trace 0, every per_layer metric with --trace 1, with the listed units)
and prints it as its own last line. It exits non-zero if the build fails, the
sources are missing, a pass failed its correctness gate, or the object does
not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build():
    """Configure once, then build incrementally; returns the executable."""
    if not (ROOT / "src" / "engine" / "engine.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except FileNotFoundError:
            fail("cmake not found", 2)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 2)
    exe = out / "kb_perfbench"
    if not exe.is_file():
        fail("build produced no kb_perfbench", 2)
    return exe


def run_exe(exe, args):
    """Run the executable in its own process group; returns (code, stdout).
    On timeout the whole group is killed and waited for."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    proc = subprocess.Popen([str(exe)] + args, stdout=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        # On a timeout or a signal to this script, stop the benchmark and
        # any set-up child it spawned, and wait for them.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, stdout


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_result(result, expected):
    """Problems with a result object, given {metric name: unit}."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append(f"missing metrics: {', '.join(missing)}")
    if extra:
        problems.append(f"unlisted metrics: {', '.join(extra)}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"{name}: needs exactly value and unit")
            continue
        value = m["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if m["unit"] != unit:
            problems.append(f"{name}: unit {m['unit']!r} != listed {unit!r}")
    return problems


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_spec(spec):
    """Problems with BENCHMARK.json's names, units and bounds."""
    problems = []
    seen = set()
    groups = [("workloads", spec.get("workloads", [])),
              ("end_to_end", spec.get("end_to_end", [])),
              ("per_layer", spec.get("per_layer", []))]
    for group, items in groups:
        for item in items:
            name = item.get("name", "")
            if not NAME_RE.fullmatch(name):
                problems.append(f"{group}: bad name {name!r}")
            if (group, name) in seen:
                problems.append(f"{group}: {name} listed twice")
            seen.add((group, name))
            if "unit" in item and not UNIT_RE.fullmatch(item["unit"]):
                problems.append(f"{group}: {name} has bad unit")
            if group == "end_to_end" and not 0 < item.get("bound", 0) <= 0.25:
                problems.append(f"{name}: bound must be in (0, 0.25]")
    setup = [m for m in spec.get("end_to_end", []) if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    return problems


def self_test():
    spec = load_spec()
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        failures += 0 if ok else 1

    problems = check_spec(spec)
    expect(not problems, "BENCHMARK.json names, units and bounds: "
           + ("; ".join(problems) or "valid"))
    expected = expected_metrics(spec, 0)
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": u}
                        for n, u in expected.items()}}
    expect(not check_result(good, expected), "a complete result is accepted")
    dropped = json.loads(json.dumps(good))
    dropped["metrics"].pop(next(iter(expected)))
    expect(check_result(dropped, expected),
           "a result missing a listed metric is rejected")
    exe = build()
    code, stdout = run_exe(exe, ["--self-test",
                                 str(build_dir() / "out" / "selftest")])
    sys.stdout.write(stdout)
    expect(code == 0, "kb_perfbench --self-test")
    print(f"{failures} self-test failure(s)")
    return 1 if failures else 0


def stop(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        fail("--workload is required", 2)
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    exe = build()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    out = build_dir() / "out"
    out.mkdir(parents=True, exist_ok=True)
    code, stdout = run_exe(exe, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(out), "--digests", str(HERE / "digests.txt")])
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(stdout)
        fail(f"benchmark exited {code} without a result")
    problems = check_result(result, expected_metrics(spec, args.trace))
    for line in lines[:-1]:
        print(line)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    if problems:
        return 1
    return code if code != 0 else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
