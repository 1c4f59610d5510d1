#!/usr/bin/env python3
"""Serving benchmark: build, prepare the seeded inputs, measure, report.

Run from the repository root:

    python3 servebench/run.py --workload replay-1m --seed 1 --seconds 30 --trace 0
    python3 servebench/run.py --workload replay-1m --seed 1 --seconds 30 --trace 1
    python3 servebench/run.py --self-test

The first call configures and builds servebench/ (the repl library, the
repl_cluster worker and the harness) in Release mode under .bench_build/.
Every run then generates its workload's log from the seed (cached by seed
under .bench_build/data/), measures in a process of its own, and prints
report lines, one provenance line, and as its last line the JSON result.
--trace 1 reports the per-layer metrics instead of the end-to-end ones and
writes a Chrome trace under .bench_build/out/. See servebench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("replay-1m", "live-paced", "cluster-2p")
BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in a process group of its own (the cluster workload's
    worker processes join it), killing the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return proc.returncode, out, err


def build(build_dir):
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w") as log:
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            code, _, _ = run_group(configure, BUILD_TIMEOUT_S, stdout=log,
                                   stderr=subprocess.STDOUT)
            if code != 0:
                shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"configure failed; see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        code, _, _ = run_group(["cmake", "--build", str(build_dir), "-j", jobs],
                               BUILD_TIMEOUT_S, stdout=log,
                               stderr=subprocess.STDOUT)
    if code != 0:
        fail(f"build failed; see {log_path}")
    build_type = ""
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        fail(f"refusing to measure a '{build_type}' build")
    return build_type


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    """The git commit when run inside a repository, else a hash of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_DIR,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "cmake", "examples", "servebench"):
        for path in sorted((REPO_DIR / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(REPO_DIR)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def self_test(build_dir):
    build(build_dir)
    code, _, _ = run_group(["ctest", "--test-dir", str(build_dir),
                            "--output-on-failure"], MEASURE_TIMEOUT_S)
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    # CARGO_TARGET_DIR, when set, overrides the build directory.
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.self_test:
        self_test(build_dir)
    if args.workload is None or args.seed is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_type = build(build_dir)
    harness = build_dir / "servebench"
    load_start = os.getloadavg()[0]
    data_dir = build_dir / "data"
    # Relative and short: unix socket paths must fit in ~100 bytes.
    work_dir = Path(os.path.relpath(build_dir / f"run-{os.getpid()}"))
    trace_out = build_dir / "out" / f"{args.workload}-s{args.seed}.trace.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    code, _, err = run_group([str(harness), "prepare", *common, "--data",
                              str(data_dir)], PREPARE_TIMEOUT_S,
                             stderr=subprocess.PIPE, text=True)
    if code != 0:
        fail(f"prepare failed: {err.strip()}")
    try:
        code, out, err = run_group(
            [str(harness), "measure", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--data", str(data_dir),
             "--work", str(work_dir), "--trace-out", str(trace_out)],
            MEASURE_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"measure failed (exit {code}): {err.strip()[-2000:]}")
    measured = json.loads(lines[-1])
    catalog = json.loads((REPO_DIR / "BENCHMARK.json").read_text())
    metrics = {}
    for metric in catalog["per_layer" if args.trace else "end_to_end"]:
        value = measured["values"].get(metric["name"])
        if value is None:
            if not args.trace:
                fail(f"end-to-end metric {metric['name']} was not measured")
            value = 0.0  # a layer the workload does not run did no work
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    result = {key: measured[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "commit": commit(),
        "build_type": build_type,
    }
    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
