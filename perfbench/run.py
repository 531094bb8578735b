#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fleet_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The harness (perfbench/bench.cpp)
and the library are built from source into the directory named by
CARGO_TARGET_DIR, or .bench_build, inside the checkout. Stdout carries an
environment header line, the harness's own report, and as its last line one
JSON object with the keys correct, attempted, failed and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170  # every run must end within 180 s


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else (Path.cwd() / path)


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no Valkyrie source tree at {ROOT}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "valkbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail("build failed: " + " ".join(cmd), 3)
    binary = out / "valkbench"
    if not binary.is_file():
        fail("build produced no valkbench binary", 3)
    return binary


def read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cgroup_quota():
    v2 = read("/sys/fs/cgroup/cpu.max")
    if v2:
        return v2
    quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    return f"{quota} {period}" if quota else "unknown"


def cpu_model():
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += sorted(p for p in BENCH_DIR.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build_type(out):
    for line in (read(out / "CMakeCache.txt") or "").splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        fail("--workload is required")

    out = build_dir()
    binary = build(out)
    if args.selftest:
        sys.exit(subprocess.run([str(binary), "--selftest"], timeout=RUN_TIMEOUT_S).returncode)

    header = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota": cgroup_quota(),
        "cpu_model": cpu_model(),
        "build_type": build_type(out),
        "revision": source_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(args.trace),
    }
    print("# env " + json.dumps(header, sort_keys=True), flush=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"valkbench exited with {done.returncode}", 5)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 5)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
