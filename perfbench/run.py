#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-sim --seed 1 --seconds 20 --trace 0

The benchmark binary is built from source first (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; metrics hold every end_to_end metric of BENCHMARK.json with
--trace 0 and every per_layer metric with --trace 1. The exit code is 0 only
when every correctness check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-mlcr", "fleet-sim")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build the perfbench target (incremental)."""
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def source_id():
    """git commit when the tree is a git checkout, plus a hash of the sources
    the binary is built from (the benchmark's checkout is not a git repo)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ident = "tree=" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
            ident = f"git={sha},{ident}"
        except (OSError, subprocess.CalledProcessError):
            pass
    return ident


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full "
             "checkout of the repository")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing from the repository root")
    expected = expected_metrics(args.trace)

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root.resolve() / "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--model", str(HERE / "mlcr_overall.model"),
           "--source-sha", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode not in (0, 1):
        fail(f"{args.workload} exited with code {proc.returncode}", 1)

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result line has the wrong keys", 1)
    if list(result["metrics"]) != expected:
        fail("the metrics differ from BENCHMARK.json", 1)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
