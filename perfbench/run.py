#!/usr/bin/env python3
"""Build and run one workload of the lib·erate benchmark.

    python3 perfbench/run.py --workload fleet-soak --seed 1 --trace 0

Run from the repository root. The first run configures and builds the
library (the repository's default build) and the benchmark program under
.bench_build/; later runs only rebuild what changed. Each run is one process
of the benchmark program, so its peak RSS is the workload's own.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). The full result document — every metric the
run measured, the output checks and the run context — is saved under
.bench_build/results/ for compare.py; traced runs also leave their spans
under .bench_build/spans/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "liberate"
BENCH_BUILD = BUILD / "perfbench"
BINARY = BENCH_BUILD / "liberate_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Content digest of everything the benchmark builds from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", HERE):
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    # Only the checkout's own repository: outside one, git would search the
    # parent directories.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    BUILD.mkdir(exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (LIB_BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD)])
    steps.append(["cmake", "--build", str(LIB_BUILD), "--target",
                  "liberate_deploy", "-j", jobs])
    if not (BENCH_BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BENCH_BUILD),
                      f"-DLIBERATE_BUILD_DIR={LIB_BUILD}"])
    steps.append(["cmake", "--build", str(BENCH_BUILD), "-j", jobs])
    with open(BUILD / "build.log", "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                fail(f"build step failed: {' '.join(cmd)} "
                     f"(see {BUILD / 'build.log'})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "deploy" / "fleet.h").exists() or \
            not (ROOT / "CMakeLists.txt").exists():
        fail(f"no liberate sources under {ROOT}; "
             "run from a repository checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = json.loads((HERE / "seeds.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    seed = seeds["default"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()

    stamp = f"{args.workload}-s{seed}-t{args.trace}-{int(time.time() * 1e3)}"
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    result_path = results / f"{stamp}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--result", str(result_path)]
    if args.trace:
        (BUILD / "spans").mkdir(exist_ok=True)
        cmd += ["--spans", str(BUILD / "spans" / f"{stamp}.jsonl")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if not result_path.exists():
        fail(f"{args.workload} exited {proc.returncode} without a result")
    doc = json.loads(result_path.read_text())
    doc["context"].update({"git_sha": git_sha(),
                           "source_digest": source_digest()})
    result_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    measured = doc["metrics"]
    for name in sorted(measured):
        print(f"  {name:44s} {measured[name]!r}")
    for name, ok in doc["checks"].items():
        print(f"  check {name:38s} {'ok' if ok else 'FAILED'}")
    print(f"  result document: {result_path.relative_to(ROOT)}")

    missing = [m["name"] for m in wanted if measured.get(m["name"]) is None]
    if missing:
        print(f"  missing metrics: {missing}")
    correct = bool(doc["correct"]) and proc.returncode == 0 and not missing
    line = {
        "correct": correct,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] not in missing},
    }
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
