#!/usr/bin/env python3
"""Build and run one perfbench workload, check it, and print its result.

    python3 perfbench/run.py --workload campaign|onboard|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
the benchmark (CMake + Ninja, Release) into .bench_build/perfbench;
later runs only re-check the build. Each run gets a fresh private
campaign-cache directory and pinned ACDSE_THREADS / ACDSE_SERVE_THREADS.
The full result -- every metric with its note, the output checks, the
golden digests, per-layer self times and a provenance block -- lands in
.bench_results/; the last line of standard output is the JSON summary
with the metric set BENCHMARK.json names for this mode (end_to_end with
--trace 0, per_layer with --trace 1).

--write-goldens replaces perfbench/goldens.json with this run's golden
digests (only do that for a change that is meant to move numerics).
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_results"
GOLDENS = BENCH_DIR / "goldens.json"
GOLDEN_KEYS = ("cells", "predictions", "frontier", "onboard_cells",
               "onboard_predictions", "onboard_frontier", "cycles_rmae_bits")
RUN_TIMEOUT_S = 170
# The library's CMake options as perfbench/CMakeLists.txt builds it: the
# root build's defaults, fixed (none of them can be set for the benchmark).
ACDSE_CMAKE_OPTIONS = {
    "ACDSE_NATIVE": "OFF",
    "ACDSE_FAST_TANH": "ON",
    "ACDSE_SIMD": "ON",
    "ACDSE_SIM_BATCH": "ON",
    "ACDSE_OBS": "ON",
    "ACDSE_SANITIZE": "",
    "ACDSE_COVERAGE": "OFF",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the benchmark binary up to date."""
    if not (ROOT / "src" / "acdse.hh").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "build.ninja").is_file():
        step = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    step = ["cmake", "--build", str(BUILD_DIR), "-j",
            str(len(os.sched_getaffinity(0)))]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return BUILD_DIR / "acdse_perfbench"


def cmake_cache():
    cache = {}
    path = BUILD_DIR / "CMakeCache.txt"
    for line in path.read_text().splitlines():
        if line.startswith(("#", "//")) or "=" not in line:
            continue
        key, value = line.split("=", 1)
        cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, env):
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = "unknown"
    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if sha else None
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "cmake_options": ACDSE_CMAKE_OPTIONS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "acdse_env": {k: v for k, v in sorted(env.items())
                      if k.startswith("ACDSE_")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def check_goldens(raw):
    """Compare the run's golden digests with goldens.json."""
    if not GOLDENS.is_file():
        return [{"name": "golden.file_present", "ok": False, "runs": 1,
                 "detail": f"{GOLDENS.name} is missing"}]
    want = json.loads(GOLDENS.read_text())
    checks = []
    for key in GOLDEN_KEYS:
        got = raw["golden"].get(key)
        checks.append({"name": f"golden.{key}", "ok": got == want.get(key),
                       "runs": 1,
                       "detail": "" if got == want.get(key)
                       else f"got {got}, golden {want.get(key)}"})
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "onboard", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    work = RESULTS_DIR / f".work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cache").mkdir(parents=True)

    env = {k: v for k, v in os.environ.items() if not k.startswith("ACDSE_")}
    env["ACDSE_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["ACDSE_SERVE_THREADS"] = "1"
    env["ACDSE_CACHE_DIR"] = str(work / "cache")
    env["TMPDIR"] = str(work)
    raw_path = work / "raw.json"
    spans_path = RESULTS_DIR / f"{name}.spans.csv"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(raw_path),
           "--cache-dir", str(work / "cache")]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not raw_path.is_file():
        shutil.rmtree(work, ignore_errors=True)
        fail(f"benchmark exited with code {proc.returncode}")
    raw = json.loads(raw_path.read_text())
    shutil.rmtree(work, ignore_errors=True)

    golden_checks = check_goldens(raw)
    raw["checks"].extend(golden_checks)
    failed = raw["failed"] + sum(not c["ok"] for c in golden_checks)
    correct = all(c["ok"] for c in raw["checks"]) and failed == 0

    metrics = {}
    for metric in wanted:
        got = raw["metrics"].get(metric["name"])
        if got is None:
            fail(f"metric {metric['name']} was not measured")
        if got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"],
                                   "unit": got["unit"]}
    line = {"correct": correct, "attempted": raw["attempted"],
            "failed": failed, "metrics": metrics}

    result = dict(line)
    result["provenance"] = provenance(args, env)
    result["run"] = raw
    if args.trace:
        result["spans_file"] = spans_path.name
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    if args.write_goldens:
        if not all(c["ok"] for c in raw["checks"]
                   if not c["name"].startswith("golden.")):
            fail("not writing goldens from a run whose checks failed")
        GOLDENS.write_text(json.dumps(
            {k: raw["golden"][k] for k in GOLDEN_KEYS}
            | {"cycles_rmae_pct": raw["golden"]["cycles_rmae_pct"]},
            indent=1) + "\n")
        print(f"perfbench: wrote {GOLDENS}", file=sys.stderr)

    print_table(raw, correct, failed)
    print(json.dumps(line))


def print_table(raw, correct, failed):
    """Every measured metric by name and unit, for a human, on stderr."""
    out = sys.stderr
    print(f"perfbench: {raw['workload']} seed {raw['seed']} "
          f"trace {int(raw['trace'])}: correct={correct} "
          f"attempted={raw['attempted']} failed={failed}", file=out)
    for name, m in raw["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:9s} {m['note']}",
              file=out)
    for check in raw["checks"]:
        if not check["ok"]:
            print(f"  FAILED {check['name']}: {check['detail']}", file=out)


if __name__ == "__main__":
    main()
