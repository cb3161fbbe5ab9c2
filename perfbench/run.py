#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the program and the benchmark
driver from source (Release) into $CARGO_TARGET_DIR or .bench_build, runs
one workload in its own scratch directory, checks that every process it
started has ended, and prints the result as the last stdout line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The line before it is an environment stamp. Any oracle
mismatch, refused build, leftover process or build failure exits non-zero
without a result. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pair_point", "sharded_mix", "live_skewed"]
RUN_LIMIT_S = 170  # every run but a building one ends within 180 s
BUILD_LIMIT_S = 840


def fail(msg, code=1):
    print(f"perfbench: {msg}", flush=True)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds the driver, the server and the router."""
    cdir = os.path.join(bdir, "cmake")
    os.makedirs(cdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(cdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", cdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log, timeout=BUILD_LIMIT_S):
                fail(f"configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", cdir, "-j", jobs, "--target",
                            "perfbench_driver"], stdout=log, stderr=log,
                           timeout=BUILD_LIMIT_S):
            fail(f"build failed, see {log_path}")
    cache = open(os.path.join(cdir, "CMakeCache.txt")).read()
    build_type = ""
    for line in cache.splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
        if line.startswith("CMAKE_CXX_FLAGS") and "-fsanitize" in line:
            fail("refusing a sanitizer build", 2)
    if build_type not in ("Release", "RelWithDebInfo"):
        fail(f"refusing a {build_type or 'unoptimized'} build", 2)
    return cdir, build_type


def our_processes(binaries):
    """Pids of running processes whose executable is one of ours."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            exe = os.readlink(f"/proc/{entry}/exe")
        except OSError:
            continue
        if exe.removesuffix(" (deleted)") in binaries:
            pids.append(int(entry))
    return pids


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def cpu_times():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def commit():
    if os.environ.get("GIT_COMMIT"):
        return os.environ["GIT_COMMIT"]
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", type=int, choices=[0, 1], default=0,
                    help="smoke-scale corpora (self-test)")
    ap.add_argument("--corrupt-oracle", type=int, choices=[0, 1], default=0,
                    help="corrupt one expected fingerprint (self-test)")
    args = ap.parse_args()
    started = time.monotonic()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found", 2)
    if not (os.path.exists(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the program's sources are not in this checkout", 2)
    if "REPRO_KERNEL" in os.environ:
        fail("refusing a forced kernel tier (REPRO_KERNEL is set)", 2)
    spec = json.load(open(spec_path))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    bdir = build_dir()
    cdir, build_type = build(bdir)
    built_s = time.monotonic() - started
    driver = os.path.join(cdir, "perfbench_driver")
    serve = os.path.join(cdir, "repo", "batmap_serve")
    router = os.path.join(cdir, "repo", "batmap_router")
    left = our_processes({driver, serve, router})
    if left:
        fail(f"leftover benchmark processes from an earlier run: {left}")

    rundir = os.path.join(bdir, "runs", str(os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rundir", rundir, "--serve", serve, "--router", router,
           "--smoke", str(args.smoke), "--corrupt-oracle", str(args.corrupt_oracle)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.spans.tsv")]

    limit = RUN_LIMIT_S - built_s if built_s < 5 else BUILD_LIMIT_S + 40 - built_s
    steal0, total0 = cpu_times()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(limit, 30))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print(out, end="")
        fail("run exceeded its time limit")
    finally:
        # Backstop: nothing the driver started may outlive the run.
        if group_alive(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
        while group_alive(proc.pid):
            time.sleep(0.05)
        shutil.rmtree(rundir, ignore_errors=True)

    steal1, total1 = cpu_times()
    lines = out.splitlines()
    result_line = None
    tier = "unknown"
    for line in lines:
        if line.startswith("RESULT "):
            result_line = line[len("RESULT "):]
            continue
        if line.startswith("simd tier "):
            tier = line.split()[-1]
        print(line)
    if proc.returncode != 0 or result_line is None:
        fail(f"driver failed (exit {proc.returncode})")
    result = json.loads(result_line)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        fail(f"metrics do not match BENCHMARK.json: got {sorted(got)}, "
             f"want {sorted(units)}")
    stamp = {"commit": commit(), "build_type": build_type, "simd_tier": tier,
             "nproc": os.cpu_count(), "seed": args.seed,
             "workload": args.workload, "trace": args.trace,
             # Share of CPU time the hypervisor gave to other guests during
             # the run: a high value explains an outlier.
             "cpu_steal_share": round((steal1 - steal0) / max(1, total1 - total0), 4)}
    print("env " + json.dumps(stamp))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
