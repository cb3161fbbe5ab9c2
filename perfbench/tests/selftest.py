#!/usr/bin/env python3
"""Self-test of the serving benchmark at smoke scale.

    python3 perfbench/tests/selftest.py

Run from the root of a checkout. Checks that:
  * every workload runs, untraced and traced, and passes its oracle gate;
  * the emitted metric names and units are exactly BENCHMARK.json's;
  * a percentile with fewer than 10 samples beyond it is flagged and the
    run reports nothing;
  * a deliberately corrupted expected fingerprint fails the run, on the
    per-connection gate and on the live workload's post-FLUSH replay;
  * without the program's sources the benchmark exits non-zero, fast and
    without a result.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ["pair_point", "sharded_mix", "live_skewed"]


def run(workload, trace=0, seconds="1", extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", seconds, "--trace", str(trace), "--smoke", "1", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check(cond, msg, proc=None):
    if cond:
        print(f"ok    {msg}")
        return
    print(f"FAIL  {msg}")
    if proc is not None:
        print(proc.stdout[-3000:])
        print(proc.stderr[-3000:])
    sys.exit(1)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists the benchmark's workloads")

    for w in WORKLOADS:
        for trace in (0, 1):
            p = run(w, trace)
            r = result_of(p)
            check(p.returncode == 0 and r is not None and r["correct"],
                  f"{w} trace={trace} runs and passes its oracle gate", p)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == units[trace], f"{w} trace={trace} metric names and units", p)
            check(r["attempted"] >= 1 and r["failed"] == 0,
                  f"{w} trace={trace} attempted {r['attempted']}, failed 0", p)

    # 1 ms of load leaves far fewer than 1010 samples: p99 must be flagged.
    p = run("pair_point", seconds="0.001")
    check(p.returncode != 0 and result_of(p) is None and "FLAGGED" in p.stdout,
          "an unsupported p99 is flagged and nothing is reported", p)

    for w in ("pair_point", "live_skewed"):
        p = run(w, extra=("--corrupt-oracle", "1"))
        check(p.returncode != 0 and result_of(p) is None
              and "ORACLE MISMATCH" in p.stdout,
              f"{w}: a corrupted expected fingerprint fails the run", p)

    # Only BENCHMARK.json and the benchmark's own files: no program to build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "pair_point", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], capture_output=True, text=True,
                       cwd=bare, env=env, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(p.returncode != 0 and result_of(p) is None,
          "without the program's sources the run fails without a result", p)
    print("selftest passed")


if __name__ == "__main__":
    main()
