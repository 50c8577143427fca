#!/usr/bin/env python3
"""Runs one workload of the vmcw benchmark and prints its result line.

    python3 benchmark/run.py --workload paper-grid --seed 42 --seconds 26 --trace 0

Run from the repository root. Builds the harness in benchmark/harness
(into $CARGO_TARGET_DIR, default .bench_build), runs it with a scratch
directory under .bench_work/, checks its metric names against
BENCHMARK.json and prints its JSON object as the last line of standard
output. Exits non-zero without a result line when anything fails.
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
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
WORKLOADS = ("paper-grid", "fleet-x4", "crash-resume", "serve-mix")
# Every child must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the harness failed")
    return os.path.join(target_dir, "release", "vmcw-benchmark")


def run_child(cmd, env, deadline):
    """Runs cmd in its own process group and returns its last stdout line.

    At the deadline the whole group is killed; either way every process
    of the group has ended when this returns."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True, env=env
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[1]} timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail(f"{cmd[1]} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{cmd[1]} printed nothing")
    return lines[-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=26)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    binary = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    if args.workload == "serve-mix":
        # The server starts two threads per job. glibc gives new threads
        # up to 8 malloc arenas per core, and which ones they landed on
        # moved the peak RSS by a third between runs of the same code.
        # Two arenas, one per core and per worker, make the peak follow
        # the program's allocations, not that draw. The batch workloads
        # keep glibc's default: their few threads get arenas of their
        # own, and sharing two lengthened the health reads' tail.
        env["MALLOC_ARENA_MAX"] = "2"
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]
    try:
        cmd = [binary, "run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.workload == "crash-resume":
            prepared = json.loads(run_child([binary, "prepare", *common], env, deadline))
            cmd += ["--setup-s", repr(prepared["setup_s"])]
        if args.trace:
            cmd += ["--spans", os.path.join(".bench_work", f"spans-{args.workload}-{args.seed}.tsv")]
        line = run_child(cmd, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(line)
    got = sorted(result["metrics"])
    if got != sorted(wanted):
        fail(f"metrics {got} do not match BENCHMARK.json {sorted(wanted)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
