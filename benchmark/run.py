#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload of BENCHMARK.json in turn and exits
with the worst status.

Builds `dcn-benchmark` and the `dcn-serve` daemon in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the workload. The
last line of standard output is the JSON result; build output goes to
standard error. The workload runs in its own process group, which is
killed when it ends or overruns, so no daemon outlives the run.

The workload runs with MALLOC_ARENA_MAX set to the machine's CPU count.
With glibc's default of eight arenas per CPU, which arena each pool or
shard thread lands in varies from run to run, and the process's peak RSS
with it (49 vs 69 MiB for the same seed and work on a 2-CPU machine).
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The workload itself must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def run_workload(env: dict, release: str, args: list) -> int:
    command = [
        os.path.join(release, "dcn-benchmark"),
        *args,
        "--serve-bin", os.path.join(release, "dcn-serve"),
    ]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--quiet",
            "--manifest-path", os.path.join(ROOT, "benchmark", "Cargo.toml"),
            "-p", "dcn-benchmark", "-p", "dcn-server", "--bins",
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    env["MALLOC_ARENA_MAX"] = str(os.cpu_count() or 1)
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at:at + 1] != ["all"]:
        return run_workload(env, release, args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        names = [w["name"] for w in json.load(spec)["workloads"]]
    codes = [run_workload(env, release, args[:at] + [name] + args[at + 1:]) for name in names]
    return next((code for code in codes if code != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
