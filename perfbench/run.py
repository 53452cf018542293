#!/usr/bin/env python3
"""Builds the repo benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--lane-threads <n>]

The C++ benchmark binary (perfbench/src) is configured and built into .bench_build/perfbench
under the checkout root; the build is incremental, so only the first run in a
checkout compiles.  Build output goes to standard error.  The binary's standard
output is passed through, and its last line is the result JSON.  A traced run
also writes its spans to .bench_build/traces/<workload>-seed<n>.json.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def value_of(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def main():
    args = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    workload, seed = value_of(args, "--workload"), value_of(args, "--seed")
    if value_of(args, "--trace") == "1" and workload and seed:
        args += ["--trace-file",
                 os.path.join(ROOT, ".bench_build", "traces", f"{workload}-seed{seed}.json")]
    run = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        return run.returncode
    # The binary's metric catalog must be the one BENCHMARK.json declares;
    # a mismatch prints no result.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    declared = spec["per_layer" if value_of(args, "--trace") == "1" else "end_to_end"]
    printed = json.loads(lines[-1])["metrics"]
    if [m["name"] for m in declared] != list(printed) or any(
            printed[m["name"]]["unit"] != m["unit"] for m in declared):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: printed metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
