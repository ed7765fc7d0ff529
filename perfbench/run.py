#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <sfs_mix|untar|bulk_rw> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to perfbench/ under
$CARGO_TARGET_DIR (default .bench_build) and is reused by later runs. Build
output goes to stderr. Stdout is the benchmark's report, whose last line is
the JSON result: the binary's last line with its metrics cut down to the ones
BENCHMARK.json registers, the end-to-end ones with --trace 0 and the
per-layer ones with --trace 1. The exit status is nonzero, with no JSON line,
when the build fails, the arguments are wrong or a registered metric is
missing; it is the binary's (nonzero when an output check fails) otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src")


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(SOURCES, "CMakeLists.txt")):
        print("perfbench: the simulator sources (src/) are missing", file=sys.stderr)
        return 1
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    proc = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            registered = json.load(f)
        trace = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] == "1"
        names = [m["name"] for m in registered["per_layer" if trace else "end_to_end"]]
        result["metrics"] = {name: result["metrics"][name] for name in names}
    except (ValueError, KeyError, IndexError, OSError) as err:
        print("\n".join(lines), file=sys.stderr)
        print(f"perfbench: no usable result: {err!r}", file=sys.stderr)
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
