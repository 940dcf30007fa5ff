#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

Builds the benchmark program from source (first run only; later runs are
incremental no-ops), then runs one workload and passes its output through.
The last line of stdout is the program's JSON result.

    python3 perfbench/run.py --workload grid-rush --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
when that is set, otherwise to .bench_build, relative to the checkout root.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "world.hpp")):
        sys.exit("perfbench: program sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "ivc_perfbench")


def value(args, key):
    i = args.index(key) if key in args else -1
    return args[i + 1] if 0 <= i < len(args) - 1 else None


def main(argv):
    if any(a in ("-h", "--help") for a in argv):
        print(__doc__)
        return 0
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = list(argv)
    if value(args, "--trace") == "1":
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{value(args, '--workload')}-{value(args, '--seed')}.jsonl"
        args += ["--spans-out", os.path.join(spans, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
