#!/usr/bin/env python3
"""Builds the daemon and the load generator from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload ingest|query --seed N \
        --seconds S --trace 0|1 [--tiny]

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). The daemon is
the repository's own `uss_serverd`, built by the repository workspace with
its release profile; the load generator is the `perfbench` package beside
this file. Everything after the build is the load generator's output: its
last stdout line is the JSON result. Exits non-zero when a build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "uss-server", "--bin", "uss_serverd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for command in builds:
        # Build output goes to stderr: stdout ends with the result line.
        built = subprocess.run(command, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return 2
    daemon = os.path.join(target, "release", "uss_serverd")
    bench = os.path.join(target, "release", "perfbench")
    return subprocess.run([bench, "--daemon", daemon, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
