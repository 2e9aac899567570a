#!/usr/bin/env python3
"""Build the RLS benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload lrc-query --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files and the binary live under
.bench_build/ in the repository root, so nothing is written outside the
checkout. Every argument is passed through to the benchmark program; its
exit code is returned unchanged.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
    )
    binary = os.path.join(build, "rls-perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    env["TMPDIR"] = tmp
    return subprocess.run([binary, "--root", root] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
