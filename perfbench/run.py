#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spotify_warm --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
repository's module from the parent directory. This script builds it
from source into the build directory (CARGO_TARGET_DIR when set, else
.bench_build), keeping the Go build cache and every other file the
toolchain writes inside that directory, then runs the binary with the
given arguments. The last line of standard output is the result object;
see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
RUN_LIMIT_S = 178  # the binary's own watchdog ends a stalled run first


def toolchain_env(build):
    env = dict(os.environ)
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp, os.path.join(build, "go-cache"), os.path.join(build, "gopath")):
        os.makedirs(d, exist_ok=True)
    env.update(
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
    )
    return env


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(CHECKOUT, build))
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    if not os.path.isfile(os.path.join(CHECKOUT, "go.mod")):
        print("perfbench: the repository's go.mod is missing; nothing to benchmark", file=sys.stderr)
        return 1
    env = toolchain_env(build)
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=CHECKOUT, env=env)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s and was stopped" % RUN_LIMIT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
