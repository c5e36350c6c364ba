#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring-read --seed 1 --seconds 10 --trace 0

The Go build cache, its temporary files, the binary, the journals and
the span files all live under .bench_build/ in the checkout, and the
Go environment is pinned so the build reads no user settings and never
reaches for the network. The script then replaces itself with the
benchmark binary, whose last line of output is the JSON result.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    work = os.path.join(root, ".bench_build")
    binary = os.path.join(work, "bin", "perfbench")
    go = shutil.which("go") or "/usr/local/go/bin/go"
    env = dict(
        os.environ,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
        GOCACHE=os.path.join(work, "gocache"),
        GOPATH=os.path.join(work, "gopath"),
        GOTMPDIR=os.path.join(work, "tmp"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(
        [go, "build", "-trimpath", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(1)
    os.chdir(root)
    os.execv(binary, [binary, "--workdir", work] + sys.argv[1:])


if __name__ == "__main__":
    main()
