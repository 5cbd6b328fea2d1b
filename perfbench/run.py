#!/usr/bin/env python3
"""Build the benchmark and the serve binary from source, then run the benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload lv-curves --seed 1 --seconds 20 --trace 0

Every build product, the Go build cache and the benchmark's reports go under
.bench_build/ in the checkout, so nothing is read or written outside it
except the Go toolchain itself. All arguments are passed to the benchmark
binary (see perfbench/main.go); its last line of output is the result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    os.makedirs(bindir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOENV": "off",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    builds = [
        # The serve binary is built from the repository module...
        (root, ["go", "build", "-o", os.path.join(bindir, "serve"), "./cmd/serve"]),
        # ...and the benchmark from its own module, which replaces the
        # repository module with the checkout it sits in.
        (here, ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in builds:
        try:
            done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: build failed in {cwd}: {' '.join(cmd)}", file=sys.stderr)
            return 1

    args = [os.path.join(bindir, "perfbench"),
            "--serve-bin", os.path.join(bindir, "serve"),
            "--out", os.path.join(build, "reports")] + sys.argv[1:]
    sys.stdout.flush()
    os.execve(args[0], args, env)


if __name__ == "__main__":
    sys.exit(main())
