#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload paper-8node --seed 1 --seconds 20 --trace 0

The program is built into the build directory ($CARGO_TARGET_DIR if set,
else .bench_build), with the Go build cache, module cache, temporary files
and configuration kept there too, so nothing is written outside the
checkout. Build output goes to standard error; the benchmark's result is the
last line of standard output. With --trace 1 the traced run's host spans are
also written to the build directory as a Chrome trace.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        args += ["--trace-out", os.path.join(build, "trace-%s.json" % workload)]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
