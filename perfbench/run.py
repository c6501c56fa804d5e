#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload ckpt-lossless --seed 1 --seconds 10 --trace 0

The arguments go to the Go program in this directory (see README.md).
Everything the build and the run write goes under $CARGO_TARGET_DIR,
default .bench_build, in the current directory: the Go build cache,
the binary, and the traced run's span file. The go command's telemetry
is switched off there so that it starts no background process. The
program runs with GODEBUG=madvdontneed=0 (see main below).
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(repo, "go.mod"))
            and os.path.isdir(os.path.join(repo, "internal", "codec"))):
        print("perfbench: the repository sources are not next to perfbench/", file=sys.stderr)
        return 1

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dirs = {name: os.path.join(build, name) for name in ("gocache", "gopath", "tmp", "config")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    mode = os.path.join(dirs["config"], "go", "telemetry", "mode")
    os.makedirs(os.path.dirname(mode), exist_ok=True)
    with open(mode, "w") as f:
        f.write("off")

    env = dict(os.environ)
    env.update({
        "GOCACHE": dirs["gocache"],
        "GOPATH": dirs["gopath"],
        "GOMODCACHE": os.path.join(dirs["gopath"], "pkg", "mod"),
        "GOTMPDIR": dirs["tmp"],
        "TMPDIR": dirs["tmp"],
        "XDG_CONFIG_HOME": dirs["config"],
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Freed heap pages go back to the OS lazily (MADV_FREE), so reusing
    # them does not page-fault. The workloads allocate their outputs
    # afresh, and in a VM the fault cost varied from run to run enough to
    # dominate the spread of train-dctc; alloc_bytes_per_byte still gates
    # the allocation volume.
    env["GODEBUG"] = ",".join(filter(None, [env.get("GODEBUG"), "madvdontneed=0"]))
    return subprocess.run([binary, *sys.argv[1:], "--spans-dir", build], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
