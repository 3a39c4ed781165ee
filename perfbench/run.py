#!/usr/bin/env python3
"""Build and run the NetTrails benchmark from the root of a checkout.

    python3 perfbench/run.py --workload flap --seed 1 --seconds 30 --trace 0

Builds perfbench (a Go module beside this file that compiles the repo's
packages from source) into .bench_build/, then runs it with the given
arguments. Every cache, build output, store and span file stays under
.bench_build/ in the current directory. The last line of standard
output is the benchmark's JSON result; on any build or run failure the
script exits non-zero without printing one.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")


def source_digest():
    """Digest of the Go sources and module files the binary is built from."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip() + "+src-" + source_digest()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + source_digest()


def main():
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOFLAGS"] = "-buildvcs=false"
    env["GOTOOLCHAIN"] = "local"
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary, "--commit", revision(), "--out", os.path.join(BUILD, "perfbench")] + sys.argv[1:],
                         cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
