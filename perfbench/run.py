#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the benchmark command (perfbench/, a Go module of its own that
uses the repository through a replace directive) and the deepn-jpeg
binary from this checkout, then runs the benchmark. Everything the build
and the run write stays under .bench_build/ in the checkout: the Go build
cache, module cache, temporary files and traces. The benchmark's standard
output passes through unchanged; its last line is the JSON result. Any
failure exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170  # the benchmark itself; the build is not limited


def go_env(build):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gomodcache"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="",
               GOPROXY="off", CGO_ENABLED="0")
    return env


def build(bench_dir, bin_dir, env):
    """Build both binaries; each lands under its final name atomically."""
    os.makedirs(bin_dir, exist_ok=True)
    for name, pkg in (("perfbench", "."), ("deepn-jpeg", "repro/cmd/deepn-jpeg")):
        final = os.path.join(bin_dir, name)
        tmp = "%s.tmp%d" % (final, os.getpid())
        res = subprocess.run(["go", "build", "-o", tmp, pkg], cwd=bench_dir, env=env)
        if res.returncode != 0:
            if os.path.exists(tmp):
                os.remove(tmp)
            sys.exit("perfbench: building %s failed" % pkg)
        os.replace(tmp, final)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, ".bench_build")
    for need in ("go.mod", os.path.join("perfbench", "go.mod")):
        if not os.path.isfile(os.path.join(root, need)):
            sys.exit("perfbench: %s not found; run from the root of a full checkout" % need)
    env = go_env(build_dir)
    bin_dir = os.path.join(build_dir, "bin")
    build(bench_dir, bin_dir, env)

    cmd = [os.path.join(bin_dir, "perfbench"),
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-root", root,
           "-server-bin", os.path.join(bin_dir, "deepn-jpeg"),
           "-work-dir", os.path.join(build_dir, "work"),
           "-spec", os.path.join(bench_dir, "spec.json")]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:  # interrupted: stop the run before leaving
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
