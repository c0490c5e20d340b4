#!/usr/bin/env python3
"""Build and run procmine's benchmark.

Usage, from the root of a procmine checkout:

    python3 perfbench/run.py --workload batch-text --seed 1 --seconds 20 --trace 0

Builds the Go benchmark module in perfbench/ (which uses the checkout's
procmine module through a replace directive) into the build directory,
then runs it. Everything the build and the run write stays inside the
checkout: the build directory is $CARGO_TARGET_DIR when set, else
.bench_build. The last line of standard output is the benchmark's result
object; the exit code is non-zero when the build fails, a check fails, or
the result does not carry exactly the metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at %s" % root)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        fail("%s is not a procmine checkout: no go.mod" % root)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "TMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(build, "home", ".cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    for d in ("gocache", "tmp", "home"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-work", os.path.join(build, "perfbench", "work")]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("run failed: %s" % e)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with status %d" % proc.returncode)
    result = json.loads(lines[-1])
    want = spec["per_layer" if args.trace else "end_to_end"]
    got = result.get("metrics", {})
    if sorted(got) != sorted(m["name"] for m in want):
        fail("metrics %s differ from BENCHMARK.json's %s" % (sorted(got), sorted(m["name"] for m in want)))
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("metric %s unit %s, BENCHMARK.json says %s" % (m["name"], got[m["name"]]["unit"], m["unit"]))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
