#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload local-fig4 --seed 1 --seconds 20 --trace 0

Arguments pass through to the Go program (see main.go). The Go build
cache, temporary files and the binary live in .bench_build/ at the root
of the checkout, so the run reads and writes nothing outside it. The
last line of standard output is the program's JSON result; build
output goes to standard error.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT = 900  # the first build in a fresh checkout compiles everything
RUN_TIMEOUT = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "gotmp"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def run(args, timeout, **kw):
    """Run args to completion and return its exit code. A timeout, or a
    SIGTERM or SIGINT to this script, stops the child and waits for it,
    so no process outlives the run."""
    proc = subprocess.Popen(args, **kw)

    def stop(signum, frame):
        proc.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args[0]} exceeded {timeout}s", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 1


def main():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        code = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT, cwd=HERE, env=env, stdout=sys.stderr)
    except OSError as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Spill files and other temporary files of the run go here and are
    # removed afterwards.
    tmp = os.path.join(BUILD, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env["TMPDIR"] = tmp
    try:
        code = run([binary] + sys.argv[1:], RUN_TIMEOUT, cwd=ROOT, env=env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
