#!/usr/bin/env python3
"""Build and run the hybrid-cc benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fsync_durable|hot_contended|socket_replicated> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs its driver with a scratch store directory
under `.bench_work/`, removes that directory, and passes the driver's
output through: the last line of standard output is the result object
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
A traced run also writes its layer report and spans under `.bench_out/`.
Exits non-zero, without a result line, when the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds and then finishes its round; anything
# near this long is a hang.
RUN_TIMEOUT_S = 170


def main():
    # A terminated runner must still stop and reap the driver (below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(ROOT, target, "release", "hcc-perfbench")
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    out = os.path.join(ROOT, ".bench_out")
    child = subprocess.Popen(
        [binary, *sys.argv[1:], "--work-dir", work, "--out-dir", out], cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
