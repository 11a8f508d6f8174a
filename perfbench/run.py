#!/usr/bin/env python3
"""Wall-clock benchmark of the ALTER runtime, one workload per call.

Builds perfbench_driver from source (a Release build of ../src plus
driver.cpp) under the build directory, runs it, and relays its output. The
last line of standard output is the JSON result:

    python3 perfbench/run.py --workload floyd-288 --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger and
writes every traced run's spans to ledger-<workload>-seed<seed>.json in the
build directory. The build directory is $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench at the repository root when that is unset. A failed
build or run exits non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The driver normally ends within --seconds plus its set-up (under a
# minute); past this it is killed, so a run always ends inside 180 s.
DRIVER_TIMEOUT_S = 165


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", "3"],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench_driver")


def commit_id():
    """The git commit when the root is a git checkout, else "unknown" (a
    plain copy may sit inside some other repository)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bdir = build_dir()
    try:
        driver = build(bdir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace:
        cmd += ["--ledger", os.path.join(
            bdir, "ledger-%s-seed%d.json" % (args.workload, args.seed))]
    # A process group of its own, so a timeout can kill the driver with
    # every worker process it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: driver exited with %d" % proc.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
