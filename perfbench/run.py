#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload build_er --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and compiles
perfbench/ (the msrp library and msrp_serve from the checkout's sources,
plus the driver) into .bench_build/perfbench; later calls only re-check the
build. The last line of standard output is the driver's JSON result.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build_er", "build_grid", "serve_point")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, targets):
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isfile(
            os.path.join(ROOT, "tools", "msrp_serve.cpp")):
        fail(f"no msrp sources under {ROOT}; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", "4", "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_child(cmd):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the driver's unit tests instead")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    if args.selftest:
        build(build_dir, ["perfbench_selftest"])
        sys.exit(run_child([os.path.join(build_dir, "perfbench_selftest")]))
    if args.workload is None:
        fail("--workload is required")
    build(build_dir, ["perfbench", "msrp_serve"])
    work_dir = os.path.join(ROOT, ".bench_build", "perfbench-run")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    sys.exit(run_child([
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(build_dir, "msrp_serve"),
        "--work-dir", work_dir,
    ]))


if __name__ == "__main__":
    main()
