#!/usr/bin/env python3
"""Builds and runs the layer benchmark (see README.md).

    python3 perfbench/run.py --workload compile|kernels|serve --seed N \
        --seconds T --trace 0|1

Run from the root of a checkout. The benchmark and the FreeTensor library
are built from source into .bench_build/. Each run gets a fresh private
kernel cache and temp directory, deleted at exit, and a wall-clock limit;
a run that exceeds it is reported as failed, naming the layer it was in.
The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
# Wall-clock limit of one benchmark process (a normal run takes ~40 s).
RUN_LIMIT_S = 150
# Environment the benchmark pins; every other FT_* variable is dropped so
# the caller's environment cannot change what is measured.
PINNED_ENV = {"FT_NUM_THREADS": "1", "FT_CACHE": "1",
              "FT_CACHE_MEM_ENTRIES": "64"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(bench_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def pass_stderr(stderr_text):
    """Copies the benchmark's stderr, minus its `stage:` lines, to ours and
    returns the last stage named (the layer the run was in)."""
    stage = "startup"
    for line in stderr_text.splitlines():
        if line.startswith("stage: "):
            stage = line[len("stage: "):]
        else:
            sys.stderr.write(line + "\n")
    return stage


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["compile", "kernels", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not build(bench_dir):
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench")

    private = os.path.abspath(
        os.path.join(".bench_build", "runs", str(os.getpid())))
    shutil.rmtree(private, ignore_errors=True)
    os.makedirs(os.path.join(private, "cache"))
    os.makedirs(os.path.join(private, "tmp"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("FT_")}
    env.update(PINNED_ENV)
    env["FT_CACHE_DIR"] = os.path.join(private, "cache")
    env["TMPDIR"] = os.path.join(private, "tmp")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.abspath(os.path.join(".bench_build", "traces"))
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        # Kill the whole session: the benchmark, its warm-pass children and
        # any host compiler they started.
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        log("run exceeded %d s; hung in layer: %s"
            % (RUN_LIMIT_S, pass_stderr(err)))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(private, ignore_errors=True)

    stage = pass_stderr(err)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark exited with code %d in layer %s and no result"
            % (proc.returncode, stage))
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
