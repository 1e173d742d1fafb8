#!/usr/bin/env python3
"""End-to-end benchmark of cats on the diy corpora (README.md beside this file).

Run from the repository root:

    python3 e2ebench/run.py --workload power7-report --seconds 30 --trace 0

Builds cats_e2e (e2ebench/CMakeLists.txt) into .bench_build/, then runs
passes of the workload, one process each, for --seconds seconds. With
--trace 0 it reports the end-to-end metrics (medians over the passes); with
--trace 1 it runs traced passes and reports the per-layer metrics. Summary
lines go first; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all runs every workload, in an order the seed shuffles.
"""

import argparse
import glob
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORK = os.path.join(BUILD, "work")
EXE = os.path.join(CMAKE_DIR, "cats_e2e")
# The committed zero-wall digests of the size-7 report, made with the
# sources this benchmark was written against.
EXPECTED = os.path.join(HERE, "power7-expected.txt")

WORKLOADS = ["power7-report", "internal6-cat", "power7-campaign"]
DEFAULT_SEED = 1
MAX_WORKERS = 4
# Set-up-only processes per end-to-end run, spread over the run between
# passes, so setup_s is a median of many samples even when only one or two
# passes fit.
SETUP_PROBES = 24

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("tests_per_s", "1/s"),
              ("peak_rss_mb", "MB")]
NATIVE_SLUGS = ["sc", "tso", "pso", "rmo", "cxxra", "power", "arm",
                "power-arm", "arm-llh"]
CAT_SLUGS = ["sc", "tso", "cxx-ra", "power", "power-nodetour", "arm",
             "arm-llh"]
PER_LAYER = (
    ["diy.enumerate_s", "diy.cycles", "diy.synthesize_s",
     "diy.synth_failures", "litmus.parse_s", "litmus.compile_s",
     "herd.enumerate_s", "herd.judge_s", "herd.candidates",
     "herd.judged_ratio", "herd.memo_hit_ratio", "model.load_s"]
    + ["model.%s.check_us" % s for s in NATIVE_SLUGS]
    + ["model.cat.%s.check_us" % s for s in CAT_SLUGS]
    + ["sweep.run_s", "sweep.parallel_efficiency", "sweep.report_build_s",
       "sweep.serialize_s", "sweep.report_mb", "sweep.report_read_s",
       "sweep.teardown_s", "campaign.cache_store_s",
       "campaign.cache_lookup_s", "campaign.cache_hit_ratio",
       "campaign.cache_mb", "campaign.checkpoint_append_s",
       "campaign.checkpoint_load_s", "campaign.checkpoint_mb",
       "obs.overhead", "disk_mb", "process.cpu_s", "other_s"])


def unit_of(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "overhead", "efficiency")):
        return "ratio"
    return "count"


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def check_layout():
    for path in ["CMakeLists.txt", "src", "models"]:
        if not os.path.exists(os.path.join(ROOT, path)):
            die("%s not found: run from the root of a cats checkout" % path)


def build(jobs):
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", CMAKE_DIR, "--target", "cats_e2e",
                    "-j", str(jobs)], stdout=sys.stderr, env=env, check=True)


def run_child(args):
    """Runs cats_e2e; returns (wall seconds, ru_maxrss KiB, parsed JSON)."""
    start = time.perf_counter()
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        die("cats_e2e %s exited with %d" % (" ".join(args), proc.returncode))
    return wall, usage.ru_maxrss, json.loads(out.decode().splitlines()[-1])


def reference(workers):
    """The naive-backend digests of the size-7 report, made once per build."""
    with open(EXE, "rb") as f:
        tag = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(BUILD, "reference-%s.txt" % tag)
    if not os.path.exists(path):
        for stale in glob.glob(os.path.join(BUILD, "reference-*")):
            os.remove(stale)
        run_child(["reference", "--out", path + ".tmp",
                   "--workers", str(workers)])
        os.replace(path + ".tmp", path)
    return path


def fresh_work():
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)


def high(values):
    """The highest percentile with at least ten samples beyond it, as
    (label, value); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return "max", ordered[-1]
    return "p%d" % (100 * (n - 10) // n), ordered[n - 11]


def measure(workload, seed, seconds, trace, workers):
    args = ["trace" if trace else "pass", "--workload", workload,
            "--work", WORK, "--seed", str(seed), "--workers", str(workers)]
    if workload != "internal6-cat":
        args += ["--reference", reference(workers), "--expected", EXPECTED]
    samples, attempted, failed, notes, env = [], 0, 0, [], {}
    start = time.monotonic()
    setups = []
    probes = 0 if trace else SETUP_PROBES

    def probe():
        fresh_work()
        setups.append(run_child(["setup"] + args[1:])[2]["setup_s"])

    pass_seconds = 0.0
    while True:
        # Keep the set-up probes level with the share of the run used so far.
        due = probes * min(1.0, (time.monotonic() - start) / seconds)
        while len(setups) < due:
            probe()
        fresh_work()
        wall, maxrss, out = run_child(args)
        pass_seconds += wall
        if trace:
            shutil.copyfile(os.path.join(WORK, "trace.json"),
                            os.path.join(BUILD, "trace-%s.json" % workload))
        shutil.rmtree(WORK, ignore_errors=True)
        attempted += out["attempted"]
        failed += out["failed"]
        notes += out["notes"]
        env = out["env"]
        if trace:
            samples.append(out["metrics"])
        else:
            # The benchmark's own oracle checks run inside the process;
            # they are not part of what a user of the tools waits for.
            user_wall = wall - out["check_s"]
            samples.append({
                "wall_s": user_wall,
                "setup_s": out["setup_s"],
                "tests_per_s": out["attempted"] / (user_wall - out["setup_s"]),
                "peak_rss_mb": maxrss * 1024 / 1e6,
            })
        # Start another pass only if one more is expected to fit.
        elapsed = time.monotonic() - start
        if elapsed + pass_seconds / len(samples) > seconds:
            break
    while len(setups) < probes:
        probe()

    names = PER_LAYER if trace else [n for n, _ in END_TO_END]
    metrics = {}
    print("%s: %d %s pass(es), seed %d" %
          (workload, len(samples), "traced" if trace else "end-to-end", seed))
    for name in names:
        values = [s[name] for s in samples]
        if name == "setup_s":
            values += setups
        med = statistics.median(values)
        label, hi = high(values)
        metrics[name] = {"value": med, "unit": unit_of(name) if trace
                         else dict(END_TO_END)[name]}
        print("  %-36s median %-14.6g %s %-14.6g n=%d" %
              (name, med, label, hi, len(values)))
    for note in notes[:8]:
        print("  FAILED: " + note)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, env


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    check_layout()
    nproc = len(os.sched_getaffinity(0))
    workers = min(MAX_WORKERS, nproc)
    build(workers)

    workloads = [args.workload]
    if args.workload == "all":
        workloads = list(WORKLOADS)
        random.Random(args.seed).shuffle(workloads)
    results, env = {}, {}
    for workload in workloads:
        results[workload], env = measure(workload, args.seed, args.seconds,
                                         bool(args.trace), workers)

    env.update({"nproc": nproc, "git_commit": git_commit(),
                "seed": args.seed})
    print("env " + json.dumps(env, sort_keys=True))
    if len(workloads) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, n): m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
