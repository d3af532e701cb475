#!/usr/bin/env python3
"""FactorHD benchmark: one command, three workloads, correctness-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
workload program (perfbench/CMakeLists.txt, library compiled from src/) into
.bench_build/perfbench; later calls rebuild only what changed. Every
FACTORHD_* environment variable is removed from the program's environment
and recorded in the host line.

Output: a host record line, then as the LAST line of stdout one JSON object
with exactly the keys correct, attempted, failed and metrics. --trace 0
reports BENCHMARK.json's end_to_end metrics, --trace 1 its per_layer ones.
The command exits 1 without printing a result when the build fails, the
program reports a correctness failure, or a metric is missing.

--selftest runs every workload at tiny sizes: it checks that every named
metric is emitted with its unit and that two runs with the same seed give
identical accuracy and identical count-valued metrics.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "bin", "perfbench_workload")
RUN_TIMEOUT_S = 170

# Per-layer metrics that are pure functions of the seed: same seed, same value.
DETERMINISTIC = [
    "core.sim_ops_per_target",
    "core.rounds_per_target",
    "core.combinations_per_target",
    "hdc.probes_per_target",
    "hdc.bytes_per_target",
    "gen.samples_light",
    "gen.samples_heavy",
    "service.rejected",
    "net.timeouts",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures (once) and builds the workload program; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def clean_env():
    env = dict(os.environ)
    cleared = {k: env.pop(k) for k in sorted(env) if k.startswith("FACTORHD_")}
    return env, cleared


def run_program(workload, seed, seconds, trace, scale="full"):
    """Runs the workload program once; returns (parsed result, elapsed s)."""
    env, cleared = clean_env()
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale,
           "--trace-out", os.path.join(trace_dir, "%s-%s.jsonl" %
                                       (workload, seed))]
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    elapsed = time.monotonic() - t0
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (workload, r.returncode))
    for err in result.get("errors", []):
        print("perfbench: %s: %s" % (workload, err), file=sys.stderr)
    if r.returncode != 0 or not result.get("correct"):
        fail("%s failed its correctness checks (exit %d)" %
             (workload, r.returncode))
    result["host"]["cleared_env"] = cleared
    return result, elapsed


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(result, spec, trace, label):
    want = expected_metrics(spec, trace)
    got = result["metrics"]
    problems = []
    for name, unit in want.items():
        if name not in got:
            problems.append("missing metric %s" % name)
        elif got[name]["unit"] != unit:
            problems.append("metric %s has unit %s, want %s" %
                            (name, got[name]["unit"], unit))
    for name in got:
        if name not in want:
            problems.append("unexpected metric %s" % name)
    if problems:
        fail("%s: %s" % (label, "; ".join(problems)))
    return {name: got[name] for name in want}


def main_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    build()
    result, elapsed = run_program(args.workload, args.seed, args.seconds,
                                  args.trace)
    metrics = check_metrics(result, spec, args.trace, args.workload)
    if result["attempted"] < 1:
        fail("%s attempted nothing" % args.workload)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    host = dict(result["host"], nproc=nproc)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "run_s": round(elapsed, 3),
                      "host": host, "info": result.get("info", {})}))
    print(json.dumps({"correct": True, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


def main_selftest():
    spec = load_spec()
    build()
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            a, _ = run_program(w, 7, 1, trace, scale="tiny")
            b, _ = run_program(w, 7, 1, trace, scale="tiny")
            label = "%s trace=%d" % (w, trace)
            ma = check_metrics(a, spec, trace, label)
            mb = check_metrics(b, spec, trace, label)
            same = ["accuracy"] if not trace else DETERMINISTIC
            for name in same:
                if ma[name]["value"] != mb[name]["value"]:
                    fail("%s: %s differs between same-seed runs (%r vs %r)" %
                         (label, name, ma[name]["value"], mb[name]["value"]))
            print("selftest %s: %d metrics, same-seed counts identical" %
                  (label, len(ma)))
    print("selftest passed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        main_selftest()
    elif args.workload:
        main_run(args)
    else:
        p.error("--workload or --selftest is required")


if __name__ == "__main__":
    main()
