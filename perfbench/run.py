#!/usr/bin/env python3
"""Scale benchmark for the Ignem simulator.

Builds the simulator and perfbench_runner from source into .bench_build/,
then measures one workload:

  python3 perfbench/run.py --workload swim-ignem-512 --seed 1 --seconds 30 --trace 0

--trace 0 repeats untraced runs (one process each, one after another) until
--seconds of host time are used and reports the end-to-end metrics over
all of them (see fastest_pieces for run_s). --trace 1 makes one untraced run, the ablation runs and one traced
run, and reports the per-layer metrics; its spans go to
.bench_build/spans/. Human-readable lines come first; the last line of
stdout is the JSON result. Metric names and units are read from
BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "perfbench_runner")

# Set-up is timed at least this many times per invocation; workloads with
# few runs in the budget add set-up-only repetitions.
MIN_SETUPS = 5
# Every invocation must end well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0
# Workloads the runner has that BENCHMARK.json does not list: they are run
# by hand only (README.md, "Workloads").
BY_HAND = ("sort-hdfs-512",)


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool bring the runner up to date."""
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench_runner"],
                   check=True, stdout=sys.stderr)


class Runner:
    """Starts perfbench_runner processes one at a time and records a span
    for each."""

    def __init__(self, workload, seed, deadline, spans):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.spans = spans

    def __call__(self, command, *extra, label=None):
        args = [RUNNER, command, "--workload", self.workload, "--seed", str(self.seed)]
        args += list(extra)
        if self.spans is not None:
            args.append("--spans")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before " + " ".join(args[1:]))
        start = time.monotonic()
        try:
            proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("timed out: " + " ".join(args[1:]))
        end = time.monotonic()
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError("perfbench_runner %s exited with %d" % (command, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        child_spans = result.pop("spans", [])
        if self.spans is not None:
            parent = len(self.spans)
            self.spans.append([label or command, -1, start, end])
            for name, child_parent, child_start, child_end in child_spans:
                self.spans.append([name, parent if child_parent < 0 else parent + 1 + child_parent,
                                   child_start, child_end])
        result["wall_s"] = end - start
        return result


def check_run(result, what, failures):
    for failure in result.get("failures", []):
        failures.append("%s: %s" % (what, failure))


def same_outputs(results, failures):
    """Every run of one seed must simulate exactly the same jobs."""
    keys = ("digest", "job_mean_s", "job_p99_s", "jobs_submitted", "jobs_failed")
    first = results[0]
    for i, r in enumerate(results[1:], start=2):
        for key in keys:
            if r[key] != first[key]:
                failures.append("run %d %s %r differs from run 1 %r" % (i, key, r[key], first[key]))


def fastest_pieces(results, failures):
    """Run time pieced together from the fastest host time of each window.

    Every run of one seed simulates the same events, so window k (the k-th
    5 simulated seconds) is the same work in every run. Interference from
    other tenants of the host only ever slows a window down, and it comes
    and goes within a run, so the least time any run took for a window is
    the best estimate of that window's own cost; their sum is the run's."""
    windows = [r["window_s"] for r in results]
    if len({len(w) for w in windows}) != 1:
        failures.append("runs were cut into %s windows, not one count"
                        % sorted({len(w) for w in windows}))
        return statistics.median(r["run_s"] for r in results)
    return sum(min(piece) for piece in zip(*windows))


def measure_end_to_end(run, seconds):
    """Untraced runs until the budget is used; host metrics over all runs."""
    results = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(run("run", "--windows", label="run"))
        took = time.monotonic() - t0
        if time.monotonic() - start + took > seconds:
            break
    setups = [s for r in results for s in r["setup_s"]]
    if len(setups) < MIN_SETUPS:
        extra = run("run", "--setups", str(MIN_SETUPS - len(setups)), "--no-run", label="setup")
        setups += extra["setup_s"]

    failures = []
    for i, r in enumerate(results, start=1):
        check_run(r, "run %d" % i, failures)
    same_outputs(results, failures)

    first = results[0]
    submitted = sum(r["jobs_submitted"] for r in results)
    failed = sum(r["jobs_failed"] for r in results)
    run_s = [r["run_s"] for r in results]
    rss = [r["peak_rss_mb"] for r in results]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": fastest_pieces(results, failures),
        "peak_rss_mb": statistics.median(rss),
        "job_mean_s": first["job_mean_s"],
        "job_p99_s": first["job_p99_s"],
        "jobs_ok_frac": 1.0 - first["jobs_failed"] / first["jobs_submitted"],
    }
    print("runs: %d   set-ups: %d   digest: %s   jobs: %d submitted, %d failed per run"
          % (len(results), len(setups), first["digest"], first["jobs_submitted"],
             first["jobs_failed"]))
    print("  run_s       " + " ".join("%.4f" % v for v in run_s)
          + "   (median %.4f, fastest pieces %.4f over %d windows)"
          % (statistics.median(run_s), values["run_s"], len(first["window_s"])))
    print("  setup_s     " + " ".join("%.4f" % v for v in setups))
    print("  peak_rss_mb " + " ".join("%.1f" % v for v in rss))
    print("  jobs_failed_frac %.6f" % (first["jobs_failed"] / first["jobs_submitted"]))
    return values, submitted, failed, failures


def measure_per_layer(run):
    """One untraced run, the ablations and one traced run."""
    base = run("run", label="run.untraced")
    hdfs = run("run", "--variant", "hdfs", label="ablation.hdfs_mode")
    noscrub = None
    if base["integrity.scrubber"]:
        noscrub = run("run", "--variant", "noscrub", label="ablation.scrubber_off")
    traced = run("trace", label="run.traced")

    failures = []
    check_run(base, "untraced run", failures)
    check_run(hdfs, "HDFS-mode run", failures)
    if noscrub is not None:
        check_run(noscrub, "scrubber-off run", failures)
    check_run(traced, "traced run", failures)
    same_outputs([base, traced], failures)
    if traced["obs.invariant_violations"] != 0:
        failures.append("%d invariant violations" % traced["obs.invariant_violations"])
    if traced["obs.replica_model_mismatch"]:
        failures.append("replica model mismatch: " + traced["obs.replica_model_mismatch"])

    values = {key: base[key] for key in base if key.startswith(
        ("sim.events", "sim.pending", "dfs.reads", "dfs.read_", "dfs.repl.", "cluster.",
         "core.migrations", "core.bytes", "core.discarded", "integrity.blocks",
         "integrity.scans", "workload."))}
    for key in ("sim.queue_churn_ns", "storage.streams_per_device_mean",
                "storage.streams_per_device_max", "storage.bw_churn_ns",
                "dfs.scrub_cursor_us", "cluster.rm.heartbeat_us", "fault.detection_s",
                "obs.trace_events", "obs.invariant_violations"):
        values[key] = traced[key]
    values["sim.ns_per_event"] = base["run_s"] * 1e9 / base["sim.events"]
    values["dfs.create_us_per_block"] = base["dfs.create_s"] * 1e6 / base["dfs.blocks"]
    reads = base["dfs.reads"]
    migrations = base["core.migrations_completed"]
    values["core.memory_read_frac"] = base["dfs.reads_memory"] / reads if reads else 0.0
    values["core.useful_ratio"] = base["dfs.reads_memory"] / migrations if migrations else 0.0
    values["core.extra_run_s"] = base["run_s"] - hdfs["run_s"]
    values["integrity.scrub_extra_run_s"] = (
        base["run_s"] - noscrub["run_s"] if noscrub is not None else 0.0)
    values["obs.traced_run_ratio"] = traced["run_s"] / base["run_s"]
    values["obs.traced_peak_rss_mb"] = traced["peak_rss_mb"]

    print("digest: %s (untraced) %s (traced)" % (base["digest"], traced["digest"]))
    print("shapes read from this workload's own run, beside what they produced:")
    print("  sim.queue_churn_ns      %10.2f  at %d pending events, mean %.3f s ahead"
          % (traced["sim.queue_churn_ns"], traced["shape.queue_depth"],
             traced["shape.queue_mean_ahead_s"]))
    print("  storage.bw_churn_ns     %10.2f  at %d streams per device (sampled mean %.3f)"
          % (traced["storage.bw_churn_ns"], traced["shape.streams_per_device"],
             traced["storage.streams_per_device_mean"]))
    print("  cluster.rm.heartbeat_us %10.3f  at RM queue %d (replayed %.1f), tasks held %.3f s"
          % (traced["cluster.rm.heartbeat_us"], traced["shape.rm_queue"],
             traced["shape.rm_queue_replayed"], traced["shape.rm_task_hold_s"]))
    print("  dfs.scrub_cursor_us     %10.3f  at %.1f blocks per node"
          % (traced["dfs.scrub_cursor_us"], traced["shape.blocks_per_node"]))
    print("run_s: untraced %.4f, traced %.4f, HDFS mode %.4f%s"
          % (base["run_s"], traced["run_s"], hdfs["run_s"],
             ", scrubber off %.4f" % noscrub["run_s"] if noscrub is not None else ""))
    submitted = base["jobs_submitted"] + traced["jobs_submitted"]
    failed = base["jobs_failed"] + traced["jobs_failed"]
    return values, submitted, failed, failures


def write_spans(spans, workload, seed):
    directory = os.path.join(BUILD, "spans")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d.json" % (workload, seed))
    with open(path, "w") as out:
        json.dump({"fields": ["name", "parent", "start_s", "end_s"], "spans": spans}, out)
    print("spans: %d written to %s" % (len(spans), os.path.relpath(path, ROOT)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]] + list(BY_HAND)
    if args.workload not in names:
        raise BenchError("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    spans = [] if args.trace else None
    run = Runner(args.workload, args.seed, started + HARD_LIMIT_S, spans)
    print("workload %s, seed %d, %s" % (args.workload, args.seed,
                                        "traced per-layer run" if args.trace
                                        else "%g s of untraced runs" % args.seconds))
    if args.trace:
        values, attempted, failed, failures = measure_per_layer(run)
        write_spans(spans, args.workload, args.seed)
    else:
        values, attempted, failed, failures = measure_end_to_end(run, args.seconds)

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            raise BenchError("metric %s was not measured" % name)
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        print("%-34s %18.6f %s" % (name, values[name], metric["unit"]))
    for failure in failures:
        print("CHECK FAILED: " + failure)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
