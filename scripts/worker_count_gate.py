#!/usr/bin/env python3
"""Worker-count gate: a run's bytes depend on its config and seed alone.

Runs every bench under <build-dir>/bench except bench_microkernel (whose
numbers are host timings) in two temporary directories, once with
IGNEM_SWEEP_THREADS=1 and once with IGNEM_SWEEP_THREADS=4. Each bench's
stdout must match byte for byte, and so must every BENCH_*.json and
REPORT_*.json the benches write, once the host-time fields `wall_seconds`
and `kernel_events_per_sec` are set aside.

Names the first differing field of each file and exits 1 on any difference
or any failed bench.

Usage: python3 scripts/worker_count_gate.py <build-dir>
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

WORKER_COUNTS = ("1", "4")
HOST_TIMED = {"bench_microkernel"}
HOST_TIME_FIELDS = ("wall_seconds", "kernel_events_per_sec")
REPORT_GLOBS = ("BENCH_*.json", "REPORT_*.json")


def bench_binaries(build):
    return sorted(path for path in (build / "bench").glob("bench_*")
                  if path.is_file() and os.access(path, os.X_OK)
                  and path.name not in HOST_TIMED)


def run_pass(benches, workers, workdir):
    """Runs every bench in `workdir`; returns (stdout by bench, failures)."""
    env = dict(os.environ, IGNEM_SWEEP_THREADS=workers)
    env.pop("IGNEM_TRACE_OUT", None)
    stdout, failures = {}, []
    for bench in benches:
        result = subprocess.run([str(bench)], cwd=workdir, env=env,
                                stdout=subprocess.PIPE)
        stdout[bench.name] = result.stdout
        if result.returncode != 0:
            failures.append(f"{bench.name} exited {result.returncode} "
                            f"at {workers} workers")
    return stdout, failures


def report_files(workdir):
    return {path.name: path for pattern in REPORT_GLOBS
            for path in workdir.glob(pattern)}


def leaves(value, prefix=""):
    """(dotted path, JSON text of the leaf) in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{prefix}[{i}]")
    else:
        yield prefix, json.dumps(value)


def load_report(path):
    document = json.loads(path.read_text())
    for field in HOST_TIME_FIELDS:
        document.pop(field, None)
    return list(leaves(document))


def first_difference(a, b):
    """The first differing field of two flattened reports, or None."""
    for (path_a, value_a), (path_b, value_b) in zip(a, b):
        if path_a != path_b:
            return f"field {path_a} vs field {path_b}"
        if value_a != value_b:
            return f"{path_a}: {value_a} vs {value_b}"
    if len(a) != len(b):
        extra = a[len(b)] if len(a) > len(b) else b[len(a)]
        return f"{extra[0]} present at one worker count only"
    return None


def first_line_difference(a, b):
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
        if line_a != line_b:
            return f"line {number} differs"
    return f"{len(lines_a)} lines vs {len(lines_b)}"


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    build = pathlib.Path(sys.argv[1]).resolve()
    benches = bench_binaries(build)
    if not benches:
        sys.exit(f"worker_count_gate.py: no bench binaries under {build}/bench")

    with tempfile.TemporaryDirectory() as tmp:
        passes, differences = [], []
        for workers in WORKER_COUNTS:
            workdir = pathlib.Path(tmp) / f"workers{workers}"
            workdir.mkdir()
            stdout, failed = run_pass(benches, workers, workdir)
            passes.append((stdout, report_files(workdir)))
            differences.extend(failed)

        (stdout_a, files_a), (stdout_b, files_b) = passes
        for bench in benches:
            if stdout_a[bench.name] != stdout_b[bench.name]:
                differences.append(
                    f"{bench.name} stdout: " + first_line_difference(
                        stdout_a[bench.name].decode(errors="replace"),
                        stdout_b[bench.name].decode(errors="replace")))
        names = sorted(files_a.keys() | files_b.keys())
        for name in names:
            if name not in files_a or name not in files_b:
                differences.append(f"{name}: written at one worker count only")
                continue
            diff = first_difference(load_report(files_a[name]),
                                    load_report(files_b[name]))
            if diff is not None:
                differences.append(f"{name}: {diff}")

    counts = " and ".join(WORKER_COUNTS)
    print(f"worker_count_gate: {len(benches)} benches, "
          f"{len(names)} report files, at {counts} sweep workers")
    for line in differences:
        print(f"  {line}")
    if differences:
        print(f"worker_count_gate: {len(differences)} differences")
        return 1
    print("worker_count_gate: every stdout and report file is identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
