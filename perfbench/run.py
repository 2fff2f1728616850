#!/usr/bin/env python3
"""Time-to-verdict benchmark of the UPEC-SSC engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload

Run from the repository root. Builds perfbench_driver (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then drives
one workload for about S seconds in a closed loop: one verification at a
time, each in a fresh driver process on a freshly built SoC and UpecContext.

--trace 0 prints the end-to-end metrics of untraced runs; --trace 1
interleaves traced and untraced runs and prints the per-layer split. The
seed orders the interleaving of repetitions. Every verification is checked
against the workload's expected result; at threads=1 the solver counters
must also repeat exactly. The last stdout line is one JSON object with
"correct", "attempted", "failed" and "metrics"; the exit code is 0 only when
every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

# One invocation must end within this many seconds after the build.
RUN_LIMIT_S = 170.0
# Setup-only driver processes per untraced run. Each times one cold setup,
# as a verification in a fresh process pays it; setup_s is the median over
# them and the setups of the verifications.
SETUP_PROCESSES = 100
BUILD_JOBS = "3"


class BenchError(Exception):
    pass


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build_driver(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("engine sources not found next to perfbench/")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver", "-j", BUILD_JOBS])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("build failed, see " + log_path)
    return os.path.join(out_dir, "perfbench_driver")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def source_digest():
    """Digest of the engine and benchmark sources, standing in for a commit
    when the tree is not a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD's commit read straight from .git/, or None outside a checkout."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def drive(binary, workload, commands, deadline):
    """Runs one fresh driver process on `commands` and returns its records,
    one per command. The process is killed if it outlives `deadline`."""
    try:
        out = subprocess.run([binary] + benchlib.WORKLOADS[workload]["driver_args"],
                             input="".join(c + "\n" for c in commands),
                             stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("driver exceeded the run time limit")
    if out.returncode != 0:
        raise BenchError("driver exited with code %d" % out.returncode)
    records = [json.loads(line) for line in out.stdout.splitlines()]
    if len(records) != len(commands):
        raise BenchError("driver answered %d of %d commands" % (len(records), len(commands)))
    return records


def measure(binary, workload, seconds, seed, trace, trace_dir, deadline):
    """Starts verifications, each in its own driver process, until `seconds`
    have passed. A traced run alternates traced and untraced verifications
    in a seed-chosen order. An untraced run then times SETUP_PROCESSES
    setups, one per fresh driver process. Returns (setup records, untraced
    verifications, traced verifications)."""
    rng = random.Random(seed)
    untraced, traced = [], []
    start = time.monotonic()
    while time.monotonic() < start + seconds or (trace and not (traced and untraced)):
        if not trace:
            kind = "verify"
        elif len(traced) != len(untraced):
            kind = "verify" if len(untraced) < len(traced) else "traced"
        else:
            kind = rng.choice(("verify", "traced"))
        if kind == "traced":
            path = os.path.join(trace_dir, "%s-%d.json" % (workload, len(traced)))
            record = drive(binary, workload, ["traced " + path], deadline)[0]
            with open(path) as f:
                record["spans"] = benchlib.aggregate_spans(benchlib.span_events(json.load(f)))
            os.remove(path)
            traced.append(record)
        else:
            untraced.append(drive(binary, workload, ["verify"], deadline)[0])
    setups = [] if trace else [drive(binary, workload, ["setup"], deadline)[0]
                               for _ in range(SETUP_PROCESSES)]
    return setups, untraced, traced


def check_determinism(workload, records, store_path):
    """At threads=1 the solver counters must repeat exactly: across the
    records of this run, and against earlier runs of the same driver binary
    (remembered in `store_path`). Returns a list of problems."""
    if benchlib.WORKLOADS[workload]["threads"] != 1:
        return []
    seen = sorted({benchlib.sat_counters(r) for r in records})
    problems = []
    if len(seen) > 1:
        problems.append("solver counters differ between repetitions: %s" % seen)
    if os.path.isfile(store_path):
        with open(store_path) as f:
            earlier = tuple(json.load(f))
        if seen and seen[0] != earlier:
            problems.append("solver counters %s differ from an earlier run's %s"
                            % (seen[0], earlier))
    elif len(seen) == 1:
        with open(store_path, "w") as f:
            json.dump(list(seen[0]), f)
    return problems


def run_workload(binary, workload, seconds, seed, trace, facts):
    out_dir = build_dir()
    trace_dir = os.path.join(out_dir, "traces")
    counters_dir = os.path.join(out_dir, "counters")
    os.makedirs(trace_dir, exist_ok=True)
    os.makedirs(counters_dir, exist_ok=True)

    spec = benchlib.WORKLOADS[workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    build_facts = drive(binary, workload, ["facts"], deadline)[0]
    if not build_facts.get("ndebug"):
        raise BenchError("refusing to time a build without NDEBUG")
    facts.update(compiler=build_facts["compiler"], build_type=build_facts["build_type"])
    setups, untraced, traced = measure(binary, workload, seconds, seed, trace, trace_dir,
                                       deadline)

    verifies = untraced + traced
    failed = 0
    for r in verifies:
        problems = benchlib.check_outcome(r, spec["expect"])
        if problems:
            failed += 1
            print("%s: wrong output: %s" % (workload, "; ".join(problems)), file=sys.stderr)
    store = os.path.join(counters_dir, "%s-%s.json" % (workload, facts["driver_digest"]))
    nondeterminism = check_determinism(workload, verifies, store)
    for p in nondeterminism:
        print("%s: determinism check failed: %s" % (workload, p), file=sys.stderr)

    if trace:
        metrics = benchlib.per_layer_metrics(traced, untraced, spec["threads"])
    else:
        metrics = benchlib.end_to_end_metrics(setups + untraced, untraced)
    summary = {"workload": workload, "verify_samples": len(untraced),
               "traced_samples": len(traced), "setup_samples": len(setups + untraced),
               "failure_rate": failed / len(verifies)}
    correct = failed == 0 and not nondeterminism
    return correct, len(verifies), failed, metrics, summary


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(benchlib.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        binary = build_driver(build_dir())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    facts = {"nproc": os.cpu_count(), "machine": platform.machine(),
             "commit": git_commit(), "source_digest": source_digest(),
             "driver_digest": file_digest(binary), "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace}
    names = sorted(benchlib.WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            correct, n, bad, wl_metrics, summary = run_workload(
                binary, name, args.seconds, args.seed, args.trace, facts)
        except BenchError as exc:
            print("perfbench: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        print(json.dumps({"facts": facts, "summary": summary}))
        for metric_name, entry in wl_metrics.items():
            samples = (summary["traced_samples"] if args.trace else
                       summary["setup_samples"] if metric_name == "setup_s" else
                       summary["verify_samples"])
            print("%-22s %-30s %14.6g %-6s n=%d" % (name, metric_name, entry["value"],
                                                    entry["unit"], samples))
        print("%-22s %-30s %14.6g" % (name, "failure_rate", summary["failure_rate"]))
        all_correct &= correct
        attempted += n
        failed += bad
        if args.workload == "all":
            metrics.update({"%s/%s" % (name, k): v for k, v in wl_metrics.items()})
        else:
            metrics = wl_metrics
    print(benchlib.result_line(all_correct, attempted, failed, metrics))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
