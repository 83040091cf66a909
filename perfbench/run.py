"""isogauss benchmark: two workloads through isogauss.cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

run from the root of an isogauss checkout. Each pass of a workload runs
in a fresh interpreter (perfbench/passes.py), as a CLI invocation does.

--trace 0: passes repeat, at least twice, while one more would end
nearer to S seconds than stopping; each follows a set-up-only
interpreter. wall_s and peak_rss_mb are the median over the passes;
each latency percentile is taken over the operations of all the passes
together; setup_s is the median over the set-ups of every interpreter
started, at least seven.

--trace 1: a traced pass between two untraced ones; prints the
per-layer metrics of the traced pass and trace_overhead_s, its wall_s
minus the mean wall_s of the untraced two.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Files go
to .perfbench/ in the checkout: a result file per run, with the machine
context, and the span file of a traced pass.
"""

import argparse
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import passes  # noqa: E402

SETUP_SAMPLES = 7
MIN_PASSES = 2
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
)


class PassFailed(Exception):
    pass


def run_pass(workload, seed, trace=0, setup_only=False, timeout=RUN_LIMIT_S):
    """One pass in a fresh interpreter; returns its JSON result.

    The child gets its own process group, so a pass that overruns is
    killed together with any pool workers it started.
    """
    cmd = [
        sys.executable, os.path.join(HERE, "passes.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    launch = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--launch", repr(launch)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"{workload} pass timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # leftover pool workers
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise PassFailed(f"{workload} pass exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def context(workload, seed, trace):
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }


def git_sha():
    """HEAD of the checkout, read from .git without leaving it; None when
    the checkout is not a git repository."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds):
    t_run = time.monotonic()
    setups = []
    results = []
    # a further pass runs only if it would end nearer to `seconds` than
    # stopping now, so a run's length stays near `seconds` even when one
    # pass is a large part of it
    while len(results) < MIN_PASSES or time.monotonic() - t_run + took / 2 < seconds:
        t = time.monotonic()
        left = RUN_LIMIT_S - (t - t_run)
        if results and left < took:
            break
        setups.append(run_pass(workload, seed, setup_only=True)["setup_s"])
        results.append(run_pass(workload, seed, timeout=left))
        setups.append(results[-1]["setup_s"])
        took = time.monotonic() - t
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(workload, seed, setup_only=True)["setup_s"])
    # every operation of every pass, so a percentile spans the whole run
    latencies = [x for r in results for x in r["latencies_ms"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "latency_p50_ms": passes.percentile(latencies, 0.5),
        "latency_p90_ms": passes.percentile(latencies, 0.9),
    }
    notes = {
        "passes": len(results),
        "setup_samples": len(setups),
        "operations_per_pass": results[0]["attempted"],
        "latency_samples": len(latencies),
    }
    return metrics, dict(END_TO_END), results, notes


def measure_traced(workload, seed):
    t_run = time.monotonic()
    results = []
    for trace in (0, 1, 0):
        left = RUN_LIMIT_S - (time.monotonic() - t_run)
        results.append(run_pass(workload, seed, trace=trace, timeout=left))
    before, traced, after = results
    metrics = {k: v for k, (v, _) in traced["layers"].items()}
    units = {k: u for k, (_, u) in traced["layers"].items()}
    metrics["trace_overhead_s"] = traced["wall_s"] - (before["wall_s"] + after["wall_s"]) / 2
    units["trace_overhead_s"] = "s"
    notes = {"passes": len(results), "trace_file": traced["trace_file"]}
    return metrics, units, results, notes


def run_workload(workload, seed, seconds, trace):
    if trace:
        metrics, units, results, notes = measure_traced(workload, seed)
    else:
        metrics, units, results, notes = measure(workload, seed, seconds)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    kinds = {}
    for r in results:
        for k, v in r["kinds"].items():
            kinds[k] = kinds.get(k, 0) + v
    summary = {
        "correct": all(r["incorrect"] == 0 for r in results),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failure_kinds": kinds,
        "known_overflow": sum(r["known_overflow"] for r in results),
        **notes,
    }
    record = {
        "context": context(workload, seed, trace),
        "summary": summary,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "passes": [
            {k: v for k, v in r.items() if k not in ("layers", "latencies_ms")} for r in results
        ],
    }
    os.makedirs(passes.OUT_DIR, exist_ok=True)
    path = os.path.join(passes.OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return record, path


def print_record(record, path):
    s = record["summary"]
    ctx = record["context"]
    print(f"== {ctx['workload']}  seed {ctx['seed']}  trace {ctx['trace']}  ({path})")
    print("   context " + json.dumps(ctx))
    for name, m in record["metrics"].items():
        extra = ""
        if name.startswith("latency_"):
            extra = f"  ({s['latency_samples']} samples: {s['passes']} passes of {s['operations_per_pass']} operations)"
        print(f"   {name:48s} {m['value']!s:>24} {m['unit']}{extra}")
    print(
        f"   {'fail_ratio':48s} {s['fail_ratio']:>24.6f} ratio"
        f"  ({s['failed']}/{s['attempted']}; kinds {s['failure_kinds']};"
        f" known overflow {s['known_overflow']})"
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=passes.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "isogauss", "cli.py")):
        print("error: run from the root of an isogauss checkout (no src/isogauss)", file=sys.stderr)
        return 2

    names = passes.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record, path = run_workload(name, args.seed, args.seconds, args.trace)
            print_record(record, path)
            records.append(record)
    except (PassFailed, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    prefix = len(records) > 1
    final = {
        "correct": all(r["summary"]["correct"] for r in records),
        "attempted": sum(r["summary"]["attempted"] for r in records),
        "failed": sum(r["summary"]["failed"] for r in records),
        "metrics": {
            (f"{r['context']['workload']}/{k}" if prefix else k): v
            for r in records
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
