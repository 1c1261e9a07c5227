"""Fixed-work benchmark of the wstable library and command line.

    python3 perfbench/run.py --workload closure|series|cone|cli|all \
        --seed N --seconds S --trace 0|1

Runs whole rounds of a workload's seeded query list, one query at a time,
then checks every output against independent computations (checks.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run makes one
untraced and one traced round and reports the per-layer metrics.  Result
and trace files go to perfbench/out/.  ``--workload all`` runs each
workload in a fresh interpreter, one after the other.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

OUT = BENCH / "out"

# Nominal length of one round on the reference machine (see README.md).  A
# run makes max(1, round(seconds / ROUND_S)) whole rounds, so the work of a
# run is fixed by its arguments, never by a clock.
ROUND_S = {"closure": 10.0, "series": 6.5, "cone": 9.0, "cli": 23.0}

# set-up samples per run, spread over the gaps before, between and after rounds
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout(f"query exceeded {workloads.QUERY_BUDGET_S} s")


def timed_phase(queries, rounds, call, between=None):
    """Run every query of every round; returns outputs, latencies and round walls.

    Each query starts with the collector run and the outputs kept for the
    checks frozen, so that no query pays for collecting what the benchmark
    itself holds.  A round's wall is the sum of its query latencies, which
    leaves out those collector runs.  ``between`` runs before each round and
    after the last one, outside the timed wall.
    """
    outputs, latencies, walls = [], [], []
    for _ in range(rounds):
        if between:
            between()
        wall = 0.0
        for query in queries:
            gc.collect()
            gc.freeze()
            t0 = time.perf_counter()
            out = call(query)
            latencies.append(time.perf_counter() - t0)
            wall += latencies[-1]
            outputs.append(out)
        walls.append(wall)
    if between:
        between()
    return outputs, latencies, walls


def call_with_budget(query):
    signal.setitimer(signal.ITIMER_REAL, workloads.QUERY_BUDGET_S)
    try:
        return query.call()
    except Exception as exc:  # recorded; the check phase counts it as failed
        return exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def check_outputs(queries, outputs):
    """Returns (failed, wrong, notes).

    Each distinct query is checked once; its copies must give the same
    output.  A query fails when it gives no result (an exception, a wrong
    exit code or diagnostic) and is wrong when its result fails a check.
    """
    counts = {"failed": 0, "wrong": 0}
    first, notes = {}, []
    rounds = len(outputs) // len(queries)
    for query, out in zip(queries * rounds, outputs):
        if isinstance(out, Exception):
            verdict = ("failed", f"{type(out).__name__}: {out}")
        else:
            normal = query.normal(out)
            if query.label not in first:
                first[query.label] = (normal, _verdict(query, normal))
            seen, verdict = first[query.label]
            if normal != seen:
                verdict = ("wrong", "output differs between copies")
        if verdict:
            counts[verdict[0]] += 1
            note = f"{verdict[0]}: {query.label}: {verdict[1]}"
            if note not in notes:
                notes.append(note)
    return counts["failed"], counts["wrong"], notes


def _verdict(query, normal):
    try:
        query.check(normal)
    except checks.OperationFailed as exc:
        return ("failed", str(exc))
    except checks.CheckFailure as exc:
        return ("wrong", str(exc))
    except Exception as exc:  # an output the check cannot read is a wrong output
        return ("wrong", f"unreadable output: {type(exc).__name__}: {exc}")
    return None


def percentile(values, q):
    """Quantile ``q`` (0..1) with linear interpolation between order statistics."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
              "workloads.build(sys.argv[2], int(sys.argv[3]))")


def setup_sampler(name, seed, gaps):
    """Times fresh interpreters that import wstable and build the inputs.

    ``sample`` runs in each of the ``gaps`` before, between and after the
    rounds, so the SETUP_SAMPLES samples spread over the whole run; the
    metric is their median.
    """
    per_gap = [SETUP_SAMPLES * (i + 1) // gaps - SETUP_SAMPLES * i // gaps
               for i in range(gaps)]
    times = []

    def sample():
        for _ in range(per_gap.pop()):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_CODE, str(BENCH), name, str(seed)],
                           check=True, timeout=120)
            times.append(time.perf_counter() - t0)
    return sample, times


def import_seconds():
    """Median time to import wstable.cli in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import wstable.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code, str(workloads.SRC)], check=True,
                             capture_output=True, text=True, timeout=120).stdout
        times.append(float(out))
    return statistics.median(times)


def run(name, seed, seconds, trace):
    signal.signal(signal.SIGALRM, _alarm)
    OUT.mkdir(exist_ok=True)
    if trace:
        return run_traced(name, seed)

    rounds = max(1, round(seconds / ROUND_S[name]))
    queries = workloads.build(name, seed)
    if name == "cli":
        workloads.run_cli_subprocess(["--help"], None)  # fills the bytecode cache
    sample, setup_times = setup_sampler(name, seed, rounds + 1)
    outputs, latencies, walls = timed_phase(queries, rounds, call_with_budget, sample)
    # for cli, the largest child: the command-line runs, which outgrow the set-up ones
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    failed, wrong, notes = check_outputs(queries, outputs)
    metrics = {
        "queries_per_s": (statistics.median(len(queries) / w for w in walls), "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    (OUT / f"{name}-seed{seed}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "rounds": rounds, "notes": notes,
        "latencies_s": [[q.label, t] for q, t in zip(queries * rounds, latencies)],
    }, indent=1))
    return result(len(latencies), failed, wrong, notes, metrics)


def run_traced(name, seed):
    """One untraced round, then one traced round of the same in-process queries."""
    from tracer import Tracer

    workloads.library()
    queries = workloads.build(name, seed, in_process_cli=True)
    _, _, (untraced_wall,) = timed_phase(queries, 1, call_with_budget)
    tracer = Tracer()
    tracer.install()
    try:
        outputs, latencies, (traced_wall,) = timed_phase(
            queries, 1, lambda q: tracer.query(q.label, lambda: call_with_budget(q)))
    finally:
        tracer.uninstall()
    failed, wrong, notes = check_outputs(queries, outputs)
    metrics = {k: (v, _unit(k)) for k, v in tracer.metrics().items()}
    metrics["cli.import_s"] = (import_seconds() if name == "cli" else 0.0, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    (OUT / f"{name}-seed{seed}-trace.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "untraced_wall_s": untraced_wall,
         "traced_wall_s": traced_wall, "notes": notes, **tracer.dump()}, indent=1))
    return result(len(latencies), failed, wrong, notes, metrics)


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_per_query"):
        return "count/query"
    return "count"


def result(attempted, failed, wrong, notes, metrics):
    for note in notes:
        print(note)
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed, seconds, trace):
    """Each workload in its own interpreter; metrics are prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        for line in lines[:-1]:
            print(f"{name}: {line}")
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
            print(f"{name:8s} {metric:32s} {value['value']:14.4f} {value['unit']}")
        print(f"{name:8s} attempted {part['attempted']}, failed {part['failed']}, "
              f"correct {part['correct']}")
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "wstable" / "__init__.py").is_file():
        print(f"error: no wstable package under {workloads.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        out = run_all(args.seed, args.seconds, args.trace)
    else:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
