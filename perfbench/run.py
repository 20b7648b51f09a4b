"""The opdim benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finite-sweep --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

A run drives a closed loop: one client on one thread issues each query when
the previous one returns.  Queries come in passes of a fixed template mix.
Before each pass the client sets up: it imports opdim from ``src/`` afresh,
writes the pass's seeded inputs into a scratch directory inside the
checkout, loads and parses them and constructs the contexts; ``setup_s`` is
the upper quartile of these set-ups.  Passes repeat until ``--seconds`` have
passed, set-ups and checks included.  After each pass every answer is
checked against the independent oracles in ``oracle.py``, outside the timed
region.  See README.md for the workloads and metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and traced in turn (see ``spans.py``) and reports the per-layer
metrics.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every query that showed a known defect and every failed one.
``--workload all`` runs every workload in turn in its own process and
prints one table.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("logic", "contexts", "ranks", "patterns", "dlo", "multiorder", "cli")
# fewest set-up samples behind setup_s; a run takes one per pass
SETUP_REPEATS = 5
# traced and untraced runs of the pass behind trace.overhead_ratio
TRACE_REPEATS = 3

END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Raised:
    """An exception a query raised instead of answering."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"raised {type(self.exc).__name__}: {self.exc}"


def import_opdim():
    """A fresh import of opdim from src/, dropping any earlier one."""
    for name in [n for n in sys.modules if n == "opdim" or n.startswith("opdim.")]:
        del sys.modules[name]
    api = SimpleNamespace(**{m: importlib.import_module(f"opdim.{m}") for m in MODULES})
    if Path(api.logic.__file__).resolve().parent != SRC / "opdim":
        raise SystemExit(f"opdim was imported from {api.logic.__file__}, not from {SRC}")
    return api


class Run:
    """One workload on one seed: set-up, passes, checks."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed_text = f"{workload.name}/{seed}"
        self.workdir = workdir
        self.setup_times = []
        self.attempted = 0
        self.failures = []      # (label, reason)
        self.known = []         # (label, reason, note): known defects that showed

    def inputs(self, index):
        passdir = self.workdir / f"pass-{index}"
        passdir.mkdir()
        rng = Random(f"{self.seed_text}/{index}")
        return self.workload.generate(rng, index, passdir, self.seed_text)

    def setup_pass(self, index):
        """Import opdim afresh, generate pass `index` and build its queries;
        the time taken is one set-up sample.  Returns (inputs, queries)."""
        t0 = time.perf_counter()
        self.api = import_opdim()
        inputs = self.inputs(index)
        queries = self.workload.build(self.api, inputs, index)
        self.setup_times.append(time.perf_counter() - t0)
        return inputs, queries

    def check(self, queries, answers):
        """Count the pass's queries and record each wrong one, with its reason:
        as a known defect when the query is tagged with one and the reason shows
        its symptom, else as a failure."""
        peers = {q.key: a for q, a in zip(queries, answers) if q.key is not None}
        for q, a in zip(queries, answers):
            self.attempted += 1
            if isinstance(a, Raised):
                reason = repr(a)
            else:
                try:
                    reason = q.check(a, peers)
                except Exception as exc:  # a malformed answer the check could not read
                    reason = f"answer could not be checked ({type(exc).__name__}: {exc})"
            if reason and q.defect is not None and q.defect.shows(reason):
                self.known.append((q.label, reason, q.defect.note))
            elif reason:
                self.failures.append((q.label, reason))


def run_pass(queries, tracer=None):
    """Issue the queries one after another; (answers, latencies, wall)."""
    answers, latencies = [], []
    started = time.perf_counter()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query_id = i
        t0 = time.perf_counter()
        try:
            answer = q.run()
        except Exception as exc:  # counted as a failed query, the loop goes on
            answer = Raised(exc)
        latencies.append(time.perf_counter() - t0)
        answers.append(answer)
    return answers, latencies, time.perf_counter() - started


def upper_quartile(values):
    values = list(values)
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def measure(run, seconds):
    """The end-to-end metrics, tracing off.  Every pass issues the same
    template in each slot, so a run can compare like with like: it takes each
    slot's upper-quartile latency across its passes, which shrugs off the
    seconds in which a shared host runs the loop faster or slower than
    usual, and reports the rate and latency percentiles of that profile."""
    passes = []
    query_time, index = 0.0, 0
    started = time.perf_counter()
    while True:
        _, queries = run.setup_pass(index)
        answers, latencies, wall = run_pass(queries)
        run.check(queries, answers)
        del queries, answers
        gc.collect()  # every pass starts from a heap without the last pass's garbage
        passes.append(latencies)
        query_time += wall
        elapsed = time.perf_counter() - started
        # stop when less than half a pass is left, so a run lasts about `seconds`
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            break
        index += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(run.setup_times) < SETUP_REPEATS:
        index += 1
        run.setup_pass(index)
    profile = [upper_quartile(slot) * 1000 for slot in zip(*passes)]
    cuts = statistics.quantiles(profile, n=100)
    samples = sum(len(p) for p in passes)
    beyond = sum(1 for p in passes for x in p if x * 1000 > cuts[94])
    report = [f"{len(passes)} passes of {len(profile)} queries in {elapsed:.3f} s, "
              f"{query_time:.3f} s of it in queries, {len(run.setup_times)} set-ups",
              f"latency samples {samples}, {beyond} beyond p95"]
    return {
        "throughput_qps": len(profile) / sum(profile) * 1000,
        "latency_p50_ms": cuts[49],
        "latency_p95_ms": cuts[94],
        "setup_s": upper_quartile(run.setup_times),
        "peak_rss_mb": peak_mb,
    }, report


def traced(run, trace_out=None):
    """The per-layer metrics.  One pass is run untraced and traced in turn,
    TRACE_REPEATS times, each time with fresh contexts; the spans and work
    counts come from the first traced run, so the counts repeat exactly, and
    the overhead ratio compares the median traced and untraced times."""
    import spans
    import workloads

    inputs, queries = run.setup_pass(0)
    walls, kept = {False: [], True: []}, None
    for _ in range(TRACE_REPEATS):
        for tracing in (False, True):
            tracer = spans.Tracer()
            if tracing:
                tracer.install(run.api)
            try:
                queries = run.workload.build(run.api, inputs, 0)
                gc.collect()
                tracer.active = tracing
                answers, _, wall = run_pass(queries, tracer)
            finally:
                tracer.active = False
                tracer.uninstall()
            walls[tracing].append(wall)
            if tracing and kept is None:
                kept = tracer
                run.check(queries, answers)
    unexpected = sum(1 for _, reason, *_ in run.failures + run.known
                     if reason.startswith(workloads.UNEXPECTED_EXIT))
    if trace_out:
        kept.write(trace_out)
    wall_traced, wall_untraced = walls[True][0], statistics.median(walls[False])
    metrics = kept.metrics(wall_traced, wall_untraced, unexpected)
    metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / wall_untraced
    return metrics, [
        f"pass traced {TRACE_REPEATS} times and untraced {TRACE_REPEATS} times, in turn; "
        f"{run.attempted} queries checked, {len(kept.start)} spans",
        f"median wall: traced {statistics.median(walls[True]):.3f} s, "
        f"untraced {wall_untraced:.3f} s"]


def listed(section):
    """The metric names BENCHMARK.json lists in `section`: those the result
    line carries.  The lines before it print every metric the run took."""
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]]


def run_one(args):
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(workload, args.seed, workdir)
        if args.trace:
            out = ROOT / ".perfbench-out"
            out.mkdir(exist_ok=True)
            metrics, report = traced(run, out / f"trace-{workload.name}-{args.seed}.tsv")
            units, section = spans.PER_LAYER, "per_layer"
        else:
            metrics, report = measure(run, args.seconds)
            units, section = END_TO_END, "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed, known = len(run.failures), len(run.known)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for line in report:
        print(f"  {line}")
    for name in units:
        print(f"  {name} {metrics[name]:.9g} {units[name]}")
    print(f"  error_rate {(failed + known) / run.attempted:.6g} ratio "
          f"({known} known defects + {failed} failed of {run.attempted})")
    for label, reason, note in run.known:
        print(f"KNOWN DEFECT ({note}) {label}: {reason}")
    for label, reason in run.failures:
        print(f"FAILED {label}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in listed(section)},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; their reports, then one table."""
    import workloads

    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        known = sum(1 for line in lines if line.startswith("KNOWN DEFECT"))
        rows.append((name, json.loads(lines[-1]), known))
    print()
    metrics = list(rows[0][1]["metrics"])
    print("metric".ljust(36) + "unit".ljust(8) + "".join(name.rjust(14) for name, *_ in rows))
    for metric in metrics:
        unit = rows[0][1]["metrics"][metric]["unit"]
        print(metric.ljust(36) + unit.ljust(8)
              + "".join(f"{doc['metrics'][metric]['value']:14.6g}" for _, doc, _ in rows))
    print("error_rate".ljust(36) + "ratio".ljust(8)
          + "".join(f"{(doc['failed'] + known) / doc['attempted']:14.6g}" for _, doc, known in rows))
    print("known / failed / attempted".ljust(44)
          + "".join(f"{known}/{doc['failed']}/{doc['attempted']}".rjust(14) for _, doc, known in rows))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("finite-sweep", "dlo-cells", "dlo-rank", "cli-mix", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opdim" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no opdim sources at {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
