"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py

They are kept out of the default test collection because the trace tests
run every workload twice.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# work counts: a pure function of the inputs, so equal across runs and machines
COUNTS = [m for m, unit in spans.PER_LAYER.items() if unit == "count"]


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def first_pass(tmp_path):
    """Set up a workload and run its first pass: (run, queries, answers)."""
    def make(name):
        workdir = tmp_path / name
        workdir.mkdir()
        r = run.Run(workloads.WORKLOADS[name], 1, workdir)
        _, queries = r.setup_pass(0)
        answers, _, _ = run.run_pass(queries)
        return r, queries, answers
    return make


def only(queries, answers, text):
    picked = [(q, a) for q, a in zip(queries, answers) if text in q.label]
    assert picked, text
    return picked[0]


def test_planted_faults_are_counted(first_pass):
    """A flipped rank, an unverified pattern and a wrong exit code each fail."""
    r, queries, answers = first_pass("finite-sweep")
    q, a = only(queries, answers, "question set")
    assert q.check(a, {}) is None
    value, capped = a[0]
    flipped = [(value + 1, capped)] + a[1:]
    planted = [(q, flipped)]

    r2, queries, answers = first_pass("dlo-rank")
    q, a = only(queries, answers, "search_ird depth 2")
    assert q.check(a, {}) is None
    pattern = a.pattern
    reversed_rows = tuple(tuple(reversed(row)) for row in pattern.witnesses)
    broken = dataclasses.replace(a, pattern=dataclasses.replace(pattern, witnesses=reversed_rows))
    planted.append((q, broken))

    r3, queries, answers = first_pass("cli-mix")
    peers = {x.key: y for x, y in zip(queries, answers)}
    q, a = only(queries, answers, "mo cuts")
    assert q.check(a, peers) is None
    planted.append((q, dataclasses.replace(a, code=3)))

    r.check([q for q, _ in planted], [a for _, a in planted])
    assert r.attempted == 3
    assert len(r.failures) == 3, r.failures


def test_known_defect_counts_only_its_symptom(first_pass):
    """A tagged query's documented wrong answer is a known defect; any other
    wrong answer, or an exception, of the same query is a failure."""
    r, queries, answers = first_pass("dlo-rank")
    q, _ = only(queries, answers, "op_rank cap 4 of x0 ; y z : y < x0 & x0 < z")
    assert q.defect is workloads.TWO_PARAMETER_RANK
    r.attempted, r.failures, r.known = 0, [], []
    r.check([q, q, q, q], [(4, True), (0, False), (5, True), run.Raised(ValueError("planted"))])
    assert r.attempted == 4
    assert [reason for _, reason, _ in r.known] == [
        "rank exact 0 is below exact 3, the rank of the same formula on the 12-element chain"]
    assert len(r.failures) == 2, r.failures


def test_raised_query_is_counted(first_pass):
    r, queries, answers = first_pass("dlo-cells")
    r.check(queries[:1], [run.Raised(ValueError("planted"))])
    assert r.failures and "planted" in r.failures[0][1]


def test_end_to_end_report_has_every_metric():
    doc = last_json(bench("--workload", "dlo-cells", "--seed", "2", "--seconds", "1", "--trace", "0"))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert set(doc["metrics"]) == set(run.END_TO_END)
    assert doc["attempted"] >= 1 and doc["failed"] == 0 and doc["correct"]
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def printed(proc):
    """The per-layer metrics a traced run printed before its result line."""
    out = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in spans.PER_LAYER:
            out[parts[0]] = float(parts[1])
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_self_times_add_up(name):
    procs = [bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")
             for _ in range(2)]
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    for proc in procs:
        result = last_json(proc)["metrics"]
        assert list(result) == [m["name"] for m in listed["per_layer"]]
        if name in {w["name"] for w in listed["workloads"]}:
            # a time that reads the same on every run would not be a measurement
            assert all(v["value"] > 0 for v in result.values() if v["unit"] == "s"), result
    metrics = [printed(proc) for proc in procs]
    assert set(metrics[0]) == set(spans.PER_LAYER)
    assert {k: metrics[0][k] for k in COUNTS} == {k: metrics[1][k] for k in COUNTS}
    for m in metrics:
        parts = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) + m["bench.self_s"]
        assert parts == pytest.approx(m["trace.wall_s"], rel=1e-6)
        assert 0 < m["bench.self_s"] < m["trace.wall_s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
