"""One short benchmark run per listed workload (perfbench/run.py): it catches
a renamed function or a wrong answer before a full timed run does."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["dlo-rank", "cli-mix"])
def test_benchmark_workload_answers_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, proc.stdout
