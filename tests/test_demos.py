"""Each demo runs as a script, exits 0 and prints the same bytes as when its
output was recorded (SHA-256 of stdout)."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "dense_order_dimension.py":
        "7b97c5513dcebae70f1b0c546470dbc20c5d380fcd10f5f03b740e0c9653085b",
    "multiorders_and_grids.py":
        "ef6245afa9d46e1bb0d03d19f1aee3ddd3bf6ff6237066aa836519ce85bcda4b",
    "patterns_and_dimension_witnesses.py":
        "71a5edefa8c7b7ffa07b498ce6c3d8d7645c0fdf1ea700dba585f76203559e12",
    "ranks_on_finite_orders.py":
        "0ae83b5856f6ccbc850dd1368c4e92a1924fd28627a0857fdfdc5e686b605df8",
}


def test_every_demo_is_pinned():
    assert sorted(DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output_pinned(name):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMOS[name]
