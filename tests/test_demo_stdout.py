"""The two demos that run ratio_probe print the same bytes as recorded.

Each demo runs in a fresh interpreter with PYTHONPATH=src, as the README
runs it, and the sha256 of its stdout is compared with the digest
recorded before the probe's instances were stacked.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "ratio_probes.py": "f7ac3c24ebf978528824b8b8ee422ba21f5c806579a17041e109fe46592a6f26",
    "recorded_claims.py": "c5bc17d6828a6314f48871d4470bc112b556b10681e17b9c4314182c543b08f8",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, env=env, timeout=120, check=True,
    )
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[demo]
