"""The benchmark in bench/ wraps package functions by name; a renamed or
removed function must fail here, not in a benchmark pass."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TINY_CONFIG = """\
n = 2
points_per_axis = 8
alpha = 1.0
A = 0.1
profile = perturbative
f_scale = 0.05
mu_scale = 0.05
"""


def test_traced_child_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    # a subprocess, because the hooks patch scipy.fft and Path.write_text
    # for the whole process
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "--src", str(ROOT / "src"),
         "--config", str(cfg), "--out", str(tmp_path / "out"), "--mode", "trace"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["layers"]["solve.attempts"] >= 1
