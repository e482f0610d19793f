"""The benchmark in bench/ wraps package functions by name; a renamed or
removed function must fail here, not in a benchmark pass.  Likewise a slower
Newton rate or a solve its checker rejects."""

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
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    assert layers["solve.attempts"] >= 1
    # the span around forms.gamma2_mask must see the solve's own cone tests
    assert layers["forms.cone.calls"] >= 1


def test_manufactured_workload_solve(tmp_path, monkeypatch):
    # the benchmark's own child and checker on its Krylov-bound workload;
    # nothing may write bytecode under bench/
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run
    import workloads

    inputs = workloads.prepare(workloads.WORKLOADS["manufactured-n2-16"], 0,
                               tmp_path / "inputs")
    out = tmp_path / "out"
    result = run.run_child("solve", inputs, out)
    verdict = run.verify(inputs, out)
    assert verdict.ok, verdict.lines()
    assert result["newton_steps"] <= 9


def test_n3_traced_memory(tmp_path, monkeypatch):
    # the benchmark's traced child on its memory-bound workload: the solve
    # must pass its checker, and the tracemalloc peaks of one derivative
    # bundle, one linearization and one Newton step must stay within the
    # packed layout's budget (the complex (n, n) Hessian gave 126 and 214 MiB
    # for the bundle and the step; a step that kept g', the coefficient rows
    # past the linear solve and a rejected trial next to the new one gave
    # 106; coefficient rows in a fresh array next to the start iterate's
    # live bundle gave 42 and 66 for the linearization and the step; scipy's
    # BiCGStab and a fresh spectrum per derivative row gave 25.5 for the step;
    # whole-grid temporaries in the linearization gave 8)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run
    import workloads

    inputs = workloads.prepare(workloads.WORKLOADS["perturbative-n3-8"], 0,
                               tmp_path / "inputs")
    out = tmp_path / "out"
    result = run.run_child("trace", inputs, out)
    verdict = run.verify(inputs, out)
    assert verdict.ok, verdict.lines()
    layers = result["layers"]
    assert layers["torus.derivs.peak_mb"] <= 90
    assert layers["forms.lincoef.peak_mb"] <= 5
    assert layers["solve.step.peak_mb"] <= 24
