"""Solver benchmark: pinned `sigma2lab solve` workloads, checked and timed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --selftest
    python3 bench/run.py --compare A.jsonl B.jsonl

Run from the root of a checkout: the package is imported from ./src.  A run
builds its inputs from the seed, then solves in fresh child processes, one
solve each (bench/child.py), until --seconds have passed; every child's
artifacts go through the independent checker (bench/check.py).  With
--trace 0 the last stdout line holds the end-to-end metrics, medians over
the run's children; with --trace 1 it holds the per-layer metrics of one
traced solve and the tracing overhead against the untraced solves made
just before and just after it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUPS = 5              # fewest set-up samples per untraced run
CHILD_TIMEOUT_S = 150.0

# name -> unit of every end-to-end metric, as BENCHMARK.json lists them
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB",
              "newton_steps": "count", "krylov_matvecs": "count"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".peak_mb"):
        return "MiB"
    if name.endswith(".bytes"):
        return "B-computed"   # summed from array sizes, not measured traffic
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, inputs: wl.Inputs, out: Path, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
           "--config", str(inputs.config), "--out", str(out), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:   # run() kills and reaps the child
        raise ChildFailed(f"{mode} child timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def moser_gaps(inputs: wl.Inputs, out: Path) -> dict:
    """The package's own Moser identity gaps on the stored solution."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "sigma2lab", "moser-check", "--config", str(inputs.config),
         "--solution", str(out / "solution.bin"), "--out", str(out / "moser"),
         "--k-list", ",".join(str(k) for k in check.MOSER_K), "--no-header"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env)
    if proc.returncode != 0:
        raise ChildFailed(f"moser-check exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rows = check.read_monitors(out / "moser" / "moser.csv")
    return {int(r["k"]): r["identity_gap"] for r in rows}


def verify(inputs: wl.Inputs, out: Path) -> check.Verdict:
    gaps = moser_gaps(inputs, out) if inputs.workload.kind == "manufactured" else None
    return check.check_run(inputs, out, gaps)


ARTIFACTS = ("solution.bin", "monitors.csv", "summary.txt")


def same_artifacts(a: Path, b: Path) -> bool:
    return all((a / name).read_bytes() == (b / name).read_bytes() for name in ARTIFACTS)


def measure(w: wl.Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    inputs = wl.prepare(w, seed, workdir / "inputs")
    attempted = failed = 0
    results, outs = [], []
    notes = []

    def attempt(mode, out, spans=None):
        nonlocal attempted, failed
        attempted += 1
        try:
            res = run_child(mode, inputs, out, spans)
        except ChildFailed as exc:
            failed += 1
            notes.append(str(exc))
            return None
        return res

    if trace:
        # untraced solves on both sides of the traced one, so that a drift
        # in machine speed does not pass for tracing overhead
        spans = WORK / "traces" / f"{w.name}-seed{seed}.jsonl"
        outs = [workdir / "plain0", workdir / "traced", workdir / "plain1"]
        plain0 = attempt("solve", outs[0])
        traced = attempt("trace", outs[1], spans)
        plain1 = attempt("solve", outs[2])
    else:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            out = workdir / f"solve{len(outs)}"
            res = attempt("solve", out)
            outs.append(out)
            if res is not None:
                results.append(res)
            now = time.perf_counter()
            if (now - start) + (now - t0) > seconds:
                break   # the next solve would end after the measuring window
        # every child times its set-up; top up with set-up-only children
        setups = [r["setup_s"] for r in results]
        for i in range(SETUPS - len(setups)):
            res = attempt("setup", workdir / f"setup{i}")
            if res is not None:
                setups.append(res["setup_s"])

    correct = failed == 0
    if correct:
        try:
            verdict = verify(inputs, outs[0])
            deterministic = all(same_artifacts(outs[0], o) for o in outs[1:])
        except (ChildFailed, OSError, ValueError, KeyError) as exc:
            notes.append(f"checker could not read the artifacts: {exc}")
            correct = False
        else:
            notes += verdict.lines()
            if not deterministic:
                notes.append("artifacts differ between solves of the same inputs")
            correct = verdict.ok and deterministic

    if trace:
        metrics = {}
        if failed == 0:
            layers = dict(traced["layers"])
            layers["trace.solve_s"] = traced["solve_s"]
            layers["trace.overhead_s"] = traced["solve_s"] - 0.5 * (plain0["solve_s"]
                                                                   + plain1["solve_s"])
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in layers.items()}
    else:
        samples = {"setup_s": setups}
        for name in ("solve_s", "peak_rss_mb", "newton_steps", "krylov_matvecs"):
            samples[name] = [r[name] for r in results]
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items() if samples[name]}
        notes.append("samples: " + json.dumps({"solve_s": samples["solve_s"],
                     "solve_cpu_s": [r["solve_cpu_s"] for r in results]}))
    for note in notes:
        print(note, file=sys.stderr)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        return measure(wl.WORKLOADS[name], seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# checker self-test


def selftest() -> int:
    """Solve each workload once (seed 0) and show that the checker accepts the
    result and rejects three corruptions of it."""
    WORK.mkdir(exist_ok=True)
    ok = True
    for w in wl.WORKLOADS.values():
        workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{w.name}-", dir=WORK))
        try:
            inputs = wl.prepare(w, 0, workdir / "inputs")
            out = workdir / "out"
            run_child("solve", inputs, out)
            gaps = moser_gaps(inputs, out) if w.kind == "manufactured" else None
            n, u = wl.read_dump(out / "solution.bin")
            _, mu = wl.read_dump(inputs.mu_dump)
            node = tuple(s // 3 for s in u.shape)
            bumped = u.copy()
            bumped[node] += 1e-6
            cases = [("clean", None, None, None),
                     ("node+1e-6", bumped, None, "residual"),
                     ("shift+1e-6", u + 1e-6, None, "normalization"),
                     ("mu-sign", None, -mu, "residual")]
            for label, u_bad, mu_bad, must_fail in cases:
                case = workdir / label
                shutil.copytree(out, case)
                if u_bad is not None:
                    wl.write_dump(case / "solution.bin", n, u_bad)
                case_inputs = inputs
                if mu_bad is not None:
                    wl.write_dump(case / "mu.bin", n, mu_bad)
                    case_inputs = wl.Inputs(w, 0, inputs.config, inputs.f_dump,
                                            case / "mu.bin", inputs.A, inputs.u_star)
                verdict = check.check_run(case_inputs, case, gaps)
                good = verdict.ok if must_fail is None else must_fail in verdict.failed()
                ok &= good
                status = "accepted" if verdict.ok else "rejected by " + ", ".join(verdict.failed())
                print(f"{'ok  ' if good else 'BAD '}{w.name:20s} {label:11s} {status}")
                if label == "clean":
                    for line in verdict.lines():
                        print(f"      {line}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print("checker self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# compare mode


def _spread(values: list) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(path_a: Path, path_b: Path) -> int:
    """Per workload and end-to-end metric: median and quartiles of each side,
    and whether B's median lies within the benchmark's bound of A's."""
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = []
    for path in (path_a, path_b):
        recs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
        sides.append([r for r in recs if not r["trace"]])
    names = sorted({r["workload"] for side in sides for r in side})
    all_ok = True
    print(f"{'workload':20s} {'metric':15s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B-A':>8s} {'bound':>6s}  verdict")
    for name in names:
        runs = [[r for r in side if r["workload"] == name] for side in sides]
        if not all(runs):
            print(f"{name:20s} missing on one side")
            all_ok = False
            continue
        for metric in END_TO_END:
            vals = [[r["result"]["metrics"][metric]["value"] for r in side] for side in runs]
            (ma, qa1, qa3), (mb, qb1, qb3) = _spread(vals[0]), _spread(vals[1])
            rel = (mb - ma) / ma
            agree = abs(rel) <= bounds[metric]
            if END_TO_END[metric] == "count":
                by_seed = [{r["seed"]: r["result"]["metrics"][metric]["value"] for r in side}
                           for side in runs]
                agree &= all(by_seed[1][s] == v for s, v in by_seed[0].items() if s in by_seed[1])
            all_ok &= agree
            print(f"{name:20s} {metric:15s} {ma:12.5g} [{qa1:9.5g}, {qa3:9.5g}] "
                  f"{mb:12.5g} [{qb1:9.5g}, {qb3:9.5g}] {rel:+8.2%} {bounds[metric]:6.2f}  "
                  f"{'agree' if agree else 'DIFFER'}")
        shares = [sum(r["result"]["failed"] for r in side) / sum(r["result"]["attempted"] for r in side)
                  for side in runs]
        all_ok &= shares[0] == shares[1]
        print(f"{name:20s} {'failed share':15s} {shares[0]:12.5g} {'':22s} {shares[1]:12.5g}")
    print("sets agree" if all_ok else "sets DIFFER")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    mode.add_argument("--all", action="store_true", help="run every workload in turn")
    mode.add_argument("--selftest", action="store_true", help="show the checker rejects corruptions")
    mode.add_argument("--compare", nargs=2, metavar="RESULTS", help="two --record files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", default=None, help="append the result line to this file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "sigma2lab" / "__init__.py").is_file():
        print(f"no sigma2lab package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    names = sorted(wl.WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        if args.record:
            with open(args.record, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed,
                                     "trace": args.trace, "result": result}) + "\n")
        if args.all:
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, mv in result["metrics"].items():
                print(f"  {metric} = {mv['value']:.6g} {mv['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
