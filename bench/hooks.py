"""Spans and counters around the calls into each sigma2lab layer.

The hooks replace module attributes of an imported sigma2lab, two of its
methods and `Path.write_text` with wrappers; every module that bound the
same function object gets the wrapper, so calls are caught whichever module
makes them.  A span
records (id, name, start, end, parent id); a layer's self time is its span's
duration minus the time its child spans cover.  In trace mode the spans
named in PEAK_SPANS also record their tracemalloc peak above the memory in
use on entry; nested peaks are carried up to the enclosing spans, because
tracemalloc has a single peak register.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import scipy.fft
from scipy.sparse.linalg import LinearOperator

KRYLOV = ("bicgstab", "gmres")   # the solver's first choice and its fallback
FFT = ("fftn", "ifftn", "rfftn", "irfftn")
PEAK_SPANS = ("torus.derivs", "forms.lincoef", "solve.step")
ROOT = "cli.solve"
# spans whose self time is the solver's own glue (backtracking, updates, stops)
SOLVER_GLUE = ("solve.run", "solve.attempt", "solve.step")
MIB = float(1 << 20)


class StopAtSolve(Exception):
    """Raised on entry to the continuation when only set-up is measured."""


class HookError(RuntimeError):
    pass


class Tracer:
    def __init__(self, spans: bool):
        self.spans = spans
        self.counts = Counter()
        self.records = []     # [id, name, start, end, parent, self_s, peak_bytes]
        self._stack = []      # open frames: [id, name, start, child_s, peak_max, mem0]
        self._started = 0

    # -- spans ---------------------------------------------------------

    def enter(self, name: str, start: float | None = None) -> list:
        peak = self.spans and name in PEAK_SPANS and tracemalloc.is_tracing()
        mem0 = None
        if peak:
            cur, top = tracemalloc.get_traced_memory()
            for frame in self._stack:
                if frame[5] is not None:
                    frame[4] = max(frame[4], top)
            tracemalloc.reset_peak()
            mem0 = cur
        self._started += 1
        frame = [self._started, name,
                 time.perf_counter() if start is None else start, 0.0, mem0 or 0, mem0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, end: float | None = None) -> None:
        end = time.perf_counter() if end is None else end
        if self._stack.pop() is not frame:
            raise HookError("span stack out of order")
        peak = None
        if frame[5] is not None:
            absolute = max(frame[4], tracemalloc.get_traced_memory()[1])
            peak = absolute - frame[5]
            for outer in self._stack:
                if outer[5] is not None:
                    outer[4] = max(outer[4], absolute)
        duration = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.records.append([frame[0], frame[1], frame[2], end,
                             parent[0] if parent else None, duration - frame[3], peak])

    def wrap(self, name: str, fn, on_call=None, on_error=None):
        """fn with on_call run before each call; without spans, nothing else."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            if not self.spans:
                return fn(*args, **kwargs)
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                self.exit(frame)
        return wrapper

    def open_names(self) -> list:
        return [frame[1] for frame in self._stack]

    def close_root(self, end: float) -> None:
        while self._stack:
            self.exit(self._stack[-1], end)

    # -- results -------------------------------------------------------

    def layer_metrics(self, solve_start: float) -> dict:
        calls, self_s, peaks = Counter(), defaultdict(float), defaultdict(float)
        build_s = 0.0
        for _, name, start, end, _, own, peak in self.records:
            if name == "profiles.build":
                build_s += end - start   # set-up phase: inclusive time
                continue
            if start < solve_start:
                continue
            calls[name] += 1
            self_s[name] += own
            if peak is not None:
                peaks[name] = max(peaks[name], peak / MIB)
        c = self.counts
        m = {}

        def layer(metric, span, with_peak=False):
            m[f"{metric}.calls"] = calls[span]
            m[f"{metric}.s"] = self_s[span]
            if with_peak:
                m[f"{metric}.peak_mb"] = peaks[span]

        layer("torus.derivs", "torus.derivs", with_peak=True)
        layer("torus.fft", "torus.fft")
        m["torus.fft.bytes"] = c["fft_bytes"]
        layer("forms.residual", "forms.residual")
        layer("forms.gprime", "forms.gprime")
        layer("forms.cone", "forms.cone")
        layer("forms.lincoef", "forms.lincoef", with_peak=True)
        layer("forms.apply", "forms.apply")
        m["solve.attempts"] = calls["solve.attempt"]
        m["solve.attempts_rejected"] = c["attempts_rejected"]
        layer("solve.newton_system", "solve.newton_system")
        m["solve.krylov.s"] = self_s["solve.krylov"]
        m["solve.gmres_fallbacks"] = c["gmres_fallbacks"]
        layer("solve.precond", "solve.precond")
        layer("solve.normalize", "solve.normalize")
        m["solve.trials"] = c["trials"]
        m["solve.trial_accept_ratio"] = c["newton_steps"] / c["trials"] if c["trials"] else 0.0
        m["solve.step.peak_mb"] = peaks["solve.step"]
        m["solve.glue.s"] = sum(self_s[s] for s in SOLVER_GLUE)
        layer("monitors.report", "monitors.report")
        m["profiles.build.s"] = build_s
        m["cli.write.s"] = self_s["cli.write"]
        m["cli.write.bytes"] = c["write_bytes"]
        m["cli.glue.s"] = self_s[ROOT]
        return m

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, own, peak in self.records:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": own,
                                     "peak_bytes": peak}) + "\n")


# ---------------------------------------------------------------------------
# installation


def _replace(orig, repl) -> int:
    """Point every sigma2lab module attribute bound to orig at repl."""
    hits = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "sigma2lab" or name.startswith("sigma2lab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, repl)
                hits += 1
    return hits


def _hook(tracer: Tracer, module, attr: str, span: str, **kw):
    orig = getattr(module, attr, None)
    if orig is None or not _replace(orig, tracer.wrap(span, orig, **kw)):
        raise HookError(f"cannot hook {module.__name__}.{attr}")


class Probe:
    solve_start = None
    solve_cpu0 = None


def install(cli, tracer: Tracer, stop_at_solve: bool) -> Probe:
    """Hook the set-up/solve boundary, the Newton and Krylov counters and,
    when the tracer keeps spans, every layer call.  Returns the probe that
    receives the time the continuation starts."""
    from sigma2lab import forms, monitors, solve, torus

    probe = Probe()
    counts = tracer.counts
    run_and_return = cli.run_and_return

    @functools.wraps(run_and_return)
    def timed_run(*args, **kwargs):
        probe.solve_start = time.perf_counter()
        probe.solve_cpu0 = time.process_time()
        if stop_at_solve:
            raise StopAtSolve()
        if tracer.spans:
            tracer.enter(ROOT, probe.solve_start)   # closed by close_root
        return tracer.wrap("solve.run", run_and_return)(*args, **kwargs)

    if not _replace(run_and_return, timed_run):
        raise HookError("cannot hook cli.run_and_return")

    def count_step(args, kwargs):
        counts["newton_steps"] += 1

    _hook(tracer, solve, "_newton_step", "solve.step", on_call=count_step)
    for name in KRYLOV:
        orig = getattr(solve, name, None)
        if orig is None or not _replace(orig, _krylov(tracer, name, orig)):
            raise HookError(f"cannot hook solve.{name}")

    if tracer.spans:
        _install_layers(tracer, cli, forms, monitors, solve, torus)
    return probe


def _krylov(tracer: Tracer, name: str, orig):
    counts = tracer.counts

    def counted(op):
        def matvec(x):
            counts["krylov_matvecs"] += 1
            return op.matvec(x)
        return LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)

    def timed(op):
        return LinearOperator(op.shape, dtype=op.dtype,
                              matvec=tracer.wrap("solve.precond", op.matvec))

    solver = tracer.wrap("solve.krylov", orig)

    @functools.wraps(orig)
    def krylov(A, b, *args, **kwargs):
        if name == "gmres":
            counts["gmres_fallbacks"] += 1
        if tracer.spans and kwargs.get("M") is not None:
            kwargs["M"] = timed(kwargs["M"])
        return solver(counted(A), b, *args, **kwargs)

    return krylov


def _install_layers(tracer, cli, forms, monitors, solve, torus) -> None:
    counts = tracer.counts

    for name in FFT:
        orig = getattr(scipy.fft, name)
        wrapped = _fft_wrapper(tracer, orig)
        setattr(scipy.fft, name, wrapped)
        _replace(orig, wrapped)

    _hook(tracer, torus, "spectral_derivatives", "torus.derivs")
    _hook(tracer, forms, "residual_sigma2", "forms.residual")
    _hook(tracer, forms, "gprime", "forms.gprime")
    _hook(tracer, forms, "gamma2_mask", "forms.cone")
    _hook(tracer, forms, "linearization_coefficients", "forms.lincoef")
    forms.LinearCoefficients.apply_to = tracer.wrap(
        "forms.apply", forms.LinearCoefficients.apply_to)

    def rejected():
        counts["attempts_rejected"] += 1

    def trial(args, kwargs):
        if tracer.open_names()[-1:] == ["solve.step"]:
            counts["trials"] += 1

    _hook(tracer, solve, "_solve_at_t", "solve.attempt", on_error=rejected)
    _hook(tracer, solve, "solve_newton_system", "solve.newton_system")
    _hook(tracer, solve, "normalize", "solve.normalize", on_call=trial)
    _hook(tracer, monitors, "estimate_report", "monitors.report")
    cli.RunConfig.build_problem = tracer.wrap("profiles.build", cli.RunConfig.build_problem)

    def field_bytes(args, kwargs):
        counts["write_bytes"] += 32 + args[1].values.nbytes

    def text_bytes(args, kwargs):
        counts["write_bytes"] += len(args[1].encode())

    _hook(tracer, torus, "save_field", "cli.write", on_call=field_bytes)
    pathlib.Path.write_text = tracer.wrap("cli.write", pathlib.Path.write_text,
                                          on_call=text_bytes)


def _fft_wrapper(tracer: Tracer, orig):
    counts = tracer.counts

    @functools.wraps(orig)
    def transform(x, *args, **kwargs):
        frame = tracer.enter("torus.fft")
        try:
            out = orig(x, *args, **kwargs)
        finally:
            tracer.exit(frame)
        counts["fft_bytes"] += x.nbytes + out.nbytes
        return out

    return transform
