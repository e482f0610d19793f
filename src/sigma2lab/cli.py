"""Batch front end.

Subcommands
-----------
solve        run the continuation solver, write solution dump + monitors CSV
verify       run the randomized identity suites
degeneracy   emit the n=3 obstruction-path sweep or the n=2 sign frontier
sweep-a      solve the same data over a descending list of A values
moser-check  evaluate the integral-identity gap and the reverse-Sobolev
             constant on a stored solution

Configuration is a flat key-value text file (`key = value`, '#' comments);
all keys have defaults, and --out (and verify's --seed) override the file.
Each command takes only the flags it reads; the seed is read by `verify`
only, since the `solve` profiles are deterministic.
Exit codes: 0 success, 2 config/usage/IO error (including a moser-check
weight k whose exponentials leave the float64 range on the stored
solution), 3 convergence or continuation failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import monitors
from .degeneracy import n2_sweep, n3_sweep
from .errors import (ConfigurationError, ContinuationStallError, RangeUnderflowError,
                     Sigma2LabError)
from .forms import ProblemData, check_A, evaluate
from .monitors import moser_identity_gap, reverse_sobolev_constant
from .profiles import manufactured_problem, perturbative_problem, trivial_problem
from .solve import SolverConfig, run_and_return
from .torus import ScalarField, TorusGeometry, load_field, save_field
from .verify import run_all

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


@dataclass
class RunConfig:
    """The settings of a config file: one key per field below and one per
    field of SolverConfig.  `solver` keeps the solver keys the file sets;
    SolverConfig supplies the others and checks them in solver_config()."""

    n: int = 2
    points_per_axis: int = 16
    alpha: float = 1.0
    A: float = 0.1
    profile: str = "perturbative"   # trivial | perturbative | manufactured | file
    f_scale: float = 0.05
    mu_scale: float = 0.05
    amplitude: float = 0.25         # manufactured-profile perturbation size
    f_dump: str = ""
    mu_dump: str = ""
    seed: int = 0
    out: str = "out"
    solver: dict = field(default_factory=dict, init=False)

    @classmethod
    def from_file(cls, path: str | None) -> "RunConfig":
        cfg = cls()
        if path is None:
            return cfg
        text = Path(path).read_text()
        own = {f.name: type(f.default) for f in dataclass_fields(cls) if f.init}
        solver = {f.name: type(f.default) for f in dataclass_fields(SolverConfig)}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            kind = own.get(key) or solver.get(key)
            if kind is None:
                raise ConfigurationError(f"{path}:{lineno}: unknown key '{key}'")
            try:
                parsed = kind(value)
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{lineno}: bad value for '{key}': {value}") from exc
            if key in solver:
                cfg.solver[key] = parsed
            else:
                setattr(cfg, key, parsed)
        return cfg

    def solver_config(self) -> SolverConfig:
        try:
            return SolverConfig(**self.solver)
        except ValueError as exc:
            raise ConfigurationError(f"bad solver settings: {exc}") from exc

    def build_problem(self):
        """Returns (ProblemData, exact solution or None)."""
        geom = TorusGeometry(self.n, self.points_per_axis)
        if self.profile == "trivial":
            return trivial_problem(geom, self.alpha, self.A), None
        if self.profile == "perturbative":
            return perturbative_problem(geom, self.alpha, self.A,
                                        self.f_scale, self.mu_scale), None
        if self.profile == "manufactured":
            return manufactured_problem(geom, self.alpha, self.A,
                                        self.amplitude, self.f_scale)
        if self.profile == "file":
            if not self.f_dump or not self.mu_dump:
                raise ConfigurationError("profile=file needs f_dump and mu_dump paths")
            f = load_field(self.f_dump, geom).values
            mu = load_field(self.mu_dump, geom).values
            return ProblemData(geom, self.alpha, f, mu, self.A, t=1.0), None
        raise ConfigurationError(f"unknown profile '{self.profile}'")


# ---------------------------------------------------------------------------
# output helpers


def _write_csv(path: Path, command: str, columns, rows, no_header: bool) -> None:
    lines = []
    if not no_header:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        lines.append(f"# sigma2lab {command} written {stamp}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                              for x in row))
    path.write_text("\n".join(lines) + "\n")


def _gnuplot_script(path: Path, csv_name: str, columns, x: str, y: str,
                    ylabel: str | None = None, curves=()) -> None:
    """Plot column y of csv_name against column x, both looked up by name
    among the columns written there; the axes are labelled with the column
    names unless ylabel is given.  curves, if given, are (title, first,
    last) ranges of data rows, each drawn as its own titled curve; otherwise
    every row is one curve.  With the header row read as column heads,
    gnuplot's `every` counts data rows from 0."""
    xcol, ycol = columns.index(x) + 1, columns.index(y) + 1
    plot = f"'{csv_name}' using {xcol}:{ycol}"
    body = ", \\\n     ".join(f"{plot} every ::{first}::{last} with linespoints title '{title}'"
                              for title, first, last in curves) or f"{plot} with linespoints"
    path.write_text(
        "set datafile separator ','\n"
        f"set xlabel '{x}'\n"
        f"set ylabel '{ylabel or y}'\n"
        f"set key {'autotitle columnhead' if curves else 'off'}\n"
        f"plot {body}\n"
    )


def _number_list(option: str, text: str) -> list:
    """The comma-separated numbers of a list option; empty items are skipped."""
    try:
        return [float(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"{option} must be comma-separated numbers, got {text}") from exc


def _prepare_out(cfg_out: str, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg_out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    cfg = RunConfig.from_file(args.config)
    solver_cfg = cfg.solver_config()
    out = _prepare_out(cfg.out, args.out)
    data, u_star = cfg.build_problem()
    try:
        report, u = run_and_return(data, solver_cfg)
        stalled = False
    except ContinuationStallError as exc:
        report, u = exc.report, exc.last_field
        stalled = True
        print(f"continuation failed: {exc}", file=sys.stderr)

    rows = [rep.row(t, rn) for t, rn, rep in
            zip(report.t_values, report.residual_norms, report.monitor_snapshots)]
    _write_csv(out / "monitors.csv", "solve", monitors.CSV_COLUMNS, rows,
               args.no_header)
    _gnuplot_script(out / "monitors.gp", "monitors.csv", monitors.CSV_COLUMNS,
                    "t", "kappa")
    save_field(out / "solution.bin", ScalarField(data.geometry, u))

    last = report.monitor_snapshots[-1]  # t = 0 is always accepted
    summary = [
        f"profile   : {cfg.profile}",
        f"grid      : n={cfg.n}, {cfg.points_per_axis} points per axis",
        f"alpha, A  : {cfg.alpha}, {data.A}",
        f"accepted t: {len(report.t_values)} steps, last t = {report.t_values[-1]}",
        f"converged : {report.converged}",
        f"kappa     : {last.kappa:.6g} (kappa_c = {last.kappa_c:g})",
        f"residual  : {report.residual_norms[-1]:.3e}",
    ]
    if u_star is not None:
        err = float(np.max(np.abs(u - u_star)))
        summary.append(f"L_inf error vs manufactured solution: {err:.3e}")
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    return EXIT_SOLVER if stalled else EXIT_OK


def cmd_verify(args) -> int:
    cfg = RunConfig.from_file(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    results = run_all(seed, fast=args.fast)
    all_ok = True
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        all_ok &= res.passed
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_degeneracy(args) -> int:
    if args.n not in (2, 3):
        raise ConfigurationError(f"--n must be 2 or 3, got {args.n}")
    if args.samples < 2:
        raise ConfigurationError(f"--samples must be at least 2, got {args.samples}")
    out = _prepare_out(RunConfig.out, args.out)
    if args.n == 3:
        rows = n3_sweep(args.samples)
        closed = (rows[:, 0] ** 2 - 1.0) ** 2 / 9.0
        worst = float(np.max(np.abs(rows[:, 2] - closed)))
        columns = ("s", "kappa_p", "rhs")
        _write_csv(out / "degeneracy_n3.csv", "degeneracy", columns,
                   [tuple(r) for r in rows], args.no_header)
        _gnuplot_script(out / "degeneracy_n3.gp", "degeneracy_n3.csv", columns,
                        "s", "rhs", "minimum-point rhs")
        print(f"n=3 path: {args.samples} samples, max |rhs - (s^2-1)^2/9| = {worst:.3e}")
        if worst > 1e-12:
            print("closed-form check FAILED", file=sys.stderr)
            return EXIT_VERIFY
        return EXIT_OK
    kappas = np.linspace(0.5, 1.5, args.samples)
    thetas = (0.002, 0.005, 0.01, 0.02, 0.05)
    rows = n2_sweep(kappas, thetas)
    columns = ("theta", "kappa_p", "lhs", "rhs", "sign")
    _write_csv(out / "degeneracy_n2.csv", "degeneracy", columns,
               [tuple(r) for r in rows], args.no_header)
    m = len(kappas)   # n2_sweep writes one block of m rows per theta
    _gnuplot_script(out / "degeneracy_n2.gp", "degeneracy_n2.csv", columns,
                    "kappa_p", "sign", "sign(rhs - lhs)",
                    [(f"theta = {th:g}", i * m, i * m + m - 1) for i, th in enumerate(thetas)])
    # locate the sign frontier for the smallest theta
    sel = rows[rows[:, 0] == thetas[0]]
    flip = sel[np.searchsorted(sel[:, 4] > 0, True)][1] if np.any(sel[:, 4] > 0) else float("nan")
    print(f"n=2 sweep: frontier near kappa_p = {flip:.4g} at theta = {thetas[0]}")
    return EXIT_OK


def cmd_sweep_a(args) -> int:
    cfg = RunConfig.from_file(args.config)
    a_list = _number_list("--a-list", args.a_list)
    if not a_list:
        raise ConfigurationError("--a-list is empty")
    if any(a_list[i] <= a_list[i + 1] for i in range(len(a_list) - 1)):
        raise ConfigurationError(f"--a-list must be descending, got {args.a_list}")
    for a in a_list:  # every A is checked before the first solve
        try:
            check_A(a, cfg.n)
        except ConfigurationError as exc:
            raise ConfigurationError(f"--a-list: {exc}") from None
    out = _prepare_out(cfg.out, args.out)
    rows = []
    failures = 0
    for a in a_list:
        cfg.A = a
        data, _ = cfg.build_problem()
        try:
            report, _ = run_and_return(data, cfg.solver_config())
            last = report.monitor_snapshots[-1]
            rows.append((a, 1.0) + last.row(report.t_values[-1],
                                            report.residual_norms[-1]))
        except Sigma2LabError as exc:
            print(f"A={a}: {exc}", file=sys.stderr)
            failures += 1
            rows.append((a, 0.0) + (float("nan"),) * len(monitors.CSV_COLUMNS))
    columns = ("A", "converged") + monitors.CSV_COLUMNS
    _write_csv(out / "sweep_a.csv", "sweep-a", columns, rows, args.no_header)
    _gnuplot_script(out / "sweep_a.gp", "sweep_a.csv", columns, "A", "c1_max")
    print(f"A sweep: {len(a_list) - failures}/{len(a_list)} solves converged")
    return EXIT_SOLVER if failures == len(a_list) else EXIT_OK


def cmd_moser_check(args) -> int:
    cfg = RunConfig.from_file(args.config)
    k_list = _number_list("--k-list", args.k_list)
    if not k_list:
        raise ConfigurationError("--k-list is empty")
    for k in k_list:
        if not (k > 0.0 and np.isfinite(k)):
            raise ConfigurationError(f"--k-list values must be positive and finite, got {k:g}")
    data, _ = cfg.build_problem()
    it = evaluate(load_field(args.solution, data.geometry).values, data, 0.0)
    out = _prepare_out(cfg.out, args.out)
    rows = []
    for k in k_list:
        gap = moser_identity_gap(it, k)
        const = reverse_sobolev_constant(it, max(k, 1.0))
        rows.append((k, gap, const))
        print(f"k={k:g}: identity gap {gap:.3e}, reverse-Sobolev constant {const:.6g}")
    _write_csv(out / "moser.csv", "moser-check",
               ("k", "identity_gap", "reverse_sobolev_constant"), rows,
               args.no_header)
    return EXIT_OK


# ---------------------------------------------------------------------------


# the flags that more than one command reads; each command adds only its own
_SHARED_FLAGS = {
    "--config": dict(default=None, help="flat key=value config file"),
    "--out": dict(default=None, help="output directory"),
    "--no-header": dict(action="store_true", help="omit the timestamped CSV comment line"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigma2lab",
        description="Numerical laboratory for a sigma_2-type complex Hessian "
                    "equation on flat Kahler tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *shared):
        p = sub.add_parser(name, help=summary)
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("solve", cmd_solve, "run the continuation solver",
            "--config", "--out", "--no-header")

    p = command("verify", cmd_verify, "run the identity suites", "--config")
    p.add_argument("--seed", type=int, default=None, help="overrides the config's seed")
    p.add_argument("--fast", action="store_true", help="smaller sample counts")

    p = command("degeneracy", cmd_degeneracy, "minimum-point inequality sweeps",
                "--out", "--no-header")
    p.add_argument("--n", type=int, required=True, help="complex dimension (2 or 3)")
    p.add_argument("--samples", type=int, default=101)

    p = command("sweep-a", cmd_sweep_a, "solve over a descending list of A values",
                "--config", "--out", "--no-header")
    p.add_argument("--a-list", required=True, help="comma-separated values in (0,1)")

    p = command("moser-check", cmd_moser_check,
                "integral-identity checks on a stored solution",
                "--config", "--out", "--no-header")
    p.add_argument("--solution", required=True, help="field dump path")
    p.add_argument("--k-list", default="2,4,8,16")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, RangeUnderflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContinuationStallError as exc:
        print(f"continuation failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Sigma2LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
