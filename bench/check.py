"""Independent output checker for one `sigma2lab solve` run.

It reads solution.bin, monitors.csv and summary.txt and recomputes the
quantities that define a correct solve with numpy alone (numpy.fft for
derivatives, numpy.linalg.eigvalsh for the cone), never through the
package's own derivative bundle, residual or monitors.  The one exception
is the manufactured workload's Moser identity gaps, which are the package's
own monitor by definition; they are read from `sigma2lab moser-check`.

Residual tolerance.  The solver stops when the Hessian-form residual
residual_sigma2 = 2 n alpha * R_div has max-norm below newton_tol, with the
Laplacian of e^u - f e^{-u} expanded by the chain rule.  Here R_div is
recomputed with that Laplacian taken spectrally on the composite, which
differs from the chain rule by aliasing of the unresolved tail of e^{+-u}:
about 1e-8 on the 8^6 grid, below 1e-10 on 16^4 and 32^4.  ALIAS_ALLOWANCE
sits well above the largest |R_div| measured on correct solves (README.md
lists them) and far below what a single node moved by 1e-6 produces, which
the self-test (`run.py --selftest`) shows is rejected on every grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl

# grid (n, points) -> absolute allowance for the composite-vs-chain-rule gap
ALIAS_ALLOWANCE = {(2, 16): 1e-9, (2, 32): 1e-9, (3, 8): 2e-7}
NORMALIZATION_RTOL = 1e-12
MANUFACTURED_LINF = 1e-8
MOSER_K = (2, 4, 8)
MOSER_TOL = 1e-8
KAPPA_SHARE = 0.9


@dataclass
class Verdict:
    checks: dict       # name -> (passed, detail)

    @property
    def ok(self) -> bool:
        return all(p for p, _ in self.checks.values())

    def failed(self) -> list:
        return [name for name, (p, _) in self.checks.items() if not p]

    def lines(self) -> list:
        return [f"{'PASS' if p else 'FAIL'} {name}: {d}" for name, (p, d) in self.checks.items()]


def read_monitors(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in r.items()} for r in csv.DictReader(rows)]


def read_summary(path: Path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


def cone_ok(w: wl.Workload, u: np.ndarray, f: np.ndarray, margin: float) -> tuple:
    """Gamma_2 membership of the eigenvalues of g' = a I + 2 n alpha Hess u,
    shifted down by margin, at every node; returns (all in, min sigma_2)."""
    hess = wl.hessian_upper(w, u)
    a = np.exp(u) + f * np.exp(-u)
    n = w.n
    mats = np.zeros(u.shape + (n, n), dtype=complex)
    for (j, k), h in hess.items():
        mats[..., k, j] = 2.0 * n * wl.ALPHA * np.conj(h)   # lower triangle
        if j == k:
            mats[..., j, j] += a
    mats = mats.reshape(-1, n, n)
    worst_s1 = worst_s2 = math.inf
    for start in range(0, mats.shape[0], 1 << 16):
        lam = np.linalg.eigvalsh(mats[start:start + (1 << 16)], UPLO="L") - margin
        s1 = lam.sum(axis=1)
        s2 = 0.5 * (s1 * s1 - (lam * lam).sum(axis=1))
        worst_s1 = min(worst_s1, float(s1.min()))
        worst_s2 = min(worst_s2, float(s2.min()))
    return worst_s1 > 0.0 and worst_s2 > 0.0, worst_s2


def check_run(inputs: wl.Inputs, out: Path, moser_gaps: dict | None = None) -> Verdict:
    """Check the artifacts in `out` against the benchmark's own copy of the
    inputs.  moser_gaps (k -> gap) is required for the manufactured workload."""
    w = inputs.workload
    checks = {}
    n_u, u = wl.read_dump(out / "solution.bin")
    _, f = wl.read_dump(inputs.f_dump)
    _, mu = wl.read_dump(inputs.mu_dump)
    if n_u != w.n or u.shape != w.shape:
        checks["grid"] = (False, f"solution grid n={n_u} {u.shape} != {w.shape}")
        return Verdict(checks)

    rows = read_monitors(out / "monitors.csv")
    last = rows[-1] if rows else {}
    summary = read_summary(out / "summary.txt")
    checks["monitors"] = (
        bool(rows) and last["t"] == 1.0 and last["residual_norm"] < wl.NEWTON_TOL
        and summary.get("converged") == "True",
        f"{len(rows)} accepted t, last t = {last.get('t')}, residual "
        f"{last.get('residual_norm', math.nan):.3e} (tol {wl.NEWTON_TOL:g}), "
        f"converged = {summary.get('converged')}")

    r = wl.divergence_residual(w, u, f, mu)
    r_max = float(np.max(np.abs(r)))
    tol = wl.NEWTON_TOL / (2.0 * w.n * wl.ALPHA) + ALIAS_ALLOWANCE[w.n, w.points]
    checks["residual"] = (r_max <= tol, f"max |R_div| = {r_max:.3e} (tol {tol:.3e})")

    lev = wl.level(u, w.n)
    rel = abs(lev / inputs.A - 1.0)
    checks["normalization"] = (rel <= NORMALIZATION_RTOL,
                               f"(mean e^-gamma u)^(1/gamma) = {lev:.17g}, A = "
                               f"{inputs.A:.17g}, rel gap {rel:.2e}")

    inside, s2_min = cone_ok(w, u, f, wl.CONE_MARGIN)
    checks["cone"] = (inside, f"min sigma_2(lambda - {wl.CONE_MARGIN:g}) = {s2_min:.4g}")

    if w.kind == "manufactured":
        err = float(np.max(np.abs(u - inputs.u_star)))
        checks["manufactured_error"] = (err < MANUFACTURED_LINF,
                                        f"L_inf error {err:.3e} (tol {MANUFACTURED_LINF:g})")
        gaps = moser_gaps or {}
        checks["moser"] = (
            all(k in gaps and gaps[k] < MOSER_TOL for k in MOSER_K),
            ", ".join(f"k={k}: {gaps.get(k, math.nan):.2e}" for k in MOSER_K)
            + f" (tol {MOSER_TOL:g})")
    else:
        kappa_c = w.n * (w.n - 1) / 2.0
        kappa = last.get("kappa", math.nan)
        checks["kappa"] = (kappa >= KAPPA_SHARE * kappa_c and last.get("kappa_c") == kappa_c,
                           f"kappa = {kappa:.6f} >= {KAPPA_SHARE} * {kappa_c:g}")
    return Verdict(checks)
