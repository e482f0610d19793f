"""Randomized identity suites.

Each suite draws reproducible random data, evaluates an exact identity or
inequality at the tolerances the package promises, and reports the worst
case together with a counterexample when it fails.  The CLI `verify`
subcommand runs all of them; the acceptance tests reuse them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import forms, symfun, torus
from .profiles import f_profile, mu_profile


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _rel_gap(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return np.abs(lhs - rhs) / scale


class _Worst:
    """The worst case a suite has seen: the largest gap against a tolerance,
    or with floor=True the smallest slack against -tol, and where it was.
    A NaN is worse than any number."""

    def __init__(self, tol: float, floor: bool = False):
        self.tol = tol
        self.floor = floor
        self.value = np.inf if floor else 0.0
        self.case = None

    def see(self, values, case) -> None:
        """Fold in one value or an array of them; case(i) names entry i."""
        if math.isnan(self.value):
            return
        values = np.ravel(values)
        i = int(np.argmin(values) if self.floor else np.argmax(values))
        v = float(values[i])
        if not (v >= self.value if self.floor else v <= self.value):
            self.value, self.case = v, case(i)

    def result(self, name: str, what: str, failure: str = "") -> SuiteResult:
        """The suite's verdict; a non-empty failure note fails it outright."""
        if self.floor:
            passed = self.value >= -self.tol
            detail = f"worst {what} {self.value:.3e} (floor {-self.tol:.1e})"
        else:
            passed = self.value <= self.tol
            detail = f"worst {what} {self.value:.3e} (tol {self.tol:.1e})"
        passed = passed and not failure
        detail += failure
        if not passed and self.case:
            detail += f"; counterexample: {self.case}"
        return SuiteResult(name, passed, detail)


def suite_symfun_relations(seed: int, samples: int = 10_000,
                           dims=(2, 3, 4, 5), tol: float = 1e-11) -> SuiteResult:
    """Symmetric-function relations between the Hessian spectrum lambda,
    lambda' = a + 2 n alpha lambda, and lambda~_j = sum_{k != j} lambda'_k."""
    rng = np.random.default_rng(seed)
    worst = _Worst(tol)
    per_dim = max(1, -(-samples // len(dims)))
    for n in dims:
        lam = rng.uniform(-2.0, 2.0, size=(per_dim, n))
        a = rng.uniform(0.2, 3.0, size=(per_dim, 1))
        alpha = rng.uniform(0.1, 2.0, size=(per_dim, 1))
        coef = 2.0 * n * alpha
        lam_p = a + coef * lam
        s1p = lam_p.sum(axis=1, keepdims=True)
        lam_t = s1p - lam_p

        e_lam = symfun.elementary(lam)
        e_p = symfun.elementary(lam_p)
        e_t = symfun.elementary(lam_t)

        checks = [
            (e_t[:, 1], (n - 1) * e_p[:, 1]),
            (e_t[:, 2], 0.5 * (n - 1) * (n - 2) * e_p[:, 1] ** 2 + e_p[:, 2]),
            (e_p[:, 1], (n * a + coef * e_lam[:, 1:2]).ravel()),
            (e_p[:, 2], 4.0 * n * n * alpha.ravel() ** 2 * e_lam[:, 2]
                        + 2.0 * n * (n - 1) * alpha.ravel() * a.ravel() * e_lam[:, 1]
                        + n * (n - 1) / 2.0 * a.ravel() ** 2),
        ]
        for lhs, rhs in checks:
            worst.see(_rel_gap(np.asarray(lhs), np.asarray(rhs)), lambda i: (
                f"n={n}, lam={lam[i].tolist()}, a={a[i, 0]:.4g}, alpha={alpha[i, 0]:.4g}"))
    return worst.result("symfun-relations", "relative gap")


def suite_grw_gap(seed: int, samples: int = 10_000, dims=(2, 3, 4),
                  tol: float = 1e-12) -> SuiteResult:
    """symfun.grw_gap >= 0 over random (Gamma_2 spectrum, complex diagonal
    tensor) pairs, scaled by 1 + max(|lam|, |a|)^2."""
    rng = np.random.default_rng(seed)
    worst = _Worst(tol, floor=True)
    per_dim = max(1, -(-samples // len(dims)))
    for n in dims:
        lam = symfun.sample_gamma2(rng, n, per_dim)
        a = rng.standard_normal((per_dim, n)) + 1j * rng.standard_normal((per_dim, n))
        scale = 1.0 + np.maximum(np.max(np.abs(lam), axis=1),
                                 np.max(np.abs(a), axis=1)) ** 2
        worst.see(symfun.grw_gap(lam, a) / scale,
                  lambda i: f"n={n}, lam={lam[i].tolist()}, a={a[i].tolist()}")
    return worst.result("grw-gap", "scaled slack")


def suite_leading_product(seed: int, samples: int = 10_000, dims=(2, 3, 4, 5),
                          tol: float = 1e-12) -> SuiteResult:
    """symfun.leading_product_gap >= 0, i.e. lam'_1 sigma_1(lam'|1) >=
    (2/n) sigma_2(lam'), on sorted Gamma_2 spectra, scaled by 1 + max |lam|^2."""
    rng = np.random.default_rng(seed)
    worst = _Worst(tol, floor=True)
    per_dim = max(1, -(-samples // len(dims)))
    for n in dims:
        lam = symfun.sample_gamma2(rng, n, per_dim, sort_descending=True)
        scale = 1.0 + np.max(np.abs(lam), axis=1) ** 2
        worst.see(symfun.leading_product_gap(lam) / scale,
                  lambda i: f"n={n}, lam={lam[i].tolist()}")
    return worst.result("leading-product", "scaled slack")


def _random_problem(geom: torus.TorusGeometry, rng: np.random.Generator) -> forms.ProblemData:
    f = f_profile(geom, 0.4)
    mu = mu_profile(geom, 0.6)
    alpha = float(rng.uniform(0.2, 1.5))
    t = float(rng.uniform(0.3, 1.0))
    return forms.ProblemData(geom, alpha, f, mu, A=0.2, t=t)


def suite_residual_proportionality(seed: int, fields: int = 100,
                                   tol: float = 1e-10) -> SuiteResult:
    """residual_sigma2 = 2 n alpha residual_fy1 on random band-limited fields,
    on both supported grids."""
    rng = np.random.default_rng(seed)
    worst = _Worst(tol)
    for n, points in ((2, 16), (3, 8)):
        geom = torus.TorusGeometry(n, points)
        d = _random_problem(geom, rng)
        for i in range(fields):
            u = torus.random_band_limited(geom, rng, max_mode=2,
                                          amplitude=float(rng.uniform(0.2, 0.8)))
            u = u + float(rng.uniform(-0.5, 1.5))
            it = forms.evaluate(u, d, 0.0)
            r1 = forms.residual_fy1(it)
            r2 = it.residual
            pred = 2.0 * n * d.alpha * r1
            scale = max(1.0, float(np.max(np.abs(r2))), float(np.max(np.abs(pred))))
            gap = float(np.max(np.abs(r2 - pred))) / scale
            worst.see(gap, lambda _: f"n={n}, field #{i}")
    return worst.result("residual-proportionality", "relative gap")


def suite_sigma_relations_fields(seed: int, fields: int = 20,
                                 tol: float = 1e-11) -> SuiteResult:
    """Nodewise matrix and sigma relations between g' and gtilde on random fields:
    gtilde = sigma_1(g') I - g', sigma_1(gtilde) = (n-1) sigma_1(g'), and the
    sigma_2 relations, plus gtilde > 0 wherever g' is in Gamma_2."""
    rng = np.random.default_rng(seed)
    worst = _Worst(tol)
    cone_ok = True
    for n, points in ((2, 16), (3, 8)):
        geom = torus.TorusGeometry(n, points)
        d = _random_problem(geom, rng)
        for i in range(fields):
            u = torus.random_band_limited(geom, rng, max_mode=2,
                                          amplitude=float(rng.uniform(0.2, 0.8)))
            it = forms.evaluate(u, d, 0.0)
            dv = it.derivs
            gp = forms.gprime(it)
            gt = forms.gtilde(it)
            s1p = forms.sigma1_field(gp, n)
            s2p = forms.sigma2_field(gp, n)
            s1t = forms.sigma1_field(gt, n)
            s2t = forms.sigma2_field(gt, n)
            # matrix identity gtilde = sigma_1(g') I - g'
            alt = -torus.unpack_hermitian(gp, n)
            for j in range(n):
                alt[j, j] = alt[j, j] + s1p
            gt_mat = torus.unpack_hermitian(gt, n)
            mat_gap = float(np.max(np.abs(alt - gt_mat)))
            mat_scale = 1.0 + float(np.max(np.abs(gt_mat)))
            gaps = [
                mat_gap / mat_scale,
                float(np.max(_rel_gap(s1t, (n - 1) * s1p))),
                float(np.max(_rel_gap(s2t, 0.5 * (n - 1) * (n - 2) * s1p ** 2 + s2p))),
            ]
            # expansion of sigma_2(g') in the Hessian spectrum
            a = it.weights.a
            expanded = (
                4.0 * n * n * d.alpha ** 2 * forms.sigma2_field(dv.hess_rows, n)
                + 2.0 * n * (n - 1) * d.alpha * a * dv.lap
                + n * (n - 1) / 2.0 * a * a
            )
            gaps.append(float(np.max(_rel_gap(s2p, expanded))))
            worst.see(gaps, lambda _: f"n={n}, field #{i}")
            in_cone = forms.gamma2_mask(s1p, s2p, n)
            if np.any(in_cone):
                min_eig = float(np.min(forms.hermitian_eigenvalues(gt, n)[:, in_cone]))
                if min_eig <= -1e-12 * mat_scale:
                    cone_ok = False
                    worst.case = f"n={n}, field #{i}: gtilde eig {min_eig:.3e} inside Gamma_2"
    return worst.result("sigma-relations", "relative gap",
                        "" if cone_ok else "; gtilde positivity failed inside Gamma_2")


def suite_linearize_fd(seed: int, pairs: int = 20, tol: float = 1e-6,
                       eps: float = 1e-5) -> SuiteResult:
    """Analytic linearization against central finite differences."""
    rng = np.random.default_rng(seed)
    geom = torus.TorusGeometry(2, 16)
    d = _random_problem(geom, rng)
    worst = _Worst(tol)
    for i in range(pairs):
        u = torus.random_band_limited(geom, rng, max_mode=2,
                                      amplitude=float(rng.uniform(0.2, 0.6)))
        v = torus.random_band_limited(geom, rng, max_mode=2, amplitude=1.0)
        lin = forms.linearization_coefficients(forms.evaluate(u, d, 0.0)).apply_to(v)
        fd = (forms.evaluate(u + eps * v, d, 0.0).residual
              - forms.evaluate(u - eps * v, d, 0.0).residual) / (2.0 * eps)
        err = float(np.max(np.abs(fd - lin))) / max(1.0, float(np.max(np.abs(lin))))
        worst.see(err, lambda _: f"pair #{i}")
    return worst.result("linearize-vs-fd", "relative error")


def _axiswise_field(geom: torus.TorusGeometry, rng: np.random.Generator) -> np.ndarray:
    """Sum of per-complex-axis functions: the complex Hessian is exactly diagonal."""
    total = np.zeros(geom.shape)
    for j in range(geom.n):
        w = torus.random_band_limited(geom, rng, max_mode=2, amplitude=1.0)
        keep = (2 * j, 2 * j + 1)
        other = tuple(ax for ax in range(2 * geom.n) if ax not in keep)
        total = total + w.mean(axis=other, keepdims=True)
    top = float(np.max(np.abs(total)))
    if top > 0:
        total *= 0.8 / top
    return total


def suite_wedge_identity(seed: int, fields: int = 20, tol: float = 1e-10) -> SuiteResult:
    """mixed_wedge_density against the diagonal-coordinates formula
    (n-2)! sum_i |u_i|^2 (Lap u - u_{i ibar}) on diagonal-Hessian fields."""
    rng = np.random.default_rng(seed)
    worst = _Worst(tol)
    for n, points in ((2, 16), (3, 8)):
        geom = torus.TorusGeometry(n, points)
        for i in range(fields):
            u = _axiswise_field(geom, rng)
            dv = torus.spectral_derivatives(u)
            hess = dv.hess
            off = 0.0
            for j in range(n):
                for kk in range(n):
                    if j != kk:
                        off = max(off, float(np.max(np.abs(hess[j, kk]))))
            direct = np.zeros(geom.shape)
            for j, uj in enumerate(dv.grad):
                direct += np.abs(uj) ** 2 * (dv.lap - hess[j, j].real)
            direct *= math.factorial(n - 2)
            dens = torus.mixed_wedge_density(dv)
            scale = 1.0 + float(np.max(np.abs(dens)))
            gap = max(float(np.max(np.abs(dens - direct))) / scale, off / scale)
            worst.see(gap, lambda _: f"n={n}, field #{i}")
    return worst.result("wedge-identity", "relative gap")


# every suite, in run order, with the keyword arguments `fast` runs it with
ALL_SUITES = {
    suite_symfun_relations: {"samples": 1000},
    suite_grw_gap: {"samples": 1000},
    suite_leading_product: {"samples": 1000},
    suite_sigma_relations_fields: {"fields": 3},
    suite_residual_proportionality: {"fields": 5},
    suite_linearize_fd: {"pairs": 5},
    suite_wedge_identity: {"fields": 3},
}


def run_all(seed: int, fast: bool = False):
    """Run every suite; `fast` shrinks the sample counts for smoke testing."""
    return [fn(seed, **(fast_kwargs if fast else {}))
            for fn, fast_kwargs in ALL_SUITES.items()]
