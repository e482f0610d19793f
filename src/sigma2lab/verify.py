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


def suite_symfun_relations(seed: int, samples: int = 10_000,
                           dims=(2, 3, 4, 5), tol: float = 1e-11) -> SuiteResult:
    """Symmetric-function relations between the Hessian spectrum lambda,
    lambda' = a + 2 n alpha lambda, and lambda~_j = sum_{k != j} lambda'_k."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
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
            gaps = _rel_gap(np.asarray(lhs), np.asarray(rhs))
            i = int(np.argmax(gaps))
            if gaps[i] > worst:
                worst = float(gaps[i])
                worst_case = f"n={n}, lam={lam[i].tolist()}, a={a[i, 0]:.4g}, alpha={alpha[i, 0]:.4g}"
    passed = worst <= tol
    detail = f"worst relative gap {worst:.3e} (tol {tol:.1e})"
    if not passed:
        detail += f"; counterexample: {worst_case}"
    return SuiteResult("symfun-relations", passed, detail)


def suite_grw_gap(seed: int, samples: int = 10_000, dims=(2, 3, 4),
                  tol: float = 1e-12) -> SuiteResult:
    """Concavity inequality slack >= 0 over random (Gamma_2 spectrum,
    complex diagonal tensor) pairs."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    worst_case = None
    per_dim = max(1, -(-samples // len(dims)))
    for n in dims:
        lam = symfun.sample_gamma2(rng, n, per_dim)
        a = rng.standard_normal((per_dim, n)) + 1j * rng.standard_normal((per_dim, n))
        e = symfun.elementary(lam)
        s1 = e[:, 1:2]
        s2 = e[:, 2]
        total = a.sum(axis=1)
        lhs = -(np.abs(total) ** 2 - np.sum(np.abs(a) ** 2, axis=1))
        weighted = np.sum((s1 - lam) * a, axis=1)
        rhs = -np.abs(weighted) ** 2 / s2
        scale = 1.0 + np.maximum(np.max(np.abs(lam), axis=1),
                                 np.max(np.abs(a), axis=1)) ** 2
        margin = (lhs - rhs) / scale
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst = float(margin[i])
            worst_case = f"n={n}, lam={lam[i].tolist()}, a={a[i].tolist()}"
    passed = worst >= -tol
    detail = f"worst scaled slack {worst:.3e} (floor {-tol:.1e})"
    if not passed:
        detail += f"; counterexample: {worst_case}"
    return SuiteResult("grw-gap", passed, detail)


def suite_leading_product(seed: int, samples: int = 10_000, dims=(2, 3, 4, 5),
                          tol: float = 1e-12) -> SuiteResult:
    """lam'_1 sigma_1(lam'|1) >= (2/n) sigma_2(lam') on sorted Gamma_2 spectra."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    worst_case = None
    per_dim = max(1, -(-samples // len(dims)))
    for n in dims:
        lam = symfun.sample_gamma2(rng, n, per_dim, sort_descending=True)
        e = symfun.elementary(lam)
        gap = lam[:, 0] * (e[:, 1] - lam[:, 0]) - (2.0 / n) * e[:, 2]
        scale = 1.0 + np.max(np.abs(lam), axis=1) ** 2
        margin = gap / scale
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst = float(margin[i])
            worst_case = f"n={n}, lam={lam[i].tolist()}"
    passed = worst >= -tol
    detail = f"worst scaled slack {worst:.3e} (floor {-tol:.1e})"
    if not passed:
        detail += f"; counterexample: {worst_case}"
    return SuiteResult("leading-product", passed, detail)


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
    worst = 0.0
    worst_case = None
    for n, points in ((2, 16), (3, 8)):
        geom = torus.make_geometry(n, points)
        d = _random_problem(geom, rng)
        for i in range(fields):
            u = torus.random_band_limited(geom, rng, max_mode=2,
                                          amplitude=float(rng.uniform(0.2, 0.8)))
            u = torus.ScalarField(geom, u.values + float(rng.uniform(-0.5, 1.5)))
            dv = torus.spectral_derivatives(u)
            r1 = forms.residual_fy1(u, d, dv).values
            r2 = forms.residual_sigma2(u, d, dv).values
            pred = 2.0 * n * d.alpha * r1
            scale = max(1.0, float(np.max(np.abs(r2))), float(np.max(np.abs(pred))))
            gap = float(np.max(np.abs(r2 - pred))) / scale
            if gap > worst:
                worst = gap
                worst_case = f"n={n}, field #{i}"
    passed = worst <= tol
    detail = f"worst relative gap {worst:.3e} (tol {tol:.1e})"
    if not passed:
        detail += f"; counterexample: {worst_case}"
    return SuiteResult("residual-proportionality", passed, detail)


def suite_sigma_relations_fields(seed: int, fields: int = 20,
                                 tol: float = 1e-11) -> SuiteResult:
    """Nodewise matrix and sigma relations between g' and gtilde on random fields:
    gtilde = sigma_1(g') I - g', sigma_1(gtilde) = (n-1) sigma_1(g'), and the
    sigma_2 relations, plus gtilde > 0 wherever g' is in Gamma_2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
    cone_ok = True
    for n, points in ((2, 16), (3, 8)):
        geom = torus.make_geometry(n, points)
        d = _random_problem(geom, rng)
        for i in range(fields):
            u = torus.random_band_limited(geom, rng, max_mode=2,
                                          amplitude=float(rng.uniform(0.2, 0.8)))
            dv = torus.spectral_derivatives(u)
            gp = forms.gprime(u, d, dv)
            gt = forms.gtilde(u, d, dv)
            s1p = forms.sigma1_field(gp)
            s2p = forms.sigma2_field(gp)
            s1t = forms.sigma1_field(gt)
            s2t = forms.sigma2_field(gt)
            # matrix identity gtilde = sigma_1(g') I - g'
            alt = -gp.matrices.copy()
            for j in range(n):
                alt[j, j] = alt[j, j] + s1p
            mat_gap = float(np.max(np.abs(alt - gt.matrices)))
            mat_scale = 1.0 + float(np.max(np.abs(gt.matrices)))
            gaps = [
                mat_gap / mat_scale,
                float(np.max(_rel_gap(s1t, (n - 1) * s1p))),
                float(np.max(_rel_gap(s2t, 0.5 * (n - 1) * (n - 2) * s1p ** 2 + s2p))),
            ]
            # expansion of sigma_2(g') in the Hessian spectrum
            a = np.exp(u.values) + d.f_eff() * np.exp(-u.values)
            expanded = (
                4.0 * n * n * d.alpha ** 2 * forms.sigma2_hessian(dv)
                + 2.0 * n * (n - 1) * d.alpha * a * dv.lap
                + n * (n - 1) / 2.0 * a * a
            )
            gaps.append(float(np.max(_rel_gap(s2p, expanded))))
            g = max(gaps)
            if g > worst:
                worst = g
                worst_case = f"n={n}, field #{i}"
            in_cone = forms.gamma2_mask(gp)
            if np.any(in_cone):
                min_eig = float(np.min(forms.hermitian_eigenvalues(gt)[:, in_cone]))
                if min_eig <= -1e-12 * mat_scale:
                    cone_ok = False
                    worst_case = f"n={n}, field #{i}: gtilde eig {min_eig:.3e} inside Gamma_2"
    passed = worst <= tol and cone_ok
    detail = f"worst relative gap {worst:.3e} (tol {tol:.1e})"
    if not cone_ok:
        detail += "; gtilde positivity failed inside Gamma_2"
    if not passed and worst_case:
        detail += f"; counterexample: {worst_case}"
    return SuiteResult("sigma-relations", passed, detail)


def suite_linearize_fd(seed: int, pairs: int = 20, tol: float = 1e-6,
                       eps: float = 1e-5) -> SuiteResult:
    """Analytic linearization against central finite differences."""
    rng = np.random.default_rng(seed)
    geom = torus.make_geometry(2, 16)
    d = _random_problem(geom, rng)
    worst = 0.0
    worst_case = None
    for i in range(pairs):
        u = torus.random_band_limited(geom, rng, max_mode=2,
                                      amplitude=float(rng.uniform(0.2, 0.6)))
        v = torus.random_band_limited(geom, rng, max_mode=2, amplitude=1.0)
        lin = forms.linearize(u, d, v).values
        up = torus.ScalarField(geom, u.values + eps * v.values)
        um = torus.ScalarField(geom, u.values - eps * v.values)
        fd = (forms.residual_sigma2(up, d).values
              - forms.residual_sigma2(um, d).values) / (2.0 * eps)
        err = float(np.max(np.abs(fd - lin))) / max(1.0, float(np.max(np.abs(lin))))
        if err > worst:
            worst = err
            worst_case = f"pair #{i}"
    passed = worst <= tol
    detail = f"worst relative error {worst:.3e} (tol {tol:.1e})"
    if not passed:
        detail += f"; counterexample: {worst_case}"
    return SuiteResult("linearize-vs-fd", passed, detail)


def _axiswise_field(geom: torus.TorusGeometry, rng: np.random.Generator) -> torus.ScalarField:
    """Sum of per-complex-axis functions: the complex Hessian is exactly diagonal."""
    total = np.zeros(geom.shape)
    for j in range(geom.n):
        w = torus.random_band_limited(geom, rng, max_mode=2, amplitude=1.0).values
        keep = (2 * j, 2 * j + 1)
        other = tuple(ax for ax in range(2 * geom.n) if ax not in keep)
        total = total + w.mean(axis=other, keepdims=True)
    top = float(np.max(np.abs(total)))
    if top > 0:
        total *= 0.8 / top
    return torus.ScalarField(geom, total * np.ones(geom.shape))


def suite_wedge_identity(seed: int, fields: int = 20, tol: float = 1e-10) -> SuiteResult:
    """mixed_wedge_density against the diagonal-coordinates formula
    (n-2)! sum_i |u_i|^2 (Lap u - u_{i ibar}) on diagonal-Hessian fields."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
    for n, points in ((2, 16), (3, 8)):
        geom = torus.make_geometry(n, points)
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
            dens = torus.mixed_wedge_density(u, dv).values
            scale = 1.0 + float(np.max(np.abs(dens)))
            gap = max(float(np.max(np.abs(dens - direct))) / scale, off / scale)
            if gap > worst:
                worst = gap
                worst_case = f"n={n}, field #{i}"
    passed = worst <= tol
    detail = f"worst relative gap {worst:.3e} (tol {tol:.1e})"
    if not passed:
        detail += f"; counterexample: {worst_case}"
    return SuiteResult("wedge-identity", passed, detail)


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
