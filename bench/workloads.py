"""Pinned solver workloads: their configs, seeded inputs and closed forms.

Everything here is plain numpy and touches no part of sigma2lab, so the
checker can rebuild the data the program was given without trusting the
program's own profiles.

Seed 0 runs the closed-form inputs (the built-in profiles of the solver,
reproduced below from their documented formulas).  Any other seed gives the
perturbative workloads a random low-mode f >= 0 and a random mean-free mu of
the same max-norms (see _two_term); they reach the program only as field
dumps through `profile = file`.  The manufactured workload has no free data: its exact
solution is a fixed closed form, so every seed runs the same inputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DUMP_MAGIC = b"S2LFIELD"

ALPHA = 1.0
BASE_A = 0.1
F_SCALE = 0.05
MU_SCALE = 0.05
AMPLITUDE = 0.25
NEWTON_TOL = 1e-9
CONE_MARGIN = 1e-6
PERIOD = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "manufactured" or "perturbative"
    n: int
    points: int
    max_newton_iters: int
    t_step_init: float

    @property
    def shape(self) -> tuple:
        return (self.points,) * (2 * self.n)


WORKLOADS = {
    w.name: w for w in (
        # Krylov-bound: 15 Newton steps, ~140 operator applies; BiCGStab is
        # about 2/3 of the solve.  Criterion 6 runs this on 32^4, but one
        # such solve takes ~90 s on 2 cores, too long to repeat 22 times
        # per benchmark pass; 16^4 keeps the same counts and split.
        Workload("manufactured-n2-16", "manufactured", 2, 16, 20, 0.5),
        # Evaluation-bound: 6 Newton steps, 9 operator applies; residual
        # assembly, cone checks, normalization and monitors dominate.
        Workload("perturbative-n2-32", "perturbative", 2, 32, 25, 0.25),
        # Memory-bound: the n=3 derivative bundle and Newton step peak at
        # ~600 MB on 8^6 nodes; sits at the cone edge (kappa ~ 2.98 vs 3).
        Workload("perturbative-n3-8", "perturbative", 3, 8, 25, 0.25),
    )
}


# ---------------------------------------------------------------------------
# field dumps (the format the solver reads and writes)


def write_dump(path: Path, n: int, values: np.ndarray) -> None:
    header = struct.pack("<3d", float(n), float(values.shape[0]), PERIOD)
    with open(path, "wb") as fh:
        fh.write(DUMP_MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_dump(path: Path) -> tuple[int, np.ndarray]:
    """Returns (n, values shaped (p,) * 2n); raises ValueError on a bad file."""
    raw = Path(path).read_bytes()
    if raw[:8] != DUMP_MAGIC or len(raw) < 32:
        raise ValueError(f"{path}: not a field dump")
    n_f, p_f, period = struct.unpack("<3d", raw[8:32])
    n, p = int(n_f), int(p_f)
    values = np.frombuffer(raw[32:], dtype="<f8")
    if period != PERIOD or values.size != p ** (2 * n):
        raise ValueError(f"{path}: header does not match the payload")
    return n, values.reshape((p,) * (2 * n)).astype(float)


# ---------------------------------------------------------------------------
# closed forms


def _tau(w: Workload, axis: int) -> np.ndarray:
    shape = [1] * (2 * w.n)
    shape[axis] = w.points
    return (2.0 * np.pi * np.arange(w.points) / w.points).reshape(shape)


def f_closed(w: Workload) -> np.ndarray:
    """f_scale * q^2 / max q^2 with q = cos x1 + sin y1 cos x2."""
    q = np.cos(_tau(w, 0)) + np.sin(_tau(w, 1)) * np.cos(_tau(w, 2))
    sq = np.broadcast_to(q * q, w.shape)
    return F_SCALE * sq / np.max(sq)


def mu_closed(w: Workload) -> np.ndarray:
    """Mean-free sin x2 + cos y2 cos x1 with max-norm mu_scale."""
    b = np.broadcast_to(np.sin(_tau(w, 2)) + np.cos(_tau(w, 3)) * np.cos(_tau(w, 0)),
                        w.shape)
    b = b - np.mean(b)
    return MU_SCALE * b / np.max(np.abs(b))


def u_star(w: Workload) -> np.ndarray:
    """Exact solution of the manufactured workload: -log A0 plus the
    mean-free cos x1 + sin y1 cos y2 of max-norm `amplitude`."""
    c = np.broadcast_to(np.cos(_tau(w, 0)) + np.sin(_tau(w, 1)) * np.cos(_tau(w, 3)),
                        w.shape)
    c = c - np.mean(c)
    return -np.log(BASE_A) + AMPLITUDE * c / np.max(np.abs(c))


def gamma(n: int) -> float:
    return 4.0 * (n - 1)


def level(u: np.ndarray, n: int) -> float:
    """(mean e^{-gamma u})^{1/gamma}, the normalization level u attains."""
    g = gamma(n)
    m = -float(np.min(u))
    return float(np.exp(m + np.log(np.mean(np.exp(-g * (u + m)))) / g))


# ---------------------------------------------------------------------------
# spectral calculus in numpy (shared by the manufactured mu and the checker)


def wavenumbers(w: Workload) -> list:
    k = 2.0 * np.pi * np.fft.fftfreq(w.points, d=PERIOD / w.points)
    out = []
    for axis in range(2 * w.n):
        shape = [1] * (2 * w.n)
        shape[axis] = w.points
        out.append(k.reshape(shape))
    return out


def laplacian(w: Workload, values: np.ndarray) -> np.ndarray:
    """Complex Laplacian sum_j d_j dbar_j = (1/4) sum of second derivatives."""
    sym = sum(-0.25 * k * k for k in wavenumbers(w))
    return np.fft.ifftn(sym * np.fft.fftn(values)).real


def hessian_upper(w: Workload, values: np.ndarray) -> dict:
    """Entries (j, k), j <= k, of the complex Hessian d_j dbar_k u."""
    ks = wavenumbers(w)
    uhat = np.fft.fftn(values)
    out = {}
    for j in range(w.n):
        hj = 0.5 * (1j * ks[2 * j] + ks[2 * j + 1])
        for k in range(j, w.n):
            ak = 0.5 * (1j * ks[2 * k] - ks[2 * k + 1])
            entry = np.fft.ifftn(hj * ak * uhat)
            out[j, k] = entry.real if j == k else entry
    return out


def sigma2_hessian(w: Workload, hess: dict) -> np.ndarray:
    lap = sum(hess[j, j] for j in range(w.n))
    frob = sum((1.0 if j == k else 2.0) * np.abs(h) ** 2 for (j, k), h in hess.items())
    return 0.5 * (lap * lap - frob)


def divergence_residual(w: Workload, u: np.ndarray, f: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """(n-1) Lap(e^u - f e^{-u}) + 2 n alpha sigma_2(i ddbar u) + mu, with the
    Laplacian of the composite taken spectrally (no chain rule)."""
    composite = np.exp(u) - f * np.exp(-u)
    return ((w.n - 1) * laplacian(w, composite)
            + 2.0 * w.n * ALPHA * sigma2_hessian(w, hessian_upper(w, u)) + mu)


# ---------------------------------------------------------------------------
# seeded random data


def _two_term(w: Workload, rng: np.random.Generator) -> np.ndarray:
    """cos(a + p) + cos(b + q) cos(c + r) on three distinct random axes a, b, c
    with random phases: the shape of the closed forms, moved and turned.
    Fully random low-mode spectra change the Newton and Krylov counts from
    seed to seed (6 to 8 steps on perturbative-n3-8), which would make those
    end-to-end metrics measure the seed rather than the program."""
    a, b, c = rng.permutation(2 * w.n)[:3]
    p, q, r = rng.uniform(0.0, 2.0 * np.pi, 3)
    vals = np.cos(_tau(w, a) + p) + np.cos(_tau(w, b) + q) * np.cos(_tau(w, c) + r)
    return np.broadcast_to(vals, w.shape)


def random_f(w: Workload, rng: np.random.Generator) -> np.ndarray:
    sq = _two_term(w, rng) ** 2
    return F_SCALE * sq / np.max(sq)


def random_mu(w: Workload, rng: np.random.Generator) -> np.ndarray:
    b = _two_term(w, rng)
    b = b - np.mean(b)
    return MU_SCALE * b / np.max(np.abs(b))


# ---------------------------------------------------------------------------
# inputs of one run


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    seed: int
    config: Path
    f_dump: Path        # the benchmark's copies, read back by the checker
    mu_dump: Path
    A: float
    u_star: np.ndarray | None


def _config_text(w: Workload, extra: dict) -> str:
    keys = {
        "n": w.n,
        "points_per_axis": w.points,
        "alpha": ALPHA,
        "A": BASE_A,
        "profile": "perturbative",
        "f_scale": F_SCALE,
        "mu_scale": MU_SCALE,
        "amplitude": AMPLITUDE,
        "newton_tol": NEWTON_TOL,
        "max_newton_iters": w.max_newton_iters,
        "t_step_init": w.t_step_init,
        "t_step_min": 1e-3,
        "cone_margin": CONE_MARGIN,
        "backtrack_factor": 0.5,
        "seed": 0,
    }
    keys.update(extra)
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def prepare(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the config (and, for random data, the field dumps) into workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    f_path, mu_path = workdir / "f.bin", workdir / "mu.bin"
    star = None
    if w.kind == "manufactured":
        star = u_star(w)
        f = f_closed(w)
        A = level(star, w.n)
        # mu = -(n-1) Lap(e^u* - f e^-u*) - 2 n alpha sigma_2(i ddbar u*)
        mu = divergence_residual(w, star, f, np.zeros(w.shape))
        mu = -(mu - np.mean(mu))
        extra = {"profile": "manufactured"}
    elif seed == 0:
        f, mu, A = f_closed(w), mu_closed(w), BASE_A
        extra = {"profile": "perturbative"}
    else:
        rng = np.random.default_rng([seed, w.n, w.points])
        f, mu, A = random_f(w, rng), random_mu(w, rng), BASE_A
        extra = {"profile": "file", "f_dump": f_path, "mu_dump": mu_path}
    write_dump(f_path, w.n, f)
    write_dump(mu_path, w.n, mu)
    config = workdir / "run.cfg"
    config.write_text(_config_text(w, extra))
    return Inputs(w, seed, config, f_path, mu_path, A, star)
