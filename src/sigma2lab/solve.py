"""Continuity-method solver with a damped, Fourier-preconditioned Newton corrector.

The continuation deforms the data by t in [0, 1]: at t = 0 the problem has
the exact constant solution u = -log A, and each accepted step solves the
equation at the new t starting from the previous solution.  The unknown u
solves residual_sigma2(u) = 0 together with the normalization
(integral e^{-gamma u})^{1/gamma} = A.  The residual is 2 n alpha times a
divergence form, so it integrates to zero and supplies one equation too few;
the normalization is the missing one.  The corrector is a damped Newton
iteration on the pair:

  * the Newton step v solves the bordered system

        (L v - mean L v) + l(v) = -(R - mean R),

    with L the linearization at u (forms.linearization_coefficients), R the
    residual of the Hessian form (forms.residual_sigma2) and
    l(v) = sum omega v, omega proportional to e^{-gamma u}, the linearized
    normalization.  The two parts are orthogonal (zero mean and constant),
    so the one square system says  l(v) = 0  and  L v = -R  up to constants.
    It is solved inexactly, to the Eisenstat-Walker forcing term (choice 2,
    SIAM J. Sci. Comput. 17, 1996), by the package's own BiCGStab
    (bicgstab), preconditioned by the constant-coefficient Fourier symbol of
    the linearization frozen at the field averages, whose zero mode is
    l(1) = 1.  BiCGStab works in place on six grid vectors,
    its right-hand side among them.  scipy's GMRES stays as the fallback
    after a BiCGStab failure, on the right-hand side formed again, because
    the benchmark's hooks (bench/hooks.py) wrap `gmres` by name; it has not
    run on a pinned workload;
  * the step is backtracked to the largest s in {1, b, b^2, ...} for which
    the normalized trial iterate keeps every grid node in the Gamma_2 cone
    with the configured eigenvalue margin and does not increase the residual
    max-norm;
  * every trial is normalized by the exact closed-form shift, so every
    accepted iterate satisfies the constraint exactly.  Because v already
    satisfies its linearization, that shift is second order in v and the
    iteration keeps Newton's quadratic rate.

Fields are plain arrays, so a trial u + s v is normalized and evaluated with
no validating wrapper.  Each iterate is evaluated once (forms.evaluate): the
backtracking test of a trial, the next Newton step from it, its acceptance
and its monitor snapshot read the same Iterate.  Its body, the bundle and
the weights, moves to the next continuation attempt, where only a, the
sigmas of g' and the residual are assembled for the new t.  A Newton step
consumes the body of the iterate it starts from and keeps only its field,
residual and readings: the operator's coefficient rows are written over the
bundle and live until the linear solve returns, the zero-mean right-hand
side is formed from the residual and BiCGStab's residual is written over it,
each operator apply streams the direction's derivative rows instead of
building its bundle, and a rejected trial is released before the next is
evaluated.  A failed attempt evaluates its start field again, so no consumed
body is ever read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import (
    ConeBreakdownError,
    ConeViolationError,
    ContinuationStallError,
    ConvergenceError,
    LinearSolveError,
    NormalizationError,
)
from .forms import (
    Iterate,
    LinearCoefficients,
    ProblemData,
    _shifted_exp,
    evaluate,
    linearization_coefficients,
)
from .monitors import estimate_report
from .torus import _irfft, _rfft, derivative_symbols

_RESIDUAL_SLACK = 1e-12  # relative slack in the "non-increasing" residual test
# Eisenstat-Walker forcing, choice 2: eta = _EW_GAMMA (r_k / r_{k-1})^2 after
# the first step's _FORCING_MAX, clipped to [max(_LINEAR_RTOL, _EW_FLOOR
# newton_tol / r_k), _FORCING_MAX].  The lower clip keeps the last step from
# solving past what newton_tol needs, and _LINEAR_RTOL is the tightest
# relative residual any linear solve is asked for.  Choice 2's safeguard,
# max(eta, _EW_GAMMA eta_prev^2) once _EW_GAMMA eta_prev^2 > 0.1, acts only
# for a cap above 1/3, so it is left out while _FORCING_MAX stays below.
_FORCING_MAX = 1e-2
_EW_GAMMA = 0.9
_EW_FLOOR = 0.5
_LINEAR_RTOL = 1e-6
_LINEAR_MAXITER = 200    # BiCGStab iteration cap; GMRES(40) gets a 40th of it in restarts
_MAX_BACKTRACKS = 30     # trials s = b, ..., b^30 after s = 1 before a cone breakdown
_T_STEP_GROWTH = 2.0     # factor on dt after an easy attempt:
_EASY_NEWTON_ITERS = 3   # one of at most this many Newton steps


@dataclass(frozen=True)
class SolverConfig:
    """The solver settings a run config can set (cli.RunConfig has one key
    per field); the solver's other parameters are the constants above."""

    newton_tol: float = 1e-9
    max_newton_iters: int = 25
    t_step_init: float = 0.25
    t_step_min: float = 1e-3
    cone_margin: float = 1e-6
    backtrack_factor: float = 0.5

    def __post_init__(self):
        if not (self.newton_tol > 0.0 and math.isfinite(self.newton_tol)):
            raise ValueError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if not self.max_newton_iters >= 0:
            raise ValueError(f"max_newton_iters must be nonnegative, got {self.max_newton_iters}")
        if not 0.0 < self.t_step_min <= self.t_step_init <= 1.0:
            raise ValueError("need 0 < t_step_min <= t_step_init <= 1")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if not (self.cone_margin >= 0.0 and math.isfinite(self.cone_margin)):
            raise ValueError(f"cone_margin must be nonnegative and finite, got {self.cone_margin}")


@dataclass
class SolveReport:
    """Continuation history: accepted t values, residual norms at acceptance,
    one monitor snapshot per accepted t, and the convergence flag."""

    t_values: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    monitor_snapshots: list = field(default_factory=list)
    converged: bool = False


def normalize(u: np.ndarray, A: float, gamma: float) -> np.ndarray:
    """Shift u by the exact constant restoring (integral e^{-gamma u})^{1/gamma} = A.

    The shifted-exponential form  log I = -gamma min u + log mean(e^{-gamma(u - min u)})
    keeps every exponent nonpositive, so the computation cannot overflow for
    finite fields.
    """
    e, lo = _shifted_exp(u, gamma)
    log_mean = np.log(np.mean(e))
    c = (log_mean - gamma * lo) / gamma - np.log(A)
    if not np.isfinite(c):
        raise NormalizationError(
            f"normalization shift is not finite (gamma={gamma}, A={A})"
        )
    return u + c


# ---------------------------------------------------------------------------
# linear solve


def _precondition_symbol(coeffs: LinearCoefficients) -> np.ndarray:
    """Half-spectrum Fourier symbol of the bordered operator with coefficients
    frozen at their field averages: the mean of each coefficient row times
    that row's derivative symbol, plus the mean of c0.  On nonzero modes it
    is the symbol of L; on the zero mode the projected L vanishes and the
    border l(1) = 1 remains."""
    geom = coeffs.geometry
    grid = tuple(range(1, coeffs.k.ndim))
    k_mean = np.mean(coeffs.k, axis=grid)
    sym = np.full(geom.spectrum_shape, float(np.mean(coeffs.c0)), dtype=complex)
    for km, s in zip(k_mean, derivative_symbols(geom)):
        sym += km * s

    flat0 = (0,) * len(geom.shape)
    sym[flat0] = 1.0
    floor = 1e-12 * max(1.0, float(np.max(np.abs(sym))))
    small = np.abs(sym) < floor
    if np.any(small):
        sym[small] = floor
    return sym


def bicgstab(A, b: np.ndarray, *, rtol: float, atol: float = 0.0, maxiter: int, M):
    """Preconditioned BiCGStab for A x = b from x = 0: scipy's iteration,
    with its stopping test |r| < max(atol, rtol |b|) and its breakdown tests,
    on fewer vectors.  A and M are LinearOperators, read through .matvec.

    b is overwritten: it becomes the residual r, and s is written over r.
    The preconditioned direction and the preconditioned s are never alive
    together, because x takes its alpha step before s is preconditioned.  So
    x, r, r~, p, v and one preconditioned vector are the live grid vectors.
    M.matvec must return a new array, which is scaled in place.  Returns
    (x, info): info 0 on convergence, maxiter when the cap is reached, -10
    on a rho breakdown and -11 on an omega breakdown."""
    matvec, psolve = A.matvec, M.matvec
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0
    tol = max(atol, rtol * bnorm)
    tiny = np.finfo(b.dtype).eps ** 2   # scipy's rho and omega breakdown bound
    r = b
    rtilde = r.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < tol:
            return x, 0
        rho = np.dot(rtilde, r)
        if abs(rho) < tiny:
            return x, -10
        if iteration == 0:
            p = r.copy()
        else:
            if abs(omega) < tiny:
                return x, -11
            v *= omega
            p -= v
            del v               # freed before the next v is formed
            p *= (rho / rho_prev) * (alpha / omega)
            p += r
        z = psolve(p)
        v = matvec(z)
        rv = np.dot(rtilde, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v          # r is s from here on
        z *= alpha
        x += z
        del z                   # freed before s is preconditioned
        if np.linalg.norm(r) < tol:
            return x, 0
        z = psolve(r)
        t = matvec(z)
        omega = np.dot(t, r) / np.dot(t, t)
        z *= omega
        x += z
        t *= omega
        r -= t
        del z, t
        rho_prev = rho
    return x, maxiter


def solve_newton_system(u: np.ndarray, d: ProblemData, coeffs: LinearCoefficients,
                        residual: np.ndarray, rtol: float) -> np.ndarray:
    """Solve the bordered Newton system  (L v - mean L v) + l(v) = -(R - mean R)
    for the residual R and v on the full grid to relative residual rtol,
    with the Fourier-symbol preconditioner.

    l(v) = sum omega v with omega = e^{-gamma u} / sum e^{-gamma u} is the
    derivative of the normalization's log-mean in the direction v, divided
    by -gamma.  The right-hand side of the border row is 0, because u is
    already normalized.  So the solution has l(v) = 0, and L v = -R up to
    an additive constant, which is all a zero-mean residual determines."""
    geom = d.geometry
    shape = geom.shape
    size = residual.size
    sym = _precondition_symbol(coeffs)
    omega, _ = _shifted_exp(u, d.gamma)
    omega = omega.ravel()
    omega /= np.sum(omega)

    def matvec(x):
        out = coeffs.apply_to(x.reshape(shape))
        out += float(omega @ x) - out.mean()
        return out.ravel()

    def apply_precond(x):
        rhat = _rfft(x.reshape(shape))
        rhat /= sym
        return _irfft(rhat, geom).ravel()

    def rhs():
        return np.subtract(residual.mean(), residual).ravel()   # -(R - mean R)

    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    mop = LinearOperator((size, size), matvec=apply_precond, dtype=float)
    # bicgstab overwrites its right-hand side, so a failure forms it again
    x, info = bicgstab(op, rhs(), rtol=rtol, atol=0.0,
                       maxiter=_LINEAR_MAXITER, M=mop)
    if info != 0:
        b = rhs()
        x, info = gmres(op, b, rtol=rtol, atol=0.0, restart=40,
                        maxiter=max(4, _LINEAR_MAXITER // 40), M=mop)
    if info != 0:
        res = float(np.linalg.norm(op.matvec(x) - b)) / float(np.linalg.norm(b))
        raise LinearSolveError(
            f"iterative linear solve stagnated (relative residual {res:.2e})"
        )
    return x.reshape(shape)


# ---------------------------------------------------------------------------
# Newton corrector


def _newton_step(it: Iterate, cfg: SolverConfig, forcing: float = _LINEAR_RTOL):
    """One damped step from an evaluated iterate, its linear solve to relative
    residual `forcing`.  The step consumes the iterate's body (see
    forms.linearization_coefficients).  Returns the evaluation of the
    accepted trial, which the next step starts from, and its s."""
    if not it.in_cone:
        raise ConeViolationError(
            "current iterate leaves Gamma_2 at the required margin"
        )
    u, d = it.u, it.data
    # the coefficient rows, written over the iterate's bundle, are passed,
    # not bound: they die with the solve, and `it` keeps no bundle
    v = solve_newton_system(u, d, linearization_coefficients(it), it.residual, forcing)

    s = 1.0
    last_reason = "no admissible step"
    for _ in range(_MAX_BACKTRACKS + 1):
        trial = evaluate(normalize(u + s * v, d.A, d.gamma), d, cfg.cone_margin)
        if not trial.in_cone:
            last_reason = f"cone margin violated at s={s:.3e}"
        elif trial.rnorm <= it.rnorm * (1.0 + _RESIDUAL_SLACK):
            return trial, s
        else:
            last_reason = (
                f"residual increased at s={s:.3e} "
                f"({it.rnorm:.3e} -> {trial.rnorm:.3e})"
            )
        del trial   # released before the next trial is evaluated
        s *= cfg.backtrack_factor
    raise ConeBreakdownError(f"backtracking exhausted: {last_reason}")


def _solve_at_t(it: Iterate, cfg: SolverConfig):
    """Newton iteration on it.data from the evaluated iterate `it` until the
    residual max-norm drops below newton_tol.  Returns (final iterate, Newton
    steps, residual history); raises ConvergenceError (with best field and
    history) otherwise.  A NaN residual, the mark of an overflowed field,
    never counts as converged."""
    history = [it.rnorm]
    iters = 0
    forcing = _FORCING_MAX
    while not it.rnorm < cfg.newton_tol:
        if iters >= cfg.max_newton_iters:
            raise ConvergenceError(
                f"Newton did not reach tol={cfg.newton_tol:.1e} in "
                f"{cfg.max_newton_iters} iterations (residual {it.rnorm:.3e})",
                best=it.u, history=history,
            )
        if iters:
            forcing = _EW_GAMMA * (it.rnorm / history[-2]) ** 2
        forcing = min(_FORCING_MAX, max(forcing, _LINEAR_RTOL,
                                        _EW_FLOOR * cfg.newton_tol / it.rnorm))
        it, _ = _newton_step(it, cfg, forcing=forcing)
        history.append(it.rnorm)
        iters += 1
    return it, iters, history


# ---------------------------------------------------------------------------
# continuation


_SOLVE_FAILURES = (ConvergenceError, ConeViolationError, ConeBreakdownError,
                   LinearSolveError)


def run_and_return(d: ProblemData, cfg: SolverConfig, on_accept=None):
    """March t from 0 to 1 with adaptive steps; returns (report, final field).

    Starts from the normalized constant -log A, the exact t = 0 solution
    (its t = 0 residual is 0), halves the step on any solver failure down to
    t_step_min, and grows it again after easy successes.  Monitors are
    recorded at every accepted t, and on_accept(t, iterate) is invoked there
    when given: the accepted field evaluated against the problem at t, whose
    bundle and weights any monitor can read.  Raises ContinuationStallError,
    carrying the partial report and the furthest accepted field, if the step
    floor is reached before t = 1.
    """
    report = SolveReport()
    margin = cfg.cone_margin
    # the only shift outside the Newton step: its trials come out normalized
    u = normalize(np.full(d.geometry.shape, -np.log(d.A)), d.A, d.gamma)
    # the accepted iterate, until the next attempt takes it
    it = evaluate(u, d.with_t(0.0), margin)

    def accept(t: float):
        nonlocal u
        u = it.u
        report.t_values.append(t)
        report.residual_norms.append(it.rnorm)
        report.monitor_snapshots.append(estimate_report(it))
        if on_accept is not None:
            on_accept(t, it)

    def start(d_t: ProblemData) -> Iterate:
        """The accepted iterate against d_t, which takes over its body.  It
        is taken out of `it`, so the attempt's Newton steps own the only
        reference.  After a failed attempt u is evaluated again."""
        nonlocal it
        prev, it = it, None
        if prev is None:
            return evaluate(u, d_t, margin)
        return evaluate(prev.u, d_t, margin, prev)

    accept(0.0)
    t = 0.0
    dt = cfg.t_step_init
    while t < 1.0:
        t_try = min(1.0, t + dt)
        try:
            it, iters, _ = _solve_at_t(start(d.with_t(t_try)), cfg)
        except _SOLVE_FAILURES as exc:
            dt *= 0.5
            if dt < cfg.t_step_min:
                raise ContinuationStallError(
                    f"continuation stalled at t={t:.4f} "
                    f"(step floor {cfg.t_step_min:g} reached; last failure "
                    f"{type(exc).__name__}: {exc})",
                    report=report, last_field=u) from exc
            continue
        t = t_try
        accept(t)
        if iters <= _EASY_NEWTON_ITERS:
            dt = min(_T_STEP_GROWTH * dt, 1.0)

    report.converged = True
    return report, u
