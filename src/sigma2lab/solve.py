"""Continuity-method solver with a damped, Fourier-preconditioned Newton corrector.

The continuation deforms the data by t in [0, 1]: at t = 0 the problem has
the exact constant solution u = -log A, and each accepted step solves the
equation at the new t starting from the previous solution.  The step in t
halves after a failed attempt and grows after an easy one by as much as its
first Newton contraction allows (_march).  The unknown u
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
    (bicgstab), preconditioned by a left-scaled Fourier inverse
    M^{-1} r = F^{-1}[F(r / sigma) / P] (Concus and Golub, SIAM J. Numer.
    Anal. 10, 1973): sigma is the local ellipticity 2 n alpha tr gtilde,
    the sum of L's diagonal Hessian coefficients, normalized to mean 1, and
    P is the symbol of L / sigma with its coefficients frozen at their
    field averages.  The zero mode of P is l(1) = 1, and it is given the
    zero mode of r, not of r / sigma, so the border row carries mean r.
    1/sigma and P are stored in single precision, which keeps the solve
    within its memory.  BiCGStab works in place on six grid vectors, its
    right-hand side among them.  scipy's GMRES stays as the fallback
    after a BiCGStab failure, on the right-hand side formed again, because
    the benchmark's hooks (bench/hooks.py) wrap `gmres` by name; it has not
    run on a pinned workload, and scipy is imported on its first call, so a
    solve that never falls back loads numpy alone;
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
and its one record in the SolveReport (monitors.EstimateReport: t, the
residual norm and the monitors) read the same Iterate.  Its body, the
bundle, is handed to the evaluation at the next continuation attempt's t
(Iterate.take_body), which forms only the weights, the sigmas of g' and the
residual.  A Newton step consumes the body of the iterate it starts from
and keeps only its field, residual and readings: the operator's coefficient
rows are written over the bundle and live until the linear solve returns,
the zero-mean right-hand side is formed from the residual and BiCGStab's
residual is written over it, each operator apply adds the direction's
derivative terms slab by slab instead of building its bundle, and a
rejected trial is released before the next is evaluated.  A failed attempt evaluates its start field
again, so no consumed body is ever read.

A grid of 32 or more points per axis walks the continuation on its half
grid first, on injected data, and only the t = 1 Newton correction of the
prolonged coarse field runs on the problem's own grid (run_and_return).  The
paper's estimates keep the solution smooth along the whole path, so Newton
takes about as many steps on every grid that resolves it (mesh independence;
Allgower, Boehmer, Potra and Rheinboldt, SIAM J. Numer. Anal. 23, 1986): on
the default data the prolonged field is already below newton_tol on 32^4.
So the prolonged field is first checked in one walk over the slabs of its
bundle, which is never stored (_solves_as_is); only a field that fails the
check is evaluated, as the start of the Newton correction.  Only the
problem's own grid keeps its t = 1 record (_sequenced): the coarse walk's
is never computed, and on 64^4 or more an intermediate level's handover
record is computed and dropped.  Half grids of 8 points per axis are not
used: they stall on the residual's aliased mean.

Derivatives are matmuls along one axis (torus.derivative_matrices): the
bundle of an iterate and every operator apply take no transform, so the
preconditioner's rfftn and irfftn (numpy's) are the only FFTs of a Newton
step.  Every dot product and norm of the linear solve is one einsum over a
single index (_dot), summed in a fixed order and not by BLAS, so a solve's
outputs are the same bytes whatever the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

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
    combine_readings,
    evaluate,
    evaluate_slab,
    linearization_coefficients,
    weights,
)
from .monitors import assemble_report, estimate_report, report_slab
from .torus import (Derivs, TorusGeometry, _irfft, _rfft, constant_derivatives,
                    derivative_slabs, derivative_symbols, prolong)

_RESIDUAL_SLACK = 1e-12  # relative slack in the "non-increasing" residual test
# Eisenstat-Walker forcing, choice 2: eta = _EW_GAMMA (r_k / r_{k-1})^2 after
# the first step's _FORCING_MAX, clipped to [max(_LINEAR_RTOL, _EW_FLOOR
# newton_tol / r_k), _FORCING_MAX].  The floor _EW_FLOOR newton_tol / r_k
# keeps the last step from solving past what newton_tol needs, and
# _LINEAR_RTOL is the tightest relative residual any linear solve is asked
# for.  It lies below the floor for every r_k < 5e7 newton_tol, so the
# floor, not this clip, sets how far a last step that can finish is
# solved; a clip above the floor leaves such a step at the tolerance's
# edge, and a further step follows.  Choice 2's safeguard,
# max(eta, _EW_GAMMA eta_prev^2) once _EW_GAMMA eta_prev^2 > 0.1, acts only
# for a cap above 1/3, so it is left out while _FORCING_MAX stays below.
_FORCING_MAX = 1e-2
_EW_GAMMA = 0.9
_EW_FLOOR = 0.5
_LINEAR_RTOL = 1e-8
_LINEAR_MAXITER = 200    # BiCGStab iteration cap; GMRES(40) gets a 40th of it in restarts
_MAX_BACKTRACKS = 30     # trials s = b, ..., b^30 after s = 1 before a cone breakdown
# Step growth after an easy attempt, one of at most _EASY_NEWTON_ITERS Newton
# steps: dt grows by clip(_THETA_TARGET / theta_0, _T_STEP_GROWTH,
# _T_STEP_GROWTH_MAX), theta_0 the attempt's first residual contraction
# (Deuflhard, Newton Methods for Nonlinear Problems, 2004, ch. 5: with the
# previous solution as predictor, theta_0 grows in proportion to dt).  Once an
# attempt of the run has failed, dt only doubles.
_EASY_NEWTON_ITERS = 3
_T_STEP_GROWTH = 2.0
_T_STEP_GROWTH_MAX = 4.0
_THETA_TARGET = 0.25
# Grid sequencing: a problem whose half grid keeps at least this many points
# per axis walks its continuation there first (run_and_return).  Coarser
# grids are measured to stall: 8^4 on the |mean R| plateau at t = 0.125.
_COARSE_MIN_POINTS = 16


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
    """Continuation history: one monitors.EstimateReport per accepted t, in
    order, each carrying its t and residual norm, and the convergence flag.
    A sequenced run also keeps `coarse`: the points per axis of the grid
    whose t = 1 field was prolonged to the problem's grid, and
    max|u - P u_c|, the distance of the solution from that prolonged and
    normalized field; it is None when the problem's own grid walked."""

    accepted: list = field(default_factory=list)
    converged: bool = False
    coarse: tuple | None = None


def normalize(u: np.ndarray, A: float, gamma: float) -> np.ndarray:
    """Shift u by the exact constant restoring (integral e^{-gamma u})^{1/gamma} = A.

    The shifted-exponential form  log I = -gamma min u + log mean(e^{-gamma(u - min u)})
    keeps every exponent nonpositive, so the computation cannot overflow for
    finite fields.  The integrand is released before the shifted field is
    formed, so one grid array, the result, is the most it holds.
    """
    e, lo = _shifted_exp(u, gamma)
    log_mean = np.log(np.mean(e))
    del e
    c = (log_mean - gamma * lo) / gamma - np.log(A)
    if not np.isfinite(c):
        raise NormalizationError(
            f"normalization shift is not finite (gamma={gamma}, A={A})"
        )
    return u + c


# ---------------------------------------------------------------------------
# linear solve


class Operator(NamedTuple):
    """A square linear operator on flat grid vectors, as much of one as
    bicgstab, scipy's Krylov solvers (through aslinearoperator) and the
    benchmark's counters read: its shape, dtype and matvec."""

    shape: tuple
    dtype: type
    matvec: Callable[[np.ndarray], np.ndarray]


def _dot(x: np.ndarray, y: np.ndarray):
    """x . y of two flat vectors, summed in a fixed order: unlike BLAS, its
    bits do not depend on the thread count."""
    return np.einsum("i,i->", x, y)


def _norm(x: np.ndarray):
    return np.sqrt(_dot(x, x))


def _precondition_symbol(coeffs: LinearCoefficients,
                         geom: TorusGeometry) -> tuple[np.ndarray, np.ndarray]:
    """(1/sigma, symbol) of the left-scaled Fourier preconditioner
    M^{-1} r = F^{-1}[F(r / sigma) / symbol].

    sigma is the sum of the n diagonal Hessian coefficient rows, 2 n alpha
    tr gtilde, normalized to mean 1: the local ellipticity of L.  The symbol
    is that of L / sigma with its coefficients frozen at their field
    averages: the mean of each coefficient row over sigma times that row's
    derivative symbol, plus the mean of c0 over sigma.  On nonzero modes it
    is the symbol of L / sigma; on the zero mode the projected L vanishes
    and the border l(1) = 1 remains, which apply_precond matches by giving
    that mode the mean of r itself.  Each mean is one dot product of a row
    with 1/sigma, so no temporary holds more than one row.  Both are formed
    in double precision and returned in single: a float32 1/sigma and a
    complex64 symbol keep the linear solve within its memory budget."""
    size = coeffs.c0.size
    inv_sigma = Derivs(coeffs.k).lap.ravel()   # 2 n alpha tr gtilde
    np.divide(inv_sigma.mean(), inv_sigma, out=inv_sigma)   # inverted in place
    c_mean, *k_means = (float(_dot(row.ravel(), inv_sigma)) / size
                        for row in (coeffs.c0, *coeffs.k))
    # the double-precision 1/sigma is freed before the symbol is built
    inv_sigma = inv_sigma.reshape(geom.shape).astype(np.float32)

    sym = np.full(geom.spectrum_shape, c_mean, dtype=complex)
    for m, s in zip(k_means, derivative_symbols(geom)):
        sym += m * s

    flat0 = (0,) * len(geom.shape)
    sym[flat0] = 1.0
    floor = 1e-12 * max(1.0, float(np.max(np.abs(sym))))
    small = np.abs(sym) < floor
    if np.any(small):
        sym[small] = floor
    return inv_sigma, sym.astype(np.complex64)


def bicgstab(A, b: np.ndarray, *, rtol: float, maxiter: int, M):
    """Preconditioned BiCGStab for A x = b from x = 0: scipy's iteration,
    with its stopping test at atol = 0, |r| < rtol |b|, and its breakdown
    tests, on fewer vectors.  A and M are Operators, read through .matvec, and
    every dot product and norm is _dot's.

    b is overwritten: it becomes the residual r, and s is written over r.
    The preconditioned direction and the preconditioned s are never alive
    together, because x takes its alpha step before s is preconditioned.  So
    x, r, r~, p, v and one preconditioned vector are the live grid vectors.
    M.matvec must return a new array, which is scaled in place.  Returns
    (x, info): info 0 on convergence, maxiter when the cap is reached, -10
    on a rho breakdown and -11 on an omega breakdown."""
    matvec, psolve = A.matvec, M.matvec
    bnorm = float(_norm(b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0
    tol = rtol * bnorm
    tiny = np.finfo(b.dtype).eps ** 2   # scipy's rho and omega breakdown bound
    r = b
    rtilde = r.copy()
    for iteration in range(maxiter):
        if _norm(r) < tol:
            return x, 0
        rho = _dot(rtilde, r)
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
        rv = _dot(rtilde, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v          # r is s from here on
        z *= alpha
        x += z
        del z                   # freed before s is preconditioned
        if _norm(r) < tol:
            return x, 0
        z = psolve(r)
        t = matvec(z)
        omega = _dot(t, r) / _dot(t, t)
        z *= omega
        x += z
        t *= omega
        r -= t
        del z, t
        rho_prev = rho
    return x, maxiter


def gmres(A, b, **kwargs):
    """scipy's restarted GMRES, imported on its first call: the fallback
    after a BiCGStab failure, which no pinned workload has taken, so a solve
    loads scipy only when it falls back."""
    from scipy.sparse.linalg import gmres as scipy_gmres
    return scipy_gmres(A, b, **kwargs)


def solve_newton_system(u: np.ndarray, d: ProblemData, coeffs: LinearCoefficients,
                        residual: np.ndarray, rtol: float) -> np.ndarray:
    """Solve the bordered Newton system  (L v - mean L v) + l(v) = -(R - mean R)
    for the residual R and v on the full grid to relative residual rtol,
    with the left-scaled Fourier preconditioner of _precondition_symbol.

    l(v) = sum omega v with omega = e^{-gamma u} / sum e^{-gamma u} is the
    derivative of the normalization's log-mean in the direction v, divided
    by -gamma.  The right-hand side of the border row is 0, because u is
    already normalized.  So the solution has l(v) = 0, and L v = -R up to
    an additive constant, which is all a zero-mean residual determines."""
    geom = d.geometry
    shape = geom.shape
    size = residual.size
    inv_sigma, sym = _precondition_symbol(coeffs, geom)
    flat0 = (0,) * len(shape)
    omega, _ = _shifted_exp(u, d.gamma)
    omega = omega.ravel()
    omega /= np.sum(omega)

    def matvec(x):
        out = coeffs.apply_to(x.reshape(shape))
        out += float(_dot(omega, x)) - out.mean()
        return out.ravel()

    def apply_precond(x):
        x = x.reshape(shape)
        rhat = _rfft(x * inv_sigma)
        rhat[flat0] = x.sum()   # the zero mode of r, not of r / sigma
        rhat /= sym
        return _irfft(rhat).ravel()

    def rhs():
        return np.subtract(residual.mean(), residual).ravel()   # -(R - mean R)

    op = Operator((size, size), float, matvec)
    mop = Operator((size, size), float, apply_precond)
    # bicgstab overwrites its right-hand side, so a failure forms it again
    x, info = bicgstab(op, rhs(), rtol=rtol, maxiter=_LINEAR_MAXITER, M=mop)
    if info != 0:
        b = rhs()
        x, info = gmres(op, b, rtol=rtol, atol=0.0, restart=40,
                        maxiter=max(4, _LINEAR_MAXITER // 40), M=mop)
    if info != 0:
        res = float(_norm(op.matvec(x) - b)) / float(_norm(b))
        raise LinearSolveError(
            f"iterative linear solve stagnated (relative residual {res:.2e})"
        )
    return x.reshape(shape)


# ---------------------------------------------------------------------------
# Newton corrector


def _newton_step(it: Iterate, cfg: SolverConfig, forcing: float = _LINEAR_RTOL):
    """One damped step from an evaluated iterate, its linear solve to relative
    residual `forcing`.  The step consumes the iterate's body (see
    forms.linearization_coefficients), and lies in Gamma_2 at the margin, as
    _solve_at_t's start and every accepted trial do.  Returns the evaluation
    of the accepted trial, which the next step starts from, and its s."""
    u, d = it.u, it.data
    # the coefficient rows, written over the iterate's bundle, are passed,
    # not bound: they die with the solve, and `it` keeps no bundle
    v = solve_newton_system(u, d, linearization_coefficients(it), it.residual, forcing)

    s = 1.0
    last_reason = "no admissible step"
    for _ in range(_MAX_BACKTRACKS + 1):
        # a trial may overflow: its NaN or inf readings fail both tests below
        with np.errstate(over="ignore", invalid="ignore"):
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
    residual max-norm drops below newton_tol.  Returns (final iterate,
    residual history), the history one entry longer than the number of
    Newton steps; raises ConvergenceError (with best field and history)
    otherwise, and ConeViolationError for a start outside Gamma_2 at the
    margin, whatever its residual.  A NaN residual, the mark of an
    overflowed field, never counts as converged."""
    if not it.in_cone:
        raise ConeViolationError("current iterate leaves Gamma_2 at the required margin")
    history = [it.rnorm]
    forcing = _FORCING_MAX
    while not it.rnorm < cfg.newton_tol:
        if len(history) > cfg.max_newton_iters:
            raise ConvergenceError(
                f"Newton did not reach tol={cfg.newton_tol:.1e} in "
                f"{cfg.max_newton_iters} iterations (residual {it.rnorm:.3e})",
                best=it.u, history=history,
            )
        if len(history) > 1:
            forcing = _EW_GAMMA * (it.rnorm / history[-2]) ** 2
        forcing = min(_FORCING_MAX, max(forcing, _LINEAR_RTOL,
                                        _EW_FLOOR * cfg.newton_tol / it.rnorm))
        it, _ = _newton_step(it, cfg, forcing=forcing)
        history.append(it.rnorm)
    return it, history


# ---------------------------------------------------------------------------
# continuation


_SOLVE_FAILURES = (ConvergenceError, ConeViolationError, ConeBreakdownError,
                   LinearSolveError)


def _theta_growth(history) -> float:
    """The factor on dt after an easy attempt with residual history
    `history`: _THETA_TARGET / theta_0 clipped to [_T_STEP_GROWTH,
    _T_STEP_GROWTH_MAX], theta_0 = history[1] / history[0] the first Newton
    step's contraction, and the cap when the attempt took no step."""
    if len(history) < 2:
        return _T_STEP_GROWTH_MAX
    theta0 = history[1] / history[0]   # history[0] >= newton_tol > 0
    if theta0 * _T_STEP_GROWTH_MAX <= _THETA_TARGET:
        return _T_STEP_GROWTH_MAX
    return max(_T_STEP_GROWTH, _THETA_TARGET / theta0)


def run_and_return(d: ProblemData, cfg: SolverConfig):
    """March t from 0 to 1 with adaptive steps; returns (report, final field).

    A problem whose half grid keeps at least _COARSE_MIN_POINTS points per
    axis first walks the whole continuation on that grid, on its data
    injected there (ProblemData.restricted), by this same rule, so 64^4
    walks on 16^4 through 32^4; the t = 1 field of that walk is handed over
    to the problem's own grid (_handover).  The report keeps the coarse
    records for t < 1, and the t = 1 record is the problem's own grid's
    (_sequenced).  If the coarse walk stalls or the handover's Newton solve
    fails, the problem's own grid walks from t = 0 (_march), as without a
    coarse grid, so sequencing can cost time but never the run.  Every
    record is one of t, the residual norm and the monitors
    (monitors.assemble_report).  Raises ContinuationStallError, carrying the
    partial report and the furthest accepted field of the problem's own
    grid, if its step floor is reached before t = 1.
    """
    return _sequenced(d, cfg, record_last=True)


def _sequenced(d: ProblemData, cfg: SolverConfig, record_last: bool):
    """run_and_return's (report, field) on d, through the half grid when
    that keeps at least _COARSE_MIN_POINTS points per axis; the t = 1
    record only if record_last, which is true on the problem's own grid
    alone.  The coarse walk recurses here, not through run_and_return, so a
    caller that rebinds that name sees one run."""
    p = d.geometry.points_per_axis
    if p // 2 >= _COARSE_MIN_POINTS:
        try:
            report, u_c = _sequenced(d.restricted(), cfg, record_last=False)
            record, u, gap = _handover(u_c, d.with_t(1.0), cfg)
        except (ContinuationStallError, *_SOLVE_FAILURES):
            pass
        else:
            if record_last:
                report.accepted.append(record)
            report.coarse = (p // 2, gap)
            return report, u
    report, it = _march(d, cfg)
    if record_last:
        report.accepted.append(estimate_report(it))
    return report, it.u


def _handover(u_c: np.ndarray, d: ProblemData, cfg: SolverConfig):
    """(record, field, gap) of the t = 1 solve on d's grid from the coarse
    t = 1 field u_c, prolonged (torus.prolong) and normalized, with
    gap = max|u - P u_c| (nested iteration; Briggs, Henson and McCormick, A
    Multigrid Tutorial, 2000, ch. 3).  A prolonged field that _solves_as_is
    is the solution, with no bundle or residual grid array stored and a gap
    of 0.  Otherwise Newton corrects it as _solve_at_t does everywhere, its
    record is estimate_report's, and its failures propagate."""
    p = d.geometry.points_per_axis
    held = [normalize(prolong(u_c, p), d.A, d.gamma)]
    record = _solves_as_is(held[0], d, cfg)
    if record is not None:
        return record, held[0], 0.0
    # popped, so that the Newton steps own the only reference to the
    # prolonged field, as in _march's start()
    it, _ = _solve_at_t(evaluate(held.pop(), d, cfg.cone_margin), cfg)
    record = estimate_report(it)
    u = it.u
    del it
    return record, u, float(np.max(np.abs(u - normalize(prolong(u_c, p), d.A, d.gamma))))


def _solves_as_is(u: np.ndarray, d: ProblemData, cfg: SolverConfig):
    """The record of the field u against d if u lies in Gamma_2 at
    cone_margin with max|R| < newton_tol, so that _solve_at_t would take no
    Newton step from it; None otherwise.  The record is
    estimate_report(evaluate(u, d, cone_margin)) to the byte.

    One walk over the slabs of u's bundle (torus.derivative_slabs), which,
    like the residual, is never stored: each slab is read by evaluate's
    reader and by estimate_report's, with the slab's weights formed once.
    The walk stops at the first slab outside the cone or not below
    newton_tol; a NaN never is."""
    evaluations, reports = [], []
    for at, g in derivative_slabs(u):
        w = weights(u, d, at)
        reading = evaluate_slab(d, g, w, cfg.cone_margin, at)
        in_cone, _, _, rmax = reading
        if not (in_cone and rmax < cfg.newton_tol):
            return None
        evaluations.append(reading)
        reports.append(report_slab(d, g, w))
    rnorm, _, kappa, fraction = combine_readings(evaluations, u.size)
    return assemble_report(d, u, rnorm, kappa, fraction, reports)


def _march(d: ProblemData, cfg: SolverConfig):
    """The continuation of run_and_return on d's own grid, from t = 0;
    returns (report, last accepted iterate), the report holding a record
    (estimate_report) of every accepted t < 1.

    The walk starts from the normalized constant -log A, the exact t = 0
    solution (its t = 0 residual is 0), evaluated with the zero bundle of a
    constant field (no derivative is taken), and halves the step on any
    solver failure down to t_step_min.  An accepted attempt of at most
    _EASY_NEWTON_ITERS Newton steps grows the step: by _THETA_TARGET /
    theta_0, clipped to [2, 4], where theta_0 is its first Newton
    contraction (by 4 if it took no step), and only by 2 once any attempt
    of the walk has failed, so a walk that stalls takes the doubling path
    it always took.  The step is capped at 1.  Each attempt starts from u
    evaluated at its t, handed the accepted iterate's bundle unless a
    failed attempt consumed it (start)."""
    report = SolveReport()
    margin = cfg.cone_margin
    # the only shift outside the Newton step: its trials come out normalized
    u = normalize(np.full(d.geometry.shape, -np.log(d.A)), d.A, d.gamma)
    # the accepted iterate, until the next attempt takes it; u is constant,
    # so its bundle is 0 and it is not differentiated
    it = evaluate(u, d.with_t(0.0), margin, derivs=constant_derivatives(d.geometry))
    report.accepted.append(estimate_report(it))
    t = 0.0

    def start(d_t: ProblemData) -> Iterate:
        """u against d_t, taking over the body of the accepted iterate `it`,
        whose field is u.  `it` is cleared, so the attempt's Newton steps own
        the only reference.  After a failed attempt there is no accepted
        iterate, and u is evaluated again."""
        nonlocal it
        prev, it = it, None
        return evaluate(u, d_t, margin, None if prev is None else prev.take_body())

    dt = cfg.t_step_init
    failed = False
    while t < 1.0:
        t_try = min(1.0, t + dt)
        try:
            it, history = _solve_at_t(start(d.with_t(t_try)), cfg)
        except _SOLVE_FAILURES as exc:
            failed = True
            dt *= 0.5
            if dt < cfg.t_step_min:
                raise ContinuationStallError(
                    f"continuation stalled at t={t:.4f} "
                    f"(step floor {cfg.t_step_min:g} reached; last failure "
                    f"{type(exc).__name__}: {exc})",
                    report=report, last_field=u) from exc
            continue
        t, u = t_try, it.u
        if t < 1.0:
            report.accepted.append(estimate_report(it))
        if len(history) <= _EASY_NEWTON_ITERS + 1:
            growth = _T_STEP_GROWTH if failed else _theta_growth(history)
            dt = min(growth * dt, 1.0)

    report.converged = True
    return report, it
