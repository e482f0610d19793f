"""Numerical monitors for the a priori estimates and integral identities.

The theorems behind these quantities give qualitative bounds with
non-explicit constants, so the monitors report ratios whose boundedness an
A-sweep can inspect empirically:

  * C^0: e^{-inf u} / A and e^{sup u} * A,
  * C^1: max of e^{-u} |Du|^2,
  * ellipticity: nodewise eigenvalue range of the linearization metric and
    the Gamma_2 fraction of the nodes,
  * degeneracy: kappa = min e^{-2u} sigma_2(g') against kappa_c = n(n-1)/2.

Two exact continuum identities are also evaluated as checks on solved
fields: the k-weighted integral identity produced by the integration-by-
parts chain (moser_identity_gap) and the reverse-Sobolev-type inequality
constant used by the Moser iteration (reverse_sobolev_constant).

Every monitor takes an evaluated forms.Iterate and reads its bundle, so
monitoring an accepted iterate differentiates nothing again; the weights
e^{+-u} and a are formed from the field where they are read
(forms.weights).  estimate_report and wedge_lower_bound_check each read
the iterate in one pass over the slabs of the grid (torus.slabs,
_slab_inputs), which forms each slab's bundle view and weights once: the
first reads the C^1 reading max e^{-u} |Du|^2 and the eigenvalue range of
the linearization metric, the second that metric's least eigenvalue and
the wedge slack, so no whole-grid metric, weight or product is built.
SolveReport keeps one EstimateReport per accepted t.  Its fields, t and the
residual norm first, are the monitors.csv schema: CSV_COLUMNS are their
names, EstimateReport.row their values, and the CLI's writer formats it.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import HypothesisError, RangeUnderflowError
from .forms import Iterate, gtilde, hermitian_eigenvalues, weights
from .torus import Derivs, mixed_wedge_density, slabs


@dataclass(frozen=True)
class EstimateReport:
    """One evaluated iterate's t, residual max-norm and monitored quantities,
    in monitors.csv column order."""

    t: float
    residual_norm: float
    inf_u: float
    sup_u: float
    c0_low_ratio: float
    c0_high_ratio: float
    c1_max: float
    gtilde_eig_min: float
    gtilde_eig_max: float
    kappa: float
    kappa_c: float
    gamma2_fraction: float

    def row(self) -> tuple:
        """One CSV row in CSV_COLUMNS order."""
        return astuple(self)


CSV_COLUMNS = tuple(f.name for f in fields(EstimateReport))


def estimate_report(it: Iterate) -> EstimateReport:
    """Evaluate every monitored quantity on one evaluated iterate, from its
    bundle and field, with its data's t and its residual's max-norm; kappa
    and the Gamma_2 fraction are the iterate's own readings of g', taken by
    forms.evaluate from the closed-form sigmas."""
    d = it.data
    inf_u = float(np.min(it.u))
    sup_u = float(np.max(it.u))
    c1, lows, highs = [], [], []
    for g, w in _slab_inputs(it):
        c1.append(np.max(w.emu * g.grad_sq))
        eig = hermitian_eigenvalues(gtilde(d, g, w.a), d.n)
        lows.append(np.min(eig))
        highs.append(np.max(eig))
    return EstimateReport(
        t=d.t,
        residual_norm=it.rnorm,
        inf_u=inf_u,
        sup_u=sup_u,
        c0_low_ratio=float(np.exp(-inf_u) / d.A),
        c0_high_ratio=float(np.exp(sup_u) * d.A),
        c1_max=float(np.max(c1)),
        gtilde_eig_min=float(np.min(lows)),
        gtilde_eig_max=float(np.max(highs)),
        kappa=it.kappa,
        kappa_c=d.kappa_c,
        gamma2_fraction=it.gamma2_fraction,
    )


def _slab_inputs(it: Iterate):
    """Each slab's bundle view and weights, in one pass over the slabs of
    the grid (torus.slabs), each formed once.  Each node's arithmetic is
    the whole grid's, so exact reductions over the slabs equal those of the
    whole-grid bundle and weights."""
    d, rows = it.data, it.derivs.rows
    for at in slabs(it.u.shape):
        yield Derivs(rows[:, at]), weights(it.u, d, at)


def moser_identity_gap(it: Iterate, k: float) -> float:
    """Residual of the k-weighted integral identity, normalized by its
    largest term.

    For a solution at the current t the identity

        k * I[e^{-ku} |Du|^2 (e^u + f e^{-u})]
            = -(k n alpha / (n-1)!) * I[e^{-ku} * wedge density]
              - (1/(n-1)) * I[e^{-ku} mu]
              + (1 - 1/(k+1)) * I[e^{-(k+1)u} Lap f]

    holds exactly in the continuum; the returned gap is the discretization
    (plus non-solution) error.  All data are t-scaled.  Raises
    RangeUnderflowError when the weights overflow, or underflow to 0 at
    every node, where every term of the identity would read 0.
    """
    if not k > 0.0:
        raise ValueError("the identity weight k must be positive")
    d, dv = it.data, it.derivs
    n = d.n
    vals = it.u
    with np.errstate(over="ignore"):
        e_min_ku = np.exp(-k * vals)
        e_min_k1u = np.exp(-(k + 1.0) * vals)
    # e^{-ku} is finite where e^{-(k+1)u} is, and nonzero where it is nonzero
    if not np.all(np.isfinite(e_min_k1u)):
        raise RangeUnderflowError(f"exp(-k u) overflowed for k={k}")
    if not np.any(e_min_k1u):
        raise RangeUnderflowError(f"exp(-k u) underflowed to 0 at every node for k={k:g}")
    wedge = mixed_wedge_density(dv)

    fact = math.factorial(n - 1)
    lhs = k * float(np.mean(e_min_ku * dv.grad_sq * weights(vals, d).a))
    r1 = -(k * n * d.alpha / fact) * float(np.mean(e_min_ku * wedge))
    r2 = -(1.0 / (n - 1)) * float(np.mean(e_min_ku * d.mu_eff()))
    r3 = (1.0 - 1.0 / (k + 1.0)) * float(np.mean(e_min_k1u * d.lap_f_eff()))
    terms = np.array([lhs, r1, r2, r3])
    scale = float(np.max(np.abs(terms)))
    if scale == 0.0:
        return 0.0
    return abs(lhs - (r1 + r2 + r3)) / scale


def reverse_sobolev_constant(it: Iterate, k: float) -> float:
    """Smallest C with I[|D e^{-ku/2}|^2] <= C k (I[e^{-(k+1)u}] + I[e^{-(k+2)u}]).

    Since D e^{-ku/2} = -(k/2) e^{-ku/2} Du pointwise, the left side is
    (k^2/4) I[e^{-ku} |Du|^2].  Everything is evaluated in shifted log space
    so large k u cannot overflow; an underflow of the right-hand integrals,
    or a constant outside float64 (k^2 overflows from k ~ 1e154), raises
    RangeUnderflowError.
    """
    if not k >= 1.0:
        raise ValueError("the Sobolev weight k must be >= 1")
    vals = it.u
    m = -float(np.min(vals))  # max of -u

    def log_integral(p: float, extra: np.ndarray | None = None) -> float:
        # log I[e^{-p u} * extra] = p m + log mean(e^{-p(u + m)} * extra)
        w = np.exp(-p * (vals + m))
        if extra is not None:
            w = w * extra
        mean = float(np.mean(w))
        if mean <= 0.0:
            if extra is None:
                raise RangeUnderflowError(
                    f"exponential integral underflowed for weight {p}"
                )
            return -np.inf
        return p * m + float(np.log(mean))

    log_num = log_integral(k, it.derivs.grad_sq)
    if log_num == -np.inf:
        return 0.0  # constant field: left side is exactly zero
    log_i1 = log_integral(k + 1.0)
    log_i2 = log_integral(k + 2.0)
    log_den = np.log(k) + np.logaddexp(log_i1, log_i2)
    const = float(np.exp(np.log(k * k / 4.0) + log_num - log_den))
    if not math.isfinite(const):
        raise RangeUnderflowError(f"the reverse-Sobolev constant overflows for k={k:g}")
    return const


def wedge_lower_bound_check(it: Iterate) -> float:
    """Nodewise slack minimum of the wedge-density lower bound.

    Wherever the linearization metric is positive the density obeys

        density > -((n-1)!/(2 n alpha)) |Du|^2 (e^u + f e^{-u});

    returns min over nodes of density + bound (>= 0 up to rounding).  Raises
    HypothesisError if the metric is not positive definite at every node.
    """
    d = it.data
    bound = math.factorial(d.n - 1) / (2.0 * d.n * d.alpha)
    lows, slacks = [], []
    for g, w in _slab_inputs(it):
        lows.append(np.min(hermitian_eigenvalues(gtilde(d, g, w.a), d.n)))
        slacks.append(np.min(mixed_wedge_density(g) + bound * g.grad_sq * w.a))
    min_eig = float(np.min(lows))
    if min_eig <= 0.0:
        raise HypothesisError(
            f"the linearization metric is not positive (min eigenvalue {min_eig:.3e})"
        )
    return float(np.min(slacks))
