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
monitoring an accepted iterate differentiates nothing again, in one walk
over the slabs of the grid (forms.map_slabs); a reader of the weights
e^{+-u} and a forms them once per slab, and reverse_sobolev_constant none.
So no whole-grid metric, weight or integrand is built, and the wedge
density (torus.mixed_wedge_density) is real algebra on the packed rows.
Minima and maxima over the slabs are the whole grid's exactly; the
identities' integrals are sums of slab sums, which round unlike np.mean.
SolveReport keeps one EstimateReport per accepted t.  Its fields, t and the
residual norm first, are the monitors.csv schema: CSV_COLUMNS are their
names, EstimateReport.row their values, and the CLI's writer formats it.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import HypothesisError, RangeUnderflowError
from .forms import (Iterate, ProblemData, Weights, gtilde, hermitian_eigenvalues, map_slabs,
                    weights)
from .torus import Derivs, mixed_wedge_density


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


def report_slab(d: ProblemData, g: Derivs, w: Weights) -> tuple:
    """estimate_report's reading of one slab of a field, whose bundle g and
    weights w it is given: (max e^{-u} |Du|^2, and the least and the largest
    eigenvalue of gtilde) on the slab."""
    eig = hermitian_eigenvalues(gtilde(d, g, w.a), d.n)
    return np.max(w.emu * g.grad_sq), np.min(eig), np.max(eig)


def assemble_report(d: ProblemData, u: np.ndarray, rnorm: float, kappa: float,
                    gamma2_fraction: float, readings) -> EstimateReport:
    """The record of the field u against d from its residual norm, its
    readings of g' (forms.evaluate's) and its slabs' report_slab readings,
    in order: the one place a record is assembled."""
    inf_u, sup_u = float(np.min(u)), float(np.max(u))
    c1, lows, highs = zip(*readings)
    return EstimateReport(
        t=d.t,
        residual_norm=rnorm,
        inf_u=inf_u,
        sup_u=sup_u,
        c0_low_ratio=float(np.exp(-inf_u) / d.A),
        c0_high_ratio=float(np.exp(sup_u) * d.A),
        c1_max=float(np.max(c1)),
        gtilde_eig_min=float(np.min(lows)),
        gtilde_eig_max=float(np.max(highs)),
        kappa=kappa,
        kappa_c=d.kappa_c,
        gamma2_fraction=gamma2_fraction,
    )


def estimate_report(it: Iterate) -> EstimateReport:
    """Evaluate every monitored quantity on one evaluated iterate, from its
    bundle and field, with its data's t and its residual's max-norm; kappa
    and the Gamma_2 fraction are the iterate's own readings of g', taken by
    forms.evaluate from the closed-form sigmas."""
    d = it.data
    readings = map_slabs(lambda g, at: report_slab(d, g, weights(it.u, d, at)), it.derivs)
    return assemble_report(d, it.u, it.rnorm, it.kappa, it.gamma2_fraction, readings)


def moser_identity_gap(it: Iterate, k: float) -> float:
    """Residual of the k-weighted integral identity, normalized by its
    largest term.

    For a solution at the current t the identity

        k * I[e^{-ku} |Du|^2 (e^u + f e^{-u})]
            = -(k n alpha / (n-1)!) * I[e^{-ku} * wedge density]
              - (1/(n-1)) * I[e^{-ku} mu]
              + (1 - 1/(k+1)) * I[e^{-(k+1)u} Lap f]

    holds exactly in the continuum; the returned gap is the discretization
    (plus non-solution) error.  All data are t-scaled, and each integral is
    summed slab by slab.  Raises RangeUnderflowError when the weights
    overflow, or underflow to 0 at every node, where every term of the
    identity would read 0.
    """
    if not k > 0.0:
        raise ValueError("the identity weight k must be positive")
    d = it.data

    def sums(g, at):
        with np.errstate(over="ignore"):
            e_min_ku = np.exp(-k * it.u[at])
            e_min_k1u = np.exp(-(k + 1.0) * it.u[at])
        # e^{-ku} is finite where e^{-(k+1)u} is, and nonzero where it is nonzero
        if not np.all(np.isfinite(e_min_k1u)):
            raise RangeUnderflowError(f"exp(-k u) overflowed for k={k}")
        a = weights(it.u, d, at).a
        return (np.count_nonzero(e_min_k1u), np.sum(e_min_ku * g.grad_sq * a),
                np.sum(e_min_ku * mixed_wedge_density(g)), np.sum(e_min_ku * d.mu_eff(at)),
                np.sum(e_min_k1u * d.lap_f_eff(at)))

    means = np.sum(map_slabs(sums, it.derivs), axis=0) / it.u.size
    if not means[0]:
        raise RangeUnderflowError(f"exp(-k u) underflowed to 0 at every node for k={k:g}")
    lhs, r1, r2, r3 = terms = means[1:] * [k, -(k * d.n * d.alpha / math.factorial(d.n - 1)),
                                            -(1.0 / (d.n - 1)), 1.0 - 1.0 / (k + 1.0)]
    scale = float(np.max(np.abs(terms)))
    return 0.0 if scale == 0.0 else float(abs(lhs - (r1 + r2 + r3)) / scale)


def reverse_sobolev_constant(it: Iterate, k: float) -> float:
    """Smallest C with I[|D e^{-ku/2}|^2] <= C k (I[e^{-(k+1)u}] + I[e^{-(k+2)u}]).

    Since D e^{-ku/2} = -(k/2) e^{-ku/2} Du pointwise, the left side is
    (k^2/4) I[e^{-ku} |Du|^2].  Each integral I[e^{-p u} ...] is summed slab
    by slab as e^{p m} mean(e^{-p(u + m)} ...), m = max(-u): the shifted
    integrand is at most 1, so large k u cannot overflow, and 1 at the least
    u, so no right-hand integral underflows.  A constant outside float64
    (k^2 overflows from k ~ 1e154) raises RangeUnderflowError.
    """
    if not k >= 1.0:
        raise ValueError("the Sobolev weight k must be >= 1")
    m = -float(np.min(it.u))
    powers = (k, k + 1.0, k + 2.0)

    def sums(g, at):
        shifted = (np.exp(-p * (it.u[at] + m)) for p in powers)   # one at a time
        return np.sum(next(shifted) * g.grad_sq), np.sum(next(shifted)), np.sum(next(shifted))

    means = np.sum(map_slabs(sums, it.derivs), axis=0) / it.u.size
    if means[0] <= 0.0:
        return 0.0  # constant field: left side is exactly zero
    log_num, log_i1, log_i2 = (p * m + float(np.log(mean)) for p, mean in zip(powers, means))
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

    The bound cannot tell which way the density's off-diagonal contraction
    is conjugated.  With A = (D_j u conj(D_k u)) >= 0 the density is
    (n-2)!/(2 n alpha) (tr(A gtilde) - (n-1) a |Du|^2), and contracted with
    the transposed Hessian it is the same in gtilde^T, which is positive
    exactly when gtilde is: both meet the bound.  The integration by parts
    of verify.suite_wedge_identity tells them apart.
    """
    d = it.data
    bound = math.factorial(d.n - 1) / (2.0 * d.n * d.alpha)

    def read(g, at):
        a = weights(it.u, d, at).a
        low = np.min(hermitian_eigenvalues(gtilde(d, g, a), d.n))
        return low, np.min(mixed_wedge_density(g) + bound * g.grad_sq * a)

    lows, slacks = zip(*map_slabs(read, it.derivs))
    min_eig = float(np.min(lows))
    if min_eig <= 0.0:
        raise HypothesisError(
            f"the linearization metric is not positive (min eigenvalue {min_eig:.3e})"
        )
    return float(np.min(slacks))
