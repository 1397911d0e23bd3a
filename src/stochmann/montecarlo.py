"""Monte Carlo verification harness.

Replicas of a scheme run under seeds derived injectively from
(base_seed, replica); each step's noise then comes from the substream
(replica_seed, step).  Draws are pure in those integers, so the batched
walk of schemes.rows_at, split over threads or not, is byte-identical to
running each replica serially, and the whole experiment is a pure function
of (plan, base_seed).  This module keeps only the statistics of the walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._special import betaincinv
from .bounds import certificate, rate_envelope
from .errors import (CoverageError, ValidationError, check_checkpoints,
                     check_number, check_numbers)
from .schemes import rows_at
from .spaces import as_point, dimension, norm, reference_fixed_point
from .streams import check_block, check_seed, derive_key

__all__ = [
    "ExperimentPlan",
    "TailEstimate",
    "ErrorRow",
    "RateDiagnostic",
    "replica_seeds",
    "clopper_pearson",
    "replica_errors",
    "empirical_tail",
    "dominance_failures",
    "coverage_experiment",
    "error_table",
    "rate_diagnostic",
]

@dataclass(frozen=True)
class ExperimentPlan:
    """A scheme template plus the grid and replication settings.

    The template's seed field is ignored; replica r runs under
    derive_key(base_seed, r).
    """

    scheme: object
    checkpoints: tuple
    eps_grid: tuple
    replicas: int
    base_seed: int

    def __post_init__(self):
        cps = check_checkpoints(self.checkpoints, "experiment.checkpoints")
        if cps[-1] > self.scheme.horizon:
            raise ValidationError("experiment.checkpoints: exceed scheme horizon")
        eps = check_numbers(self.eps_grid, "experiment.eps_grid", exclusive_min=0)
        replicas = check_number(self.replicas, "experiment.replicas",
                                integer=True, minimum=1)
        check_block((replicas,), "replicas", f"{replicas} replica seeds")
        object.__setattr__(self, "checkpoints", cps)
        object.__setattr__(self, "eps_grid", eps)
        object.__setattr__(self, "replicas", replicas)
        object.__setattr__(self, "base_seed",
                           check_seed(self.base_seed, "base_seed"))


@dataclass(frozen=True)
class TailEstimate:
    """One grid cell: empirical tail at (n, eps) with its certified bound."""

    n: int
    eps: float
    p_hat: float
    ci_low: float
    ci_high: float
    bound_clipped: float

    @property
    def vacuous(self):
        """True when clipping at 1 made the bound informationless."""
        return self.bound_clipped >= 1.0

    @property
    def dominated(self):
        return self.ci_low <= self.bound_clipped


@dataclass(frozen=True)
class ErrorRow:
    """One row of error_table, at iterate x_n of a scalar run.

    n               the 1-based iterate index (x_1 the initial point)
    value           x_n, in the map's units
    absolute_error  |x_n - x*|, in the same units
    relative_error  |x_n - x*| / |x*|, dimensionless
    """

    n: int
    value: float
    absolute_error: float
    relative_error: float


@dataclass(frozen=True)
class RateDiagnostic:
    """sup of ||x_{n+1}-x*|| / rate_envelope(n, 1) over replicas and
    checkpoints, plus per-checkpoint exceedance fractions at scale eps0."""

    sup_ratio: float
    eps0: float
    exceedance: dict


def replica_seeds(base_seed, replicas):
    """Injective per-replica seeds; row r is derive_key(base_seed, r)."""
    replicas = check_number(replicas, "replicas", integer=True, minimum=0)
    check_block((replicas,), "replicas", f"{replicas} replica seeds")
    return derive_key(check_seed(base_seed, "base_seed"),
                      np.arange(replicas, dtype=np.uint64))


def clopper_pearson(successes, trials, confidence=0.99):
    """Exact (tail-inversion) binomial confidence limits.

    The limits are quantiles of Beta distributions, computed with
    betaincinv(a, b, q), the same bits as scipy.stats.beta.ppf(q, a, b)
    without importing scipy.stats.
    """
    trials = check_number(trials, "trials", integer=True, minimum=1)
    successes = check_number(successes, "successes", integer=True, minimum=0,
                             maximum=trials)
    confidence = check_number(confidence, "confidence", exclusive_min=0,
                              exclusive_max=1)
    tail = 0.5 * (1.0 - confidence)
    lo = 0.0 if successes == 0 else float(
        betaincinv(successes, trials - successes + 1, tail))
    hi = 1.0 if successes == trials else float(
        betaincinv(successes + 1, trials - successes, 1.0 - tail))
    return lo, hi


def replica_errors(scheme, x_star, seeds, checkpoints):
    """Errors ||x_{n+1} - x*|| for each replica at each checkpoint n, from
    schemes.rows_at: row r equals a serial run under seeds[r] bit for bit,
    however the replicas are split over threads.  Raises DivergedError on
    any non-finite iterate, at the earliest such step and naming, in order,
    every replica that diverged there; a contraction map cannot do that.
    """
    x_star = as_point(x_star, dimension(scheme.map_spec), name="x_star")
    cps = check_checkpoints(checkpoints, "checkpoints")
    states, _ = rows_at(scheme, seeds, cps)
    # a checkpoint's (R, d) slice at a time
    return np.stack([norm(X - x_star, scheme.norm_kind) for X in states], 1)


def empirical_tail(plan, x_star, params):
    """TailEstimate for every (checkpoint, eps) cell of the plan.

    p_hat estimates P{||x_{n+1} - x*|| > eps}; the attached bound_clipped
    is the certified upper bound at the same (n, eps).  Cells appear in
    checkpoint-major, eps-minor order.
    """
    seeds = replica_seeds(plan.base_seed, plan.replicas)
    errs = replica_errors(plan.scheme, x_star, seeds, plan.checkpoints)
    cert = certificate(params)
    cells = []
    for j, n in enumerate(plan.checkpoints):
        col = errs[:, j]
        for eps in plan.eps_grid:
            k = int(np.sum(col > eps))
            lo, hi = clopper_pearson(k, plan.replicas)
            cells.append(TailEstimate(
                n=n, eps=eps, p_hat=k / plan.replicas, ci_low=lo, ci_high=hi,
                bound_clipped=cert.report(n, eps).clipped_bound))
    return cells


def dominance_failures(cells):
    """Cells whose empirical lower confidence limit exceeds the bound."""
    return [cell for cell in cells if not cell.dominated]


def coverage_experiment(plan, eps, alpha, params, n_cap=None):
    """Empirical check of the confidence-set guarantee.

    Sizes n_alpha from the tail bound, runs the plan's replicas to
    n_alpha + 1, and returns the fraction with ||x_{n_alpha+1} - x*|| <= eps.
    Raises InfeasibleExperimentError when no n <= min(n_cap, horizon)
    certifies (Certificate.n_alpha), and CoverageError when the 99%
    Clopper-Pearson upper limit of the coverage falls below 1 - alpha, the
    interval every other gate uses.  The Certificate of params is the
    cached one.
    """
    horizon = plan.scheme.horizon
    cap = horizon if n_cap is None else min(
        check_number(n_cap, "n_cap", integer=True, minimum=1), horizon)
    n_alpha = certificate(params).n_alpha(eps, alpha, cap)
    x_star = reference_fixed_point(plan.scheme.map_spec)
    seeds = replica_seeds(plan.base_seed, plan.replicas)
    errs = replica_errors(plan.scheme, x_star, seeds, (n_alpha,))
    covered = int(np.sum(errs[:, 0] <= eps))
    _, hi = clopper_pearson(covered, plan.replicas)
    if hi < 1.0 - alpha:
        raise CoverageError(
            f"coverage {covered / plan.replicas:.4f}: 99% upper limit "
            f"{hi:.4f} < 1 - {alpha:g} at n_alpha = {n_alpha}")
    return covered / plan.replicas


def error_table(scheme, checkpoints, x_star):
    """Single-trajectory table of (n, x_n, absolute error, relative error).

    Checkpoints index iterates (1-based, x_1 the initial point); the run is
    sized to the last checkpoint.  Scalar maps and x* != 0 only (the relative
    error divides by |x*|), mirroring a printed fixed-point table.
    """
    if dimension(scheme.map_spec) != 1:
        raise ValidationError("error_table: requires a scalar (d=1) map")
    cps = check_checkpoints(checkpoints, "checkpoints")
    x_star = as_point(x_star, 1, name="x_star")
    if x_star[0] == 0.0:
        raise ValidationError("x_star: the relative error is undefined at 0")
    states, _ = rows_at(scheme, [scheme.seed], [n - 1 for n in cps])
    xs = states[:, 0]
    errors = norm(xs - x_star, scheme.norm_kind).tolist()
    ref = abs(float(x_star[0]))
    return [ErrorRow(n=n, value=x, absolute_error=e, relative_error=e / ref)
            for n, x, e in zip(cps, xs[:, 0].tolist(), errors)]


def rate_diagnostic(plan, params, eps0):
    """sup over replicas and checkpoints of error / rate_envelope(n, 1).

    Almost-complete convergence at the envelope rate predicts this supremum
    stays bounded as the horizon grows; exceedance fractions at scale eps0
    should be summable-small across checkpoints.
    """
    eps0 = check_number(eps0, "eps0", exclusive_min=0)
    if len(plan.checkpoints) < 3:
        raise ValidationError("experiment.checkpoints: rate diagnostic needs >= 3")
    if any(n < 2 for n in plan.checkpoints):
        raise ValidationError("experiment.checkpoints: rate diagnostic needs n >= 2")
    x_star = reference_fixed_point(plan.scheme.map_spec)
    seeds = replica_seeds(plan.base_seed, plan.replicas)
    errs = replica_errors(plan.scheme, x_star, seeds, plan.checkpoints)
    env = np.array([rate_envelope(n, 1.0, params) for n in plan.checkpoints])
    ratios = errs / env
    exceed = {int(n): float(np.mean(errs[:, j] > eps0 * env[j]))
              for j, n in enumerate(plan.checkpoints)}
    return RateDiagnostic(sup_ratio=float(np.max(ratios)), eps0=float(eps0),
                          exceedance=exceed)
