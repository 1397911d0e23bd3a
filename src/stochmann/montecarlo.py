"""Monte Carlo verification harness.

Replicas of a scheme run under seeds derived injectively from
(base_seed, replica); each step's noise then comes from the substream
(replica_seed, step).  Draws are pure in those integers, so the batched
runner below is byte-identical to running each replica serially, and the
whole experiment is a pure function of (plan, base_seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betaincinv

from .bounds import Certificate, certificate, rate_envelope
from .errors import CoverageError, InfeasibleExperimentError, ValidationError
from .schemes import advance, run
from .spaces import as_point, dimension, norm, reference_fixed_point
from .streams import derive_key

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
        cps = tuple(int(n) for n in self.checkpoints)
        if not cps:
            raise ValidationError("experiment.checkpoints: must be nonempty")
        if any(n < 1 for n in cps) or list(cps) != sorted(set(cps)):
            raise ValidationError(
                "experiment.checkpoints: must be strictly increasing indices >= 1")
        if cps[-1] > self.scheme.horizon:
            raise ValidationError("experiment.checkpoints: exceed scheme horizon")
        eps = tuple(float(e) for e in self.eps_grid)
        if any(not (np.isfinite(e) and e > 0.0) for e in eps):
            raise ValidationError("experiment.eps_grid: entries must be positive reals")
        if not (isinstance(self.replicas, (int, np.integer)) and self.replicas >= 1):
            raise ValidationError("experiment.replicas: must be an integer >= 1")
        object.__setattr__(self, "checkpoints", cps)
        object.__setattr__(self, "eps_grid", eps)


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
    return derive_key(base_seed, np.arange(replicas, dtype=np.uint64))


def clopper_pearson(successes, trials, confidence=0.99):
    """Exact (tail-inversion) binomial confidence limits.

    The limits are quantiles of Beta distributions, computed with
    betaincinv(a, b, q), the same bits as scipy.stats.beta.ppf(q, a, b)
    without importing scipy.stats.
    """
    if not (0 <= successes <= trials and trials >= 1):
        raise ValidationError("clopper_pearson: need 0 <= successes <= trials")
    if not (0.0 < confidence < 1.0):
        raise ValidationError("clopper_pearson: confidence must lie in (0, 1)")
    tail = 0.5 * (1.0 - confidence)
    lo = 0.0 if successes == 0 else float(
        betaincinv(successes, trials - successes + 1, tail))
    hi = 1.0 if successes == trials else float(
        betaincinv(successes + 1, trials - successes, 1.0 - tail))
    return lo, hi


def replica_errors(scheme, x_star, seeds, checkpoints):
    """Errors ||x_{n+1} - x*|| for each replica at each checkpoint n.

    Runs all replicas as one batched state through schemes.advance, so row
    r equals a serial run under seeds[r] bit for bit.  Raises DivergedError
    (with offending replica indices) on any non-finite iterate; a
    contraction map cannot trigger this.
    """
    d = dimension(scheme.map_spec)
    x_star = as_point(x_star, d, name="x_star")
    cps = {int(n): j for j, n in enumerate(checkpoints)}
    out = np.empty((len(seeds), len(cps)), dtype=np.float64)
    for n, X, _ in advance(scheme, seeds, max(cps)):
        j = cps.get(n)
        if j is not None:
            out[:, j] = norm(X - x_star, scheme.norm_kind)
    return out


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
    Raises InfeasibleExperimentError when no n under the cap certifies, and
    CoverageError when coverage undercuts 1 - alpha by more than three
    binomial standard errors.  params is a BoundParams, or the Certificate
    built from it, which a caller that sizes n_alpha itself reuses.
    """
    cert = params if isinstance(params, Certificate) else certificate(params)
    cap = plan.scheme.horizon if n_cap is None else n_cap
    n_alpha = cert.min_iterations(eps, alpha, cap)
    if n_alpha is None or n_alpha > plan.scheme.horizon:
        raise InfeasibleExperimentError(
            f"no iteration count <= {min(cap, plan.scheme.horizon)} certifies "
            f"P(error > {eps:g}) <= {alpha:g}",
            report=cert.report(int(min(cap, plan.scheme.horizon)), eps))
    x_star = reference_fixed_point(plan.scheme.map_spec, tol=1e-13)
    seeds = replica_seeds(plan.base_seed, plan.replicas)
    errs = replica_errors(plan.scheme, x_star, seeds, (n_alpha,))
    coverage = float(np.mean(errs[:, 0] <= eps))
    slack = 3.0 * math.sqrt(alpha * (1.0 - alpha) / plan.replicas)
    if coverage < 1.0 - alpha - slack:
        raise CoverageError(
            f"coverage {coverage:.4f} < 1 - {alpha:g} - {slack:.4f} at "
            f"n_alpha = {n_alpha}")
    return coverage


def error_table(scheme, checkpoints, x_star):
    """Single-trajectory table of (n, x_n, absolute error, relative error).

    Checkpoints index iterates (1-based, x_1 the initial point); the run is
    sized to the last checkpoint.  Scalar maps only, mirroring a printed
    fixed-point table.
    """
    if dimension(scheme.map_spec) != 1:
        raise ValidationError("error_table: requires a scalar (d=1) map")
    cps = tuple(int(n) for n in checkpoints)
    if not cps or any(n < 1 for n in cps) or list(cps) != sorted(set(cps)):
        raise ValidationError("checkpoints: must be strictly increasing indices >= 1")
    x_star = as_point(x_star, 1, name="x_star")
    needed = max(cps[-1] - 1, 1)
    if scheme.horizon != needed:
        scheme = replace(scheme, horizon=needed)
    traj = run(scheme, x_star)
    ref = abs(float(x_star[0]))
    rows = []
    for n in cps:
        val = float(traj.iterate(n)[0])
        abs_err = traj.error(n)
        rows.append(ErrorRow(n=n, value=val, absolute_error=abs_err,
                             relative_error=abs_err / ref))
    return rows


def rate_diagnostic(plan, params, eps0):
    """sup over replicas and checkpoints of error / rate_envelope(n, 1).

    Almost-complete convergence at the envelope rate predicts this supremum
    stays bounded as the horizon grows; exceedance fractions at scale eps0
    should be summable-small across checkpoints.
    """
    if len(plan.checkpoints) < 3:
        raise ValidationError("experiment.checkpoints: rate diagnostic needs >= 3")
    if any(n < 2 for n in plan.checkpoints):
        raise ValidationError("experiment.checkpoints: rate diagnostic needs n >= 2")
    x_star = reference_fixed_point(plan.scheme.map_spec, tol=1e-13)
    seeds = replica_seeds(plan.base_seed, plan.replicas)
    errs = replica_errors(plan.scheme, x_star, seeds, plan.checkpoints)
    env = np.array([rate_envelope(n, 1.0, params) for n in plan.checkpoints])
    ratios = errs / env
    exceed = {int(n): float(np.mean(errs[:, j] > eps0 * env[j]))
              for j, n in enumerate(plan.checkpoints)}
    return RateDiagnostic(sup_ratio=float(np.max(ratios)), eps0=float(eps0),
                          exceedance=exceed)
