"""Monte Carlo verification harness.

Replicas of a scheme run under seeds derived injectively from
(base_seed, replica); each step's noise then comes from the substream
(replica_seed, step).  Draws are pure in those integers, so the batched
runner below is byte-identical to running each replica serially, and the
whole experiment is a pure function of (plan, base_seed).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betaincinv

from .bounds import Certificate, certificate, rate_envelope
from .errors import (CoverageError, DivergedError, InfeasibleExperimentError,
                     ValidationError, check_number, check_numbers)
from .schemes import advance, check_replica_seeds, run, tile_kernel
from .spaces import as_point, dimension, norm, reference_fixed_point
from .streams import check_seed, derive_key

__all__ = [
    "ExperimentPlan",
    "check_checkpoints",
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

# Replica-steps times d that each process of replica_errors gets at least:
# a forked worker costs its parent ~5 ms to start, and 2**19 replica-steps
# are 25-50 ms of serial work at d = 1 with the compiled noise kernel
# (65-95 ms on the numpy path), on a 2-core x86-64 VM.
SPLIT_ELEMENTS = 2**19


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
        object.__setattr__(self, "checkpoints", cps)
        object.__setattr__(self, "eps_grid", eps)
        object.__setattr__(self, "replicas", replicas)
        object.__setattr__(self, "base_seed",
                           check_seed(self.base_seed, "base_seed"))


def check_checkpoints(value, path):
    """value, a nonempty list or tuple of strictly increasing iterate
    indices >= 1, as a tuple of ints; else ValidationError naming path."""
    cps = check_numbers(value, path, integer=True, minimum=1)
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValidationError(f"{path}: must be strictly increasing")
    return cps


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
    replicas = check_number(replicas, "replicas", integer=True, minimum=0)
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


def _errors(scheme, x_star, seeds, cps):
    """The serial pass: all replicas as one batched state through advance."""
    out = np.empty((len(seeds), len(cps)), dtype=np.float64)
    for start, X, _ in advance(scheme, seeds, max(cps)):
        for n, j in cps.items():
            if start <= n < start + X.shape[0]:
                out[:, j] = norm(X[n - start] - x_star, scheme.norm_kind)
    return out


def _bind(cores):
    """Run this process on `cores` only, where the kernel allows it."""
    try:
        os.sched_setaffinity(0, cores)
    except OSError:
        pass


def _chunk_errors(cores, scheme, x_star, seeds, cps, offset):
    """_errors on `cores` for the seeds of one chunk, whose first replica is
    replica `offset`; on divergence, its step and the global replica indices."""
    _bind(cores)
    try:
        return _errors(scheme, x_star, seeds, cps)
    except DivergedError as exc:
        return exc.last_finite_index, [offset + r for r in exc.replicas]


def _pool(processes):
    """A pool of forked workers; multiprocessing loads only when one is asked
    for.  None in a daemonic process, which may not have children, and while
    other threads run: a fork copies the locks they hold, held."""
    import multiprocessing
    import threading
    if multiprocessing.current_process().daemon or threading.active_count() > 1:
        return None
    return multiprocessing.get_context("fork").Pool(processes)


def replica_errors(scheme, x_star, seeds, checkpoints):
    """Errors ||x_{n+1} - x*|| for each replica at each checkpoint n.

    Row r depends on seeds[r] alone and equals a serial run under it bit for
    bit, so the output bytes do not depend on how the replicas are split.
    The seeds are cut into K contiguous chunks, K the largest number of
    processes that exceeds neither the available cores (`taskset` limits
    them) nor the replicas, and that gives each process at least
    SPLIT_ELEMENTS replica-steps times d.  This process runs the first chunk
    and K - 1 forked workers run the others, each chunk as one batched state
    through schemes.advance; the rows are concatenated in chunk order.  When
    the K processes fill the affinity set, each binds itself to one of its
    cores while its chunk runs: a scheduler may otherwise leave a forked
    worker on its parent's core.  K is 1 (one pass in this process) without
    os.fork or os.sched_getaffinity, in a daemonic process such as a pool
    worker, and while other Python threads run.

    Raises DivergedError on any non-finite iterate, at the earliest such
    step and naming, in order, every replica that diverged there; a
    contraction map cannot trigger this.
    """
    d = dimension(scheme.map_spec)
    x_star = as_point(x_star, d, name="x_star")
    seeds = check_replica_seeds(seeds)
    cps = {int(n): j for j, n in enumerate(checkpoints)}
    R, K = len(seeds), 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        allowed = sorted(os.sched_getaffinity(0))
        K = min(len(allowed), R, R * max(cps) * d // SPLIT_ELEMENTS)
    # resolved before the fork, so that the workers inherit the loaded
    # kernel rather than each compiling and checking it on a cold cache
    tile_kernel(scheme)
    pool = _pool(K - 1) if K > 1 else None
    if pool is None:
        return _errors(scheme, x_star, seeds, cps)
    # one core per process when they fill the affinity set
    cores = [{c} for c in allowed] if K == len(allowed) else [allowed] * K
    chunks = np.array_split(seeds, K)
    offsets = np.cumsum([0] + [len(c) for c in chunks]).tolist()
    jobs = [(cores[k], scheme, x_star, chunks[k], cps, offsets[k])
            for k in range(K)]
    with pool:
        rest = pool.starmap_async(_chunk_errors, jobs[1:])
        try:
            parts = [_chunk_errors(*jobs[0])]
        finally:
            _bind(allowed)
        parts += rest.get()
    diverged = [p for p in parts if isinstance(p, tuple)]
    if diverged:
        n = min(step for step, _ in diverged)
        # chunk order keeps the replicas sorted, as the serial pass lists them
        bad = [r for step, rows in diverged if step == n for r in rows]
        raise DivergedError(f"{len(bad)} replica(s) diverged at step {n}",
                            last_finite_index=n, replicas=bad)
    return np.concatenate(parts)


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
    x_star = reference_fixed_point(plan.scheme.map_spec)
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
    cps = check_checkpoints(checkpoints, "checkpoints")
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
