#!/usr/bin/env python3
"""Pathwise envelope and rate-envelope diagnostics for the reference map.

Block 1 drives a batch of independent trajectories and checks every
realized error against the deterministic envelope built from the same
noise norms; the worst margin is printed.  Block 2 compares the
supremum of error/envelope ratios across two horizons, which should be
stable if the rate envelope has the right shape.
"""

import argparse
import dataclasses
import math
import time

import numpy as np

from stochmann.bounds import BoundParams, canonical_eps0, envelope_sequence
from stochmann.montecarlo import ExperimentPlan, rate_diagnostic, replica_seeds
from stochmann.noise import default_cramer_params, gaussian
from stochmann.schemes import SchemeConfig, StepSequences, advance
from stochmann.spaces import (INVERSE_QUADRATIC_C, inverse_quadratic, norm,
                              reference_fixed_point)


def make_params(rho):
    sigma, L, mnb = default_cramer_params("gaussian", 2.0, dim=1)
    x_star = reference_fixed_point(inverse_quadratic(), tol=1e-14)
    return BoundParams(N=abs(0.5 - float(x_star[0])), a=0.5,
                       c=INVERSE_QUADRATIC_C, sigma=sigma, L=L,
                       mean_norm_bound=mnb, rho=rho), x_star


def block_envelope(args):
    print("== pathwise envelope, %d trajectories, horizon %d =="
          % (args.replicas, args.horizon))
    cfg = SchemeConfig(kind="stochastic_mann", map_spec=inverse_quadratic(),
                       x0=np.array([0.5]), steps=StepSequences(a=0.5),
                       noise=gaussian(scale=2.0), horizon=args.horizon,
                       seed=0)
    params, x_star = make_params(rho=0.5 * (1.0 - INVERSE_QUADRATIC_C))
    seeds = replica_seeds(args.seed, args.replicas)
    errs = np.empty((args.replicas, args.horizon))
    norms = np.empty((args.replicas, args.horizon))
    t0 = time.perf_counter()
    for n, X, xi in advance(cfg, seeds, args.horizon):
        norms[:, n - 1] = norm(xi)
        errs[:, n - 1] = norm(X - x_star)
    env = envelope_sequence(params, norms)
    margin = np.min(env - errs)
    worst = np.unravel_index(np.argmin(env - errs), errs.shape)
    print(f"min envelope margin {margin:.4e} at replica {worst[0]}, "
          f"step {worst[1] + 1} ({'ok' if margin >= 0 else 'VIOLATION'})")
    print(f"({time.perf_counter() - t0:.1f}s)\n")


def block_rate(args):
    print("== rate-envelope stability, %d replicas ==" % args.replicas)
    # rho at half of a(1-c) keeps the rate-envelope exponent positive
    params, _ = make_params(rho=0.5 * 0.5 * (1.0 - INVERSE_QUADRATIC_C))
    eps0 = canonical_eps0(params, d=1)
    cfg_base = SchemeConfig(kind="stochastic_mann",
                            map_spec=inverse_quadratic(), x0=np.array([0.5]),
                            steps=StepSequences(a=0.5),
                            noise=gaussian(scale=2.0), horizon=10 ** 4, seed=0)
    t0 = time.perf_counter()
    sups = []
    for horizon in (10 ** 4, 10 ** 5):
        cfg = dataclasses.replace(cfg_base, horizon=horizon)
        cps = tuple(10 ** k for k in range(1, int(math.log10(horizon)) + 1))
        plan = ExperimentPlan(scheme=cfg, checkpoints=cps, eps_grid=(0.1,),
                              replicas=args.replicas, base_seed=args.seed)
        diag = rate_diagnostic(plan, params, eps0)
        sups.append(diag.sup_ratio)
        print(f"horizon {horizon:>7d}: sup error/envelope = "
              f"{diag.sup_ratio:.4f}  (eps0 = {eps0:.4f})")
    ratio = sups[1] / sups[0]
    print(f"ratio across horizons {ratio:.3f} "
          f"({'stable' if 0.5 <= ratio <= 2.0 else 'UNSTABLE'})")
    print(f"({time.perf_counter() - t0:.1f}s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument("--replicas", type=int, default=200)
    ap.add_argument("--horizon", type=int, default=1000)
    args = ap.parse_args()
    block_envelope(args)
    block_rate(args)


if __name__ == "__main__":
    main()
