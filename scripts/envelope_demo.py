#!/usr/bin/env python3
"""Pathwise envelope and rate-envelope diagnostics for the reference map.

Block 1 drives a batch of independent trajectories and checks every
realized error against the pathwise envelope built from the same
noise norms; the worst margin is printed.  Block 2 compares the
supremum of error/envelope ratios across two horizons, which should be
stable if the rate envelope has the right shape.
"""

import argparse
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from stochmann.bounds import canonical_eps0, envelope_sequence
from stochmann.config import build_scheme, certificate_inputs, load_config
from stochmann.montecarlo import ExperimentPlan, rate_diagnostic, replica_seeds
from stochmann.schemes import rows_at
from stochmann.spaces import norm, reference_fixed_point

REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


def load_reference(rho_scale):
    """The shipped reference scheme, its fixed point, and its bound
    parameters with rho = rho_scale * 2a(1-c)."""
    cfg = load_config(REFERENCE)
    cfg["bounds"]["rho_scale"] = rho_scale
    scheme = build_scheme(cfg)
    return (scheme, *certificate_inputs(
        cfg, scheme, reference_fixed_point(scheme.map_spec, tol=1e-14)))


def block_envelope(args):
    print("== pathwise envelope, %d trajectories, horizon %d =="
          % (args.replicas, args.horizon))
    scheme, x_star, params = load_reference(rho_scale=0.5)
    seeds = replica_seeds(args.seed, args.replicas)
    t0 = time.perf_counter()
    steps = range(1, args.horizon + 1)
    states, noises = rows_at(scheme, seeds, steps, steps)
    errs = norm(states - x_star, scheme.norm_kind).T  # (replica, step)
    norms = norm(noises, scheme.norm_kind).T
    env = envelope_sequence(params, norms)
    margin = np.min(env - errs)
    worst = np.unravel_index(np.argmin(env - errs), errs.shape)
    print(f"min envelope margin {margin:.4e} at replica {worst[0]}, "
          f"step {worst[1] + 1} ({'ok' if margin >= 0 else 'VIOLATION'})")
    print(f"({time.perf_counter() - t0:.1f}s)\n")


def block_rate(args):
    print("== rate-envelope stability, %d replicas ==" % args.replicas)
    # rho at half of a(1-c) keeps the rate-envelope exponent positive
    scheme, _, params = load_reference(rho_scale=0.25)
    eps0 = canonical_eps0(params, d=1)
    t0 = time.perf_counter()
    sups = []
    for horizon in (10 ** 4, 10 ** 5):
        cps = tuple(10 ** k for k in range(1, int(math.log10(horizon)) + 1))
        plan = ExperimentPlan(scheme=replace(scheme, horizon=horizon),
                              checkpoints=cps, eps_grid=(0.1,),
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
