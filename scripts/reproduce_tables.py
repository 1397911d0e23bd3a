#!/usr/bin/env python3
"""Reproduce the headline tables for the catalog reference map.

Three blocks are printed:

  1. single-run error decay of the stochastic Mann scheme on
     F(x) = 1/(1+x^2) at decade checkpoints,
  2. empirical tail frequencies with exact binomial intervals against the
     exponential bound on a checkpoint/epsilon grid,
  3. confidence sizing n_alpha and observed coverage on the affine
     testbed of configs/confidence_demo.json, whose constants are
     favourable enough to run on a desk.

Blocks 1 and 2 run configs/reference.json.

Default settings take a couple of minutes; --fast trims horizons and
replica counts for a smoke pass.
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from stochmann.bounds import certificate
from stochmann.config import (build_plan, build_scheme, certificate_inputs,
                              load_config)
from stochmann.montecarlo import (clopper_pearson, coverage_experiment,
                                  empirical_tail, error_table)
from stochmann.spaces import reference_fixed_point

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def block_error_decay(args):
    print("== error decay, single run, seed %d ==" % args.seed)
    top = 5 if args.fast else 6
    cps = tuple(10 ** k for k in range(1, top + 1))
    scheme = replace(build_scheme(load_config(CONFIGS / "reference.json")),
                     seed=args.seed)
    x_star = reference_fixed_point(scheme.map_spec, tol=1e-14)
    t0 = time.perf_counter()
    rows = error_table(scheme, cps, x_star)
    print(f"{'n':>9}  {'x_n':>22}  {'abs error':>12}  {'rel error':>12}")
    for r in rows:
        print(f"{r.n:>9d}  {r.value:>22.15f}  {r.absolute_error:>12.4e}"
              f"  {r.relative_error:>12.4e}")
    print(f"({time.perf_counter() - t0:.1f}s)\n")


def block_tail_grid(args):
    replicas = 10 ** 3 if args.fast else 10 ** 4
    print("== tail frequencies vs exponential bound, %d replicas ==" % replicas)
    cfg = load_config(CONFIGS / "reference.json")
    plan = build_plan(cfg, base_seed=args.seed, replicas=replicas)
    x_star, params = certificate_inputs(cfg, plan.scheme, reference_fixed_point(
        plan.scheme.map_spec, tol=1e-14))
    t0 = time.perf_counter()
    cells = empirical_tail(plan, x_star, params)
    print(f"{'n':>6} {'eps':>5}  {'p_hat':>8}  {'99% CI':>21}"
          f"  {'bound':>9}  note")
    for c in cells:
        note = "vacuous" if c.vacuous else ""
        if not c.dominated:
            note = "VIOLATION"
        print(f"{c.n:>6d} {c.eps:>5.2f}  {c.p_hat:>8.4f}"
              f"  [{c.ci_low:.5f}, {c.ci_high:.5f}]"
              f"  {c.bound_clipped:>9.3e}  {note}")
    print(f"({time.perf_counter() - t0:.1f}s)\n")


def block_coverage(args):
    replicas = 10 ** 3 if args.fast else 10 ** 4
    print("== confidence sizing and coverage, affine testbed, %d replicas =="
          % replicas)
    cfg = load_config(CONFIGS / "confidence_demo.json")
    plan = build_plan(cfg, replicas=replicas)
    _, params = certificate_inputs(cfg, plan.scheme)
    print(f"{'alpha':>6} {'eps':>5}  {'n_alpha':>8}  {'coverage':>9}"
          f"  {'CP upper':>8}")
    t0 = time.perf_counter()
    for alpha in (0.05, 0.1):
        for eps in (0.1, 0.2):
            n_alpha = certificate(params).min_iterations(eps, alpha, 10 ** 6)
            cov = coverage_experiment(plan, eps=eps, alpha=alpha,
                                      params=params, n_cap=10 ** 6)
            _, hi = clopper_pearson(round(cov * replicas), replicas)
            print(f"{alpha:>6.2f} {eps:>5.2f}  {n_alpha:>8d}  {cov:>9.4f}"
                  f"  {hi:>8.4f}")
    print(f"({time.perf_counter() - t0:.1f}s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20240814)
    ap.add_argument("--fast", action="store_true",
                    help="smaller horizons and replica counts")
    args = ap.parse_args()
    block_error_decay(args)
    block_tail_grid(args)
    block_coverage(args)


if __name__ == "__main__":
    main()
