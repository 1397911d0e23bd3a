"""The benchmark's workloads and the inputs each one builds from its seed.

This module uses the standard library only: the child process imports it
before it times ``import stochmann.cli``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 1

WORKLOADS = {
    "mc_reference": "montecarlo on configs/reference.json: inverse_quadratic, "
                    "d=1, Gaussian noise, 10^4 steps, 9 cells; Philox and "
                    "noise draws dominate",
    "mc_affine_d8": "montecarlo on an affine d=8 map: the same batched loop "
                    "with eval_map and 4 Philox blocks per replica-step",
    "confidence_long": "confidence on configs/confidence_demo.json at n_alpha "
                       "~1.1e5: one long run, per-step overhead of "
                       "schemes.run, whole path in memory",
    "certify_sweep": "library certificates over a BoundParams grid with the "
                     "slow-series regime: bounds only, no streams or schemes",
}

# montecarlo on the shipped reference config, with the CLI's --replicas
# override so that one command takes seconds, not a quarter of a minute.
MC_REFERENCE_REPLICAS = 2000

# eps for `confidence` on the shipped demo config: n_alpha = 112,719.
CONFIDENCE_EPS = 0.02

AFFINE_DIM = 8
AFFINE_REPLICAS = 2000
AFFINE_HORIZON = 2000

# certify_sweep: the grid axes that set the series lengths stay fixed, so
# every seed does the same amount of work; the seed draws everything else.
SWEEP_A = (0.5, 0.8, 0.95, 0.99)
SWEEP_C = (0.0, 0.25)
SWEEP_SIGMA = (0.25, 1.0)
SWEEP_CHECKPOINTS = (10, 10**3, 10**5, 10**7)
SWEEP_TRIALS = 1000
SWEEP_CELLS = 11


def with_seed(cfg, seed):
    """The config with ``seed`` as both base_seed and scheme.seed.

    The CLI's --seed reaches base_seed only, while `confidence` runs with
    scheme.seed, so the benchmark writes both.
    """
    out = dict(cfg)
    out["base_seed"] = seed
    out["scheme"] = dict(cfg["scheme"], seed=seed)
    return out


def affine_d8_config():
    """Affine map with A = 0.5 I + 0.02 * 11^T, so ||A||_2 = 0.66."""
    d = AFFINE_DIM
    return {
        "map": {
            "family": "affine",
            "matrix": [[(0.52 if i == j else 0.02) for j in range(d)]
                       for i in range(d)],
            "offset": [0.1 * (j + 1) for j in range(d)],
        },
        "norm": "euclidean",
        "scheme": {"kind": "stochastic_mann", "x0": [0.0] * d, "a": 0.5,
                   "horizon": AFFINE_HORIZON, "seed": 0},
        "noise": {"family": "gaussian", "scale": 0.5},
        "experiment": {
            "checkpoints": [AFFINE_HORIZON // 100, AFFINE_HORIZON // 10,
                            AFFINE_HORIZON],
            "eps_grid": [0.1, 0.2, 0.4],
            "replicas": AFFINE_REPLICAS,
            "alpha": 0.05,
        },
        "out_dir": "out",
        "base_seed": 0,
    }


def sweep_inputs(seed):
    """The certify_sweep grid: 16 BoundParams sets and the shared grids.

    (a, c, sigma) run over fixed axes that include a(1-c) = 0.99, where
    S1 needs 131,072 terms; N, mean_norm_bound, L, rho, the (eps, alpha)
    grid and the Clopper-Pearson k-grid come from the seed.
    """
    rng = random.Random(seed)
    grid = []
    for a in SWEEP_A:
        for c in SWEEP_C:
            for sigma in SWEEP_SIGMA:
                grid.append({
                    "N": rng.uniform(0.2, 1.0),
                    "a": a,
                    "c": c,
                    "sigma": sigma,
                    "L": sigma * rng.uniform(1.0, 2.0),
                    "mean_norm_bound": sigma * rng.uniform(0.2, 0.8),
                    "rho": rng.uniform(0.2, 0.5) * 2.0 * a * (1.0 - c),
                })
    return {
        "grid": grid,
        "eps": sorted(rng.uniform(0.1, 0.5) for _ in range(3)),
        "alpha": sorted(rng.uniform(0.01, 0.1) for _ in range(2)),
        "checkpoints": list(SWEEP_CHECKPOINTS),
        "trials": SWEEP_TRIALS,
        "k_grid": sorted(rng.sample(range(1, SWEEP_TRIALS), SWEEP_CELLS)),
    }


def _write_config(cfg, path):
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return str(path)


def prepare(workload, seed, work, root):
    """Write the workload's inputs under ``work`` and return its spec.

    The spec is what a child process needs: the CLI argv (without --out)
    or the sweep grid, and the replica/step shape the probes run at.
    """
    root = Path(root)
    spec = {"workload": workload, "seed": seed, "root": str(root)}
    if workload == "mc_reference":
        shipped = json.loads((root / "configs" / "reference.json").read_text())
        cfg = with_seed(shipped, seed)
        config = _write_config(cfg, work / "reference.json")
        spec.update(kind="cli", config=config,
                    argv=["montecarlo", "--config", config, "--replicas",
                          str(MC_REFERENCE_REPLICAS)],
                    replicas=MC_REFERENCE_REPLICAS, dim=1,
                    horizon=max(cfg["experiment"]["checkpoints"]))
    elif workload == "mc_affine_d8":
        cfg = with_seed(affine_d8_config(), seed)
        config = _write_config(cfg, work / "affine_d8.json")
        spec.update(kind="cli", config=config, argv=["montecarlo", "--config",
                                                      config],
                    replicas=AFFINE_REPLICAS, dim=AFFINE_DIM,
                    horizon=AFFINE_HORIZON)
    elif workload == "confidence_long":
        shipped = json.loads(
            (root / "configs" / "confidence_demo.json").read_text())
        cfg = with_seed(shipped, seed)
        config = _write_config(cfg, work / "confidence_demo.json")
        spec.update(kind="cli", config=config,
                    argv=["confidence", "--config", config, "--eps",
                          repr(CONFIDENCE_EPS)],
                    eps=CONFIDENCE_EPS, replicas=1, dim=1, horizon=None)
    elif workload == "certify_sweep":
        # The sweep has no config of its own; its kernel and config probes
        # run on the shipped reference config at a single replica.
        shipped = json.loads((root / "configs" / "reference.json").read_text())
        config = _write_config(with_seed(shipped, seed),
                               work / "reference.json")
        spec.update(kind="sweep", config=config, sweep=sweep_inputs(seed),
                    replicas=1, dim=1, horizon=None)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec
