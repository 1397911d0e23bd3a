"""pytest-benchmark timings of the noise and stepping kernels.

Shapes follow the mc_reference workload: 2000 replicas on the line, so a
noise tile is 2000 replicas x 8 steps x 1 Philox block.  test_run_line
follows confidence_long instead: one replica on the line stepped as
floats, over three whole tiles.  This directory is outside the tier-1
testpaths; run it with

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from stochmann.config import build_scheme, load_config
from stochmann.montecarlo import replica_errors, replica_seeds
from stochmann.noise import sample_block
from stochmann.schemes import TILE_ELEMENTS, run
from stochmann.spaces import reference_fixed_point
from stochmann.streams import Workspace, derive_key, philox2x64

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REFERENCE = CONFIGS / "reference.json"
R = 2000
T = TILE_ELEMENTS // R  # steps per tile at d = 1

SCHEME = build_scheme(load_config(REFERENCE))
SEEDS = replica_seeds(1, R)[:, None]
STEPS = np.arange(1, T + 1, dtype=np.uint64)


def test_philox2x64_tile(benchmark):
    c0 = np.zeros((1, 1, 1), dtype=np.uint64)
    keys = derive_key(SEEDS)[..., None]
    x0, _ = benchmark(philox2x64, c0, STEPS[None, :, None], keys)
    assert x0.shape == (R, T, 1)


def test_sample_block_tile(benchmark):
    xi = benchmark(sample_block, SCHEME.noise, 1, SEEDS, STEPS)
    assert xi.shape == (R, T, 1)


def test_sample_block_tile_workspace(benchmark):
    xi = benchmark(sample_block, SCHEME.noise, 1, SEEDS, STEPS, Workspace())
    assert xi.shape == (R, T, 1)


def test_replica_errors_2000x100(benchmark):
    x_star = reference_fixed_point(SCHEME.map_spec, tol=1e-13)
    errs = benchmark(replica_errors, SCHEME, x_star, SEEDS[:, 0], (10, 100))
    assert errs.shape == (R, 2) and np.isfinite(errs).all()


def test_run_line(benchmark):
    scheme = build_scheme(load_config(CONFIGS / "confidence_demo.json"))
    scheme = replace(scheme, horizon=3 * TILE_ELEMENTS)
    x_star = reference_fixed_point(scheme.map_spec)
    traj = benchmark(run, scheme, x_star)
    assert traj.iterates.shape == (3 * TILE_ELEMENTS + 1, 1)
    assert np.isfinite(traj.errors_to_ref).all()
