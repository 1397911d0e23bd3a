"""pytest-benchmark timings of the noise and stepping kernels.

Shapes follow the mc_reference workload: 2000 replicas on the line, so a
noise tile is 2000 replicas x 8 steps x 1 Philox block.  Its uniforms
are timed on both paths of streams.substream_uniforms, the compiled kernel
and the numpy reference, and the kernel's cold compile has a row of its
own.  test_run_line follows confidence_long instead: one replica on the
line stepped as floats, over three whole tiles.  This directory is outside
the tier-1 testpaths; run it with

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py
"""

import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stochmann import streams
from stochmann.config import build_scheme, load_config
from stochmann.montecarlo import replica_errors, replica_seeds
from stochmann.noise import sample_block
from stochmann.schemes import TILE_ELEMENTS, run
from stochmann.spaces import reference_fixed_point
from stochmann.streams import (Workspace, derive_key, philox2x64,
                               substream_uniforms)

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


@pytest.mark.parametrize("path", ["kernel", "numpy"])
def test_uniforms_tile(benchmark, monkeypatch, path):
    if path == "kernel":
        assert streams.uniform_kernel() is not None
    else:
        monkeypatch.setattr(streams, "uniform_kernel", lambda: None)
    keys = derive_key(SEEDS[:, 0])
    u = benchmark(substream_uniforms, keys, STEPS[:, None], 1, Workspace())
    assert u.shape == (T, R, 1)


def test_kernel_cold_compile(benchmark, tmp_path):
    # each round builds into a new, empty cache directory
    caches = (tmp_path / str(i) for i in itertools.count())
    kernel = benchmark.pedantic(streams._build, rounds=5,
                                setup=lambda: ((streams._SOURCE, next(caches)), {}))
    assert kernel is not None


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
