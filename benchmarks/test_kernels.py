"""pytest-benchmark timings of the noise and stepping kernels.

Shapes follow the mc_reference workload: 2000 replicas on the line, so a
noise tile is 2000 replicas x 8 steps x 1 Philox block.  Its uniforms and
its noise are timed through streams.substream_uniforms and
noise.sample_block, which draw in numpy, and the compiled library's cold
compile has a row of its own.  test_advance_tile times one whole tile of
schemes.advance on each of its paths, for that shape and for the affine
d = 8 map of mc_affine_d8 (1 step x 2000 replicas): the compiled mann_tile
("kernel", 8 lanes wide where the CPU has AVX-512), the same library built
with that dispatch forced off ("scalar"), and the numpy body ("numpy").
test_run_line follows confidence_long instead: one replica on the line
over three whole tiles, on each path.  This directory is outside the
tier-1 testpaths; run it with

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py

and the vector tiles against the scalar ones with

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py -k "advance_tile and not numpy"
"""

import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stochmann import schemes
from stochmann.config import build_scheme, load_config
from stochmann.montecarlo import replica_errors, replica_seeds
from stochmann.noise import gaussian, sample_block
from stochmann.schemes import TILE_ELEMENTS, advance, run
from stochmann.spaces import affine, reference_fixed_point
from stochmann.streams import derive_key, philox2x64, substream_uniforms

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


def test_uniforms_tile(benchmark):
    keys = derive_key(SEEDS[:, 0])
    u = benchmark(substream_uniforms, keys, STEPS[:, None], 1)
    assert u.shape == (T, R, 1)


PATHS = ["kernel", "scalar", "numpy"]


@pytest.fixture(scope="module")
def scalar_library(tmp_path_factory):
    """The compiled library with its AVX-512 dispatch forced off, as on a
    CPU without it, built once into a cache of its own."""
    tmp = tmp_path_factory.mktemp("scalar")
    wide = 'wide = __builtin_cpu_supports("avx512f")'
    text = schemes._SOURCE.read_text()
    assert wide in text
    (tmp / "philox.c").write_text(text.replace(wide, "wide = 0 && " + wide[7:]))
    lib = schemes._build(tmp / "philox.c", tmp / "cache")
    assert lib is not None
    return lib


def use_path(request, monkeypatch, path):
    """Step noise tiles through the compiled mann_tile, which must build,
    through that library with its vector dispatch off, or through the numpy
    body, as where it cannot be built."""
    if path == "kernel":
        assert schemes.tile_library() is not None
    elif path == "scalar":
        lib = request.getfixturevalue("scalar_library")
        monkeypatch.setattr(schemes, "tile_library", lambda: lib)
    else:
        monkeypatch.setattr(schemes, "tile_library", lambda: None)


D8 = 8
I, J = np.indices((D8, D8))
AFFINE_D8 = replace(SCHEME, map_spec=affine(
    0.3 * np.eye(D8) + 0.02 * ((3 * I + 5 * J) % 7 - 3),
    np.linspace(-1.0, 1.0, D8)), x0=np.linspace(2.0, -2.0, D8),
    noise=gaussian(0.5, dim=D8))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", ["reference", "affine_d8"])
def test_advance_tile(benchmark, request, monkeypatch, case, path):
    # one tile, the call's set-up included: advance(...) to its first yield
    use_path(request, monkeypatch, path)
    scheme = SCHEME if case == "reference" else AFFINE_D8
    assert (schemes.tile_kernel(scheme) is not None) == (path != "numpy")
    d = scheme.x0.shape[0]
    steps = max(1, TILE_ELEMENTS // (R * d))
    start, X, _ = benchmark(lambda: next(advance(scheme, SEEDS[:, 0], steps)))
    assert start == 1 and X.shape == (steps, R, d)


def test_kernel_cold_compile(benchmark, tmp_path):
    # each round builds into a new, empty cache directory
    caches = (tmp_path / str(i) for i in itertools.count())
    kernel = benchmark.pedantic(schemes._build, rounds=5,
                                setup=lambda: ((schemes._SOURCE, next(caches)), {}))
    assert kernel is not None


def test_sample_block_tile(benchmark):
    xi = benchmark(sample_block, SCHEME.noise, 1, SEEDS, STEPS)
    assert xi.shape == (R, T, 1)


def test_replica_errors_2000x100(benchmark):
    x_star = reference_fixed_point(SCHEME.map_spec, tol=1e-13)
    errs = benchmark(replica_errors, SCHEME, x_star, SEEDS[:, 0], (10, 100))
    assert errs.shape == (R, 2) and np.isfinite(errs).all()


@pytest.mark.parametrize("path", PATHS)
def test_run_line(benchmark, request, monkeypatch, path):
    use_path(request, monkeypatch, path)
    scheme = build_scheme(load_config(CONFIGS / "confidence_demo.json"))
    scheme = replace(scheme, horizon=3 * TILE_ELEMENTS)
    x_star = reference_fixed_point(scheme.map_spec)
    traj = benchmark(run, scheme, x_star)
    assert traj.iterates.shape == (3 * TILE_ELEMENTS + 1, 1)
    assert np.isfinite(traj.errors_to_ref).all()
