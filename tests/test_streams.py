"""Counter-based stream tests against pure-integer reference code.

The references below redo the bit manipulation with Python ints, so any
numpy wraparound or casting mistake in the library shows up as a mismatch.
The golden digests are rerun with advance's numpy body, and every way that
schemes' build of philox.c can fail must fall back to that body.  So must a
library whose tiles, uniforms or update, fail the load-time check, on its
scalar path or its AVX-512 one, and Gaussian tiles whose ndtri differs
from scipy's.
"""

import contextlib
import ctypes
import math
import os
import shutil
import subprocess

import numpy as np
import pytest
import test_golden as golden
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from test_schemes import affine_nd, assert_same_tiles, tiles_on_both_paths

from stochmann import schemes, streams
from stochmann.errors import ValidationError
from stochmann.montecarlo import replica_errors, replica_seeds
from stochmann.noise import bounded_uniform, gaussian, zero
from stochmann.schemes import SchemeConfig, StepSequences, tile_library
from stochmann.spaces import (affine, dimension, inverse_quadratic,
                              reference_fixed_point, scaled_cosine)
from stochmann.streams import (derive_key, mix64, philox2x64,
                               substream_normals, substream_uniforms)

MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15
PHILOX_M = 0xD2B74407B1CE6E93


def ref_mix64(z):
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def ref_philox(c0, c1, key, rounds=10):
    c0, c1, key = c0 & MASK, c1 & MASK, key & MASK
    for _ in range(rounds):
        prod = c0 * PHILOX_M
        hi, lo = (prod >> 64) & MASK, prod & MASK
        c0, c1 = (hi ^ key ^ c1) & MASK, lo
        key = (key + GOLDEN) & MASK
    return c0, c1


def test_mix64_reproduces_published_splitmix64_stream():
    # first outputs of the weyl-sequence generator seeded at 0
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    got = [int(mix64(np.uint64(((i + 1) * GOLDEN) & MASK))) for i in range(3)]
    assert got == expected


@given(st.integers(min_value=0, max_value=MASK))
def test_mix64_matches_integer_reference(z):
    assert int(mix64(np.uint64(z))) == ref_mix64(z)


def test_mix64_is_bijective_on_sample():
    xs = np.arange(10**5, dtype=np.uint64)
    ys = mix64(xs)
    assert np.unique(ys).size == xs.size


@given(st.integers(min_value=0, max_value=MASK),
       st.integers(min_value=0, max_value=MASK),
       st.integers(min_value=0, max_value=MASK))
@settings(max_examples=200)
def test_philox_matches_integer_reference(c0, c1, key):
    x0, x1 = philox2x64(np.uint64(c0), np.uint64(c1), np.uint64(key))
    assert (int(x0), int(x1)) == ref_philox(c0, c1, key)


def test_philox_vectorizes_like_scalar_calls():
    c0 = np.arange(64, dtype=np.uint64)
    x0, x1 = philox2x64(c0, np.uint64(5), np.uint64(99))
    for i in (0, 17, 63):
        s0, s1 = philox2x64(np.uint64(i), np.uint64(5), np.uint64(99))
        assert int(x0[i]) == int(s0) and int(x1[i]) == int(s1)


def test_uniforms_open_interval_and_deterministic():
    u = substream_uniforms(np.uint64(2024), 3, 10**5)
    assert u.shape == (10**5,)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    again = substream_uniforms(np.uint64(2024), 3, 10**5)
    assert np.array_equal(u, again)


def test_uniforms_prefix_consistency():
    # a shorter request is a prefix of a longer one from the same substream
    long = substream_uniforms(np.uint64(7), 11, 1000)
    short = substream_uniforms(np.uint64(7), 11, 137)
    assert np.array_equal(long[:137], short)


def test_uniform_moments_match_theory():
    u = substream_uniforms(np.uint64(123), 0, 10**6)
    # mean 1/2 and var 1/12, tolerances at five standard errors
    assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / 10**6)
    assert abs(u.var() - 1 / 12) < 5e-4


def test_normals_match_scipy_inverse_cdf():
    from scipy.special import ndtri
    u = substream_uniforms(np.uint64(55), 9, 512)
    z = substream_normals(np.uint64(55), 9, 512)
    assert np.array_equal(z, ndtri(u))


def test_extreme_words_give_the_extreme_uniforms(monkeypatch):
    # the word 0 is the uniform 2**-54, and the top word 1 - 2**-53: its
    # (2**53 - 1) + 0.5 rounds half to even to 2**53, and the clamp keeps
    # the 1.0 that gives, which ndtri makes +inf, out of every draw
    def words(c0, c1, key):
        shape = np.broadcast_shapes(np.shape(c0), np.shape(c1), np.shape(key))
        return np.zeros(shape, np.uint64), np.full(shape, MASK, np.uint64)
    monkeypatch.setattr(streams, "philox2x64", words)
    assert substream_uniforms(0, 1, 2).tolist() == [2.0**-54, 1.0 - 2.0**-53]
    z = substream_normals(0, 1, 2)
    assert z[0] == ndtri(2.0**-54) < -8 and 8 < z[1] == ndtri(1.0 - 2.0**-53)
    assert np.isfinite(z).all()


def test_normal_moments_match_theory():
    z = substream_normals(np.uint64(9), 2, 10**6)
    assert abs(z.mean()) < 5 / np.sqrt(10**6)
    assert abs(z.var() - 1.0) < 5 * np.sqrt(2.0 / 10**6)


def test_distinct_substreams_disagree():
    a = substream_uniforms(np.uint64(1), 0, 64)
    b = substream_uniforms(np.uint64(1), 1, 64)
    c = substream_uniforms(np.uint64(2), 0, 64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ragged_seeds_are_refused():
    # numpy cannot make one object array of a 2x2 and a length-2 array
    with pytest.raises(ValidationError, match="^s: must be an array of int"):
        streams.check_seeds([np.zeros((2, 2)), np.zeros(2)], "s")


def test_derive_key_matches_reference_and_injective():
    for seed in (0, 1, 2**63, MASK):
        for salt in (0, 1, 255):
            expected = ref_mix64((seed + ((salt + 1) * GOLDEN)) & MASK)
            assert int(derive_key(seed, salt)) == expected
    keys = derive_key(20240814, np.arange(10**5, dtype=np.uint64))
    assert np.unique(keys).size == 10**5


def test_derive_key_vector_matches_scalar():
    salts = np.arange(100, dtype=np.uint64)
    vec = derive_key(77, salts)
    assert all(int(vec[i]) == int(derive_key(77, int(i))) for i in range(100))


def test_philox_on_tile_shapes_matches_reference():
    # a noise tile's counters: c0 (nb, 1, 1), c1 (T, 1), key (R,); also the
    # replica-outermost layout c0 (1, 1, nb), c1 (1, T, 1), key (R, 1, 1)
    rng = np.random.default_rng(5)
    for R, T, nb in ((3, 4, 2), (2, 3, 1), (4, 5, 3)):
        blocks = np.arange(nb, dtype=np.uint64) + np.uint64(MASK - 1)
        steps = rng.integers(0, MASK, T, dtype=np.uint64, endpoint=True)
        keys = rng.integers(0, MASK, R, dtype=np.uint64, endpoint=True)
        expected = np.array(
            [[[[ref_philox(int(blocks[b]), int(steps[t]), int(keys[r]), rounds)
                for r in range(R)] for t in range(T)] for b in range(nb)]
             for rounds in (0, 1, 2, 10)], dtype=np.uint64)
        layouts = (((nb, 1, 1), (T, 1), (R,), (0, 1, 2)),
                   ((1, 1, nb), (1, T, 1), (R, 1, 1), (2, 1, 0)))
        for c0_shape, c1_shape, key_shape, axes in layouts:
            c0, c1, key = (v.reshape(shape) for v, shape in (
                (blocks, c0_shape), (steps, c1_shape), (keys, key_shape)))
            shape = np.broadcast_shapes(c0_shape, c1_shape, key_shape)
            for k, rounds in enumerate((0, 1, 2, 10)):
                want = expected[k].transpose(axes + (3,))
                x0, x1 = philox2x64(c0, c1, key, rounds=rounds)
                assert x0.shape == x1.shape == shape
                assert np.array_equal(x0, want[..., 0])
                assert np.array_equal(x1, want[..., 1])
            x0, x1 = philox2x64(c0, c1, key, rounds=0)
            assert np.array_equal(x0, np.broadcast_to(c0, shape))
            assert np.array_equal(x1, np.broadcast_to(c1, shape))


def test_uniforms_tiles_equal_slices_of_one_whole_draw():
    keys = derive_key(3, np.arange(4, dtype=np.uint64))[:, None]
    for count in range(1, 6):
        whole = substream_uniforms(keys, np.arange(1, 13, dtype=np.uint64), count)
        # two full tiles, then a short last one
        for start, stop in ((1, 6), (6, 11), (11, 13)):
            idx = np.arange(start, stop, dtype=np.uint64)
            got = substream_uniforms(keys, idx, count)
            assert got.shape == (4, stop - start, count)
            assert np.array_equal(got, whole[:, start - 1:stop - 1]), count


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


TILE_CASES = [golden.scheme(inverse_quadratic(), [0.5], noise, horizon=50)
              for noise in (gaussian(2.0), bounded_uniform(1.5), zero())] + [
    golden.scheme(affine([[0.3, 0.1], [-0.2, 0.4]], [0.5, -1.0]), [0.0, 2.0],
                  noise, horizon=50)
    for noise in (gaussian(0.5, dim=2), bounded_uniform(0.5, dim=2))]


def advance_bytes(cfg, R=7):
    return [(start, X.tobytes(), xi.tobytes())
            for start, X, xi in schemes.advance(cfg, np.arange(R), 50)]


def numpy_path_bytes(cfg, R=7):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(schemes, "tile_library", lambda: None)
        return advance_bytes(cfg, R)


def test_numpy_streams_fixture_forces_the_numpy_path(numpy_streams, monkeypatch):
    calls = []
    monkeypatch.setattr(streams, "philox2x64",
                        lambda *a, **k: calls.append(1) or philox2x64(*a, **k))
    cfg = TILE_CASES[0]  # a Gaussian inverse_quadratic tile
    assert schemes.tile_kernel(cfg) is None
    advance_bytes(cfg)
    assert calls == [1]


# tests/test_golden.py checks its digests on the kernel path wherever the
# kernel builds; these rerun them on the numpy path.

@pytest.mark.parametrize("config", sorted(golden.GOLDEN))
def test_cli_output_digests_on_the_numpy_path(numpy_streams, config, tmp_path,
                                              cores):
    golden.test_cli_output_digests(config, tmp_path, cores)


@pytest.mark.parametrize("case", sorted(golden.RUN_CASES))
def test_run_iterates_digest_on_the_numpy_path(numpy_streams, case):
    golden.test_run_iterates_digest(case)


def test_replica_errors_digests_on_the_numpy_path(numpy_streams, cores):
    golden.test_replica_errors_digest(cores)
    golden.test_replica_errors_d8_digest(cores)


# The library's build, on a cold cache of its own.

@pytest.fixture
def cold(tmp_path, monkeypatch):
    """tile_library resolved afresh, with its cache in tmp_path/cache."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(schemes, "_CACHE", cache)
    tile_library.cache_clear()
    yield cache
    tile_library.cache_clear()


def check_fallback(cache, capfd):
    """No library, a Gaussian inverse_quadratic tile stepped by the numpy
    body, nothing printed, no temporary file left."""
    assert tile_library() is None
    cfg = TILE_CASES[0]
    assert schemes.tile_kernel(cfg) is None
    assert advance_bytes(cfg) == numpy_path_bytes(cfg)
    assert capfd.readouterr() == ("", "")
    if cache.is_dir():
        assert all(p.suffix == ".so" for p in cache.iterdir())


def test_missing_compiler_falls_back(cold, tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(schemes, "_CC", str(tmp_path / "no-such-cc"))
    check_fallback(cold, capfd)
    assert list(cold.iterdir()) == []


def test_source_that_does_not_compile_falls_back(cold, tmp_path, monkeypatch,
                                                 capfd):
    source = tmp_path / "philox.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(schemes, "_SOURCE", source)
    check_fallback(cold, capfd)
    assert list(cold.iterdir()) == []


def test_unwritable_cache_falls_back(tmp_path, monkeypatch, capfd):
    # a regular file where the cache directory should be: no mkdir or
    # mkstemp can write there, whatever the user (root ignores mode bits)
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(schemes, "_CACHE", blocker)
    tile_library.cache_clear()
    try:
        check_fallback(blocker, capfd)
        monkeypatch.setattr(schemes, "_CACHE", blocker / "cache")
        tile_library.cache_clear()
        check_fallback(blocker, capfd)
    finally:
        tile_library.cache_clear()
    assert blocker.read_text() == ""


def test_truncated_library_falls_back(kernel, cold, tmp_path, monkeypatch,
                                      capfd):
    assert schemes._build(schemes._SOURCE, tmp_path / "built") is not None
    lib, = (tmp_path / "built").iterdir()
    data = lib.read_bytes()
    for size in (len(data) - 1, len(data) // 2, 200, 10, 0):
        # past its headers a truncated library would crash dlopen (SIGBUS);
        # each goes to a new path, because dlopen hands back a library that
        # is already loaded from the same path without reading the file
        cache = tmp_path / f"cache{size}"
        cache.mkdir()
        (cache / lib.name).write_bytes(data[:size])
        monkeypatch.setattr(schemes, "_CACHE", cache)
        tile_library.cache_clear()
        check_fallback(cache, capfd)
        assert list(cache.iterdir()) == [cache / lib.name]


def test_compile_timeout_falls_back_and_kills_the_compiler(cold, tmp_path,
                                                          monkeypatch, capfd):
    pid_file = tmp_path / "pid"
    cc = tmp_path / "cc"
    cc.write_text(f'#!/bin/sh\necho $$ > "{pid_file}"\nexec sleep 60\n')
    cc.chmod(0o755)
    monkeypatch.setattr(schemes, "_CC", str(cc))
    monkeypatch.setattr(schemes, "_COMPILE_SECONDS", 0.5)
    check_fallback(cold, capfd)
    assert list(cold.iterdir()) == []
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_changed_source_gets_its_own_build(kernel, tmp_path):
    source = tmp_path / "philox.c"
    text = schemes._SOURCE.read_text()
    built = []
    for version in (text, text, text + "/* changed */\n"):
        source.write_text(version)
        assert schemes._build(source, tmp_path / "cache") is not None
        built.append(sorted(p.name for p in (tmp_path / "cache").iterdir()))
    assert len(built[0]) == 1 and built[1] == built[0]  # loaded, not rebuilt
    assert len(built[2]) == 1 and built[2] != built[0]  # rebuilt, old removed


def test_a_new_build_removes_the_superseded_ones(kernel, cold):
    # other philox.*.so builds go, best effort: a directory of that name
    # cannot be unlinked and stays, as do other names and a temporary file
    # that another process is compiling into
    kept = {"philox.so", "other.so", "philox.0123456789abcdef.so.tmp"}
    cold.mkdir()
    for name in kept | {"philox.0123456789abcdef.so"}:
        (cold / name).write_bytes(b"stale")
    (cold / "philox.dir.so").mkdir()
    kept.add("philox.dir.so")
    assert tile_library() is not None
    names = {p.name for p in cold.iterdir()}
    assert kept < names and len(names - kept) == 1  # and the new build


def test_one_compile_per_cold_cache_over_two_processes(kernel, cold, tmp_path,
                                                       monkeypatch, cores):
    # a split run compiles once, before its threads start, and they share
    # the library it loaded
    log = tmp_path / "compiles"
    cc = tmp_path / "cc"
    cc.write_text(f'#!/bin/sh\necho >> "{log}"\n'
                  f'exec {shutil.which(schemes._CC)} "$@"\n')
    cc.chmod(0o755)
    monkeypatch.setattr(schemes, "_CC", str(cc))
    cfg = golden.scheme(inverse_quadratic(), [0.5], gaussian(2.0), horizon=50)
    x_star = reference_fixed_point(cfg.map_spec)
    pools = cores(2)
    errs = replica_errors(cfg, x_star, replica_seeds(3, 20), (10, 50))
    assert pools == [1]
    assert len(log.read_text().splitlines()) == 1
    assert tile_library() is not None
    with pytest.MonkeyPatch.context() as m:
        m.setattr(schemes, "tile_library", lambda: None)
        assert same_bits(replica_errors(cfg, x_star, replica_seeds(3, 20),
                                        (10, 50)), errs)


# The tile kernel's load-time check and its fallbacks.

def build_edited_source(tmp_path, monkeypatch, old, new):
    """tile_library built from philox.c with old replaced by new."""
    text = schemes._SOURCE.read_text()
    assert old in text
    source = tmp_path / "philox.c"
    source.write_text(text.replace(old, new))
    monkeypatch.setattr(schemes, "_SOURCE", source)
    assert tile_library() is not None


def test_wrong_tile_kernel_falls_back(kernel, cold, tmp_path, monkeypatch):
    # right uniforms, wrong update: a_n = a/(n + 1) in place of a/n
    build_edited_source(tmp_path, monkeypatch, "a_n = a / (double)n,",
                        "a_n = a / ((double)n + 1.0),")
    for cfg in TILE_CASES:
        assert schemes.tile_kernel(cfg) is None
        assert advance_bytes(cfg) == numpy_path_bytes(cfg)


def test_wrong_uniforms_in_the_tile_kernel_fall_back(kernel, cold, tmp_path,
                                                      monkeypatch):
    # a wrong Weyl key increment, on the scalar path and the AVX-512 one:
    # each family's check compares the tile's noise with philox2x64's, so
    # every family that draws is refused and zero noise, which draws
    # nothing, keeps the library
    build_edited_source(tmp_path, monkeypatch,
                        "#define PHILOX_W 0x9E3779B97F4A7C15u",
                        "#define PHILOX_W 0x9E3779B97F4A7C17u")
    for cfg in TILE_CASES:
        compiled = cfg.noise.family == "zero"
        assert (schemes.tile_kernel(cfg) is not None) == compiled
        assert advance_bytes(cfg) == numpy_path_bytes(cfg)


def vector_path():
    """Whether mann_tile takes its AVX-512 path here: a CPU with AVX-512F
    and DQ, and schemes._CC a GCC for x86-64."""
    flags = set()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        flags = next((set(line.split(":", 1)[1].split()) for line in f
                      if line.startswith("flags")), set())
    macros = subprocess.run([schemes._CC, "-dM", "-E", "-x", "c", os.devnull],
                            capture_output=True, text=True).stdout.split()
    return ({"avx512f", "avx512dq"} <= flags and "__x86_64__" in macros
            and "__GNUC__" in macros and "__clang__" not in macros)


ALL = {"batch", "line"}


@pytest.mark.parametrize("old, new, families, classes", [
    ("key_r[v] += PHILOX_W;", "key_r[v] += PHILOX_W + 2;",
     ("gaussian", "bounded_uniform"), ALL),
    ("x1[v] += lane + (uint64_t)(r + 8 * v);",
     "x1[v] += lane + (uint64_t)(r + 8 * v + 1);",
     ("gaussian", "bounded_uniform"), {"line"}),
    ("? (u64x8){0} + key[0]", "? (u64x8){0} + key[0] + 1",
     ("gaussian", "bounded_uniform"), {"line"}),
    ("* S2PI * param;", "* S2PI * param * 2.0;", ("gaussian",), ALL),
    ("const f64x8 r = x0 - x1;", "const f64x8 r = x0 + x1;",
     ("gaussian",), ALL),
    ("(i64x8)(1.0 - u_e) & upper", "(i64x8)u_e & upper", ("gaussian",), ALL),
    ("sqrt(-2.0 * log(x[t]))", "sqrt(-2.1 * log(x[t]))", ("gaussian",), ALL),
    ("y = keep * v + a_n * f\n", "y = keep * v + a_n * f * 2.0\n",
     ("zero", "gaussian", "bounded_uniform"), {"batch"})])
def test_a_wrong_vector_path_is_refused(kernel, cold, tmp_path, monkeypatch,
                                        old, new, families, classes):
    # a defect in one stage of the vector path alone, refused in every
    # class of tile whose check runs it, even where the tile asked for
    # would not:
    # the Philox rounds of the one vector routine, with its two lane
    # layouts, in any batch, whose check has 41 replicas, and for one
    # replica on the line, whose check has 41 steps; the line layout's
    # counters and its key broadcast there alone; the central and tail
    # ndtri in any Gaussian tile (the tails' first log taken of u, not
    # 1 - u, past the upper edge, and their scalar sqrt(-2 log) stage,
    # among them); and the update in any batch
    build_edited_source(tmp_path, monkeypatch, old, new)
    lanes = vector_path()
    for cfg in TILE_CASES:
        hit = lanes and cfg.noise.family in families
        line = "line" if dimension(cfg.map_spec) == 1 else "batch"
        for R, tiles in ((40, "batch"), (7, "batch"), (1, line)):
            assert ((schemes.tile_kernel(cfg, R) is None)
                    == (hit and tiles in classes)), (cfg.noise.family, R)
        for R in (1, 7, 40):
            assert advance_bytes(cfg, R) == numpy_path_bytes(cfg, R)


@pytest.mark.parametrize("R", [40, 45, 200])
def test_scalar_path_tiles_equal_the_numpy_body(kernel, cold, tmp_path,
                                                monkeypatch, R):
    # the library with its AVX-512 dispatch off, as on a CPU without it:
    # every map and noise family at d = 1, 3 and 8, over two tiles
    build_edited_source(tmp_path, monkeypatch,
                        'wide = __builtin_cpu_supports("avx512f")',
                        'wide = 0 && __builtin_cpu_supports("avx512f")')
    seeds = derive_key(11, np.arange(R, dtype=np.uint64))
    maps = [inverse_quadratic(), scaled_cosine(0.8)] + [
        affine_nd(d) for d in (1, 3, 8)]
    for m in maps:
        d = dimension(m)
        for noise in (zero(d), gaussian(2.0, dim=d), bounded_uniform(1.5, dim=d)):
            cfg = SchemeConfig(kind="stochastic_mann", map_spec=m,
                               x0=np.linspace(-1.0, 2.0, d), noise=noise,
                               steps=StepSequences(a=0.7))
            assert schemes.tile_kernel(cfg) is not None, (m.family, d, noise)
            T = max(1, schemes.TILE_ELEMENTS // (R * d))
            assert_same_tiles(*tiles_on_both_paths(cfg, seeds, T + 3))


@pytest.mark.parametrize("scalar_build", [False, True])
def test_line_tiles_equal_the_numpy_body(kernel, cold, tmp_path, monkeypatch,
                                         scalar_build):
    # one replica on the line, which the numpy body steps as floats, on the
    # AVX-512 path (32-step Philox blocks, then the steps past them in
    # scalar code) and with the dispatch off: every map and noise family,
    # one tile of 1, 31, 32, 33, 64 and 16384 steps, and two tiles, the
    # second 37 steps long
    if scalar_build:
        build_edited_source(tmp_path, monkeypatch,
                            'wide = __builtin_cpu_supports("avx512f")',
                            'wide = 0 && __builtin_cpu_supports("avx512f")')
    seeds = derive_key(13, np.arange(1, dtype=np.uint64))
    T = schemes.TILE_ELEMENTS
    for m in (inverse_quadratic(), scaled_cosine(0.8), affine([[0.3]], [0.5])):
        for noise in (zero(), gaussian(2.0), bounded_uniform(1.5)):
            cfg = SchemeConfig(kind="stochastic_mann", map_spec=m,
                               x0=np.array([-1.0]), noise=noise,
                               steps=StepSequences(a=0.7))
            assert schemes.tile_kernel(cfg) is not None, (m.family, noise)
            for horizon in (1, 31, 32, 33, 64, T, T + 37):
                got, want = tiles_on_both_paths(cfg, seeds, horizon)
                assert len(got) == 1 + (horizon > T)
                assert_same_tiles(got, want)


def test_ndtri_port_is_scipys_ndtri(kernel):
    # philox.c's ndtri, which Gaussian tiles draw through, against the
    # ndtri ufunc: 10**6 Philox uniforms, log-spaced tails on both sides
    # down to 1e-308 and 1e-16, and the extreme uniforms 2**-54 and
    # 1 - 2**-53, the ends of the port's domain
    keys = derive_key(5, np.arange(1000, dtype=np.uint64))[:, None]
    u = np.concatenate([
        substream_uniforms(keys, np.arange(1, 501, dtype=np.uint64), 2).ravel(),
        np.logspace(-308, np.log10(0.2), 10**5),
        1.0 - np.logspace(-16, np.log10(0.2), 10**5),
        [2.0**-54, 1.0 - 2.0**-53]])
    out = np.empty_like(u)
    kernel.ndtri_many(u.ctypes.data_as(ctypes.c_void_p), u.size,
                      out.ctypes.data_as(ctypes.c_void_p))
    assert same_bits(out, ndtri(u))


def test_ndtri_port_is_scipys_ndtri_on_edges_in_vector_lanes(kernel):
    # central, tail and branch-edge values, both edges exp(-2) and
    # 1 - exp(-2) +-1 ulp, in 8-element blocks, in each of the 8 rotations,
    # so that every value reaches every lane of the vector path.  Nine
    # rounds of 64 values also cross the 512-element chunk.
    e2, m2 = math.exp(-2.0), 1.0 - math.exp(-2.0)
    block = np.array([math.nextafter(m2, 0.0), math.nextafter(m2, 1.0), 0.5,
                      2.0**-54, 1.0 - 2.0**-53,
                      math.nextafter(e2, 0.0), e2, math.nextafter(e2, 1.0)])
    u = np.tile(np.concatenate([np.roll(block, k) for k in range(8)]), 9)
    out = np.empty_like(u)
    kernel.ndtri_many(u.ctypes.data_as(ctypes.c_void_p), u.size,
                      out.ctypes.data_as(ctypes.c_void_p))
    assert same_bits(out, ndtri(u))


def test_the_source_compiles_without_warnings():
    # the vector builtins take vector arguments, and a missing cast is
    # only a warning under the build's flags; they do not ask for these
    # warnings, as the flags key the build cache
    if shutil.which(schemes._CC) is None:
        pytest.skip(f"no C compiler {schemes._CC!r}")
    done = subprocess.run([schemes._CC, "-Wall", "-Wextra", "-Werror",
                           "-fsyntax-only", str(schemes._SOURCE)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_wrong_ndtri_tail_refuses_gaussian_tiles(kernel, cold, tmp_path,
                                                 monkeypatch):
    # a defect past exp(-32), which Philox draws with probability ~1e-14, so
    # no known-answer tile reaches it: ndtri's edge grid is what refuses
    # Gaussian tiles, and they step in numpy
    build_edited_source(tmp_path, monkeypatch, "3.23774891776946035970E0,",
                        "3.23774891776946035971E1,")
    for cfg in TILE_CASES:
        compiled = cfg.noise.family != "gaussian"
        assert (schemes.tile_kernel(cfg) is not None) == compiled
        assert advance_bytes(cfg) == numpy_path_bytes(cfg)
