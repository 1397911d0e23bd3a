"""Counter-based stream tests against pure-integer reference code.

The references below redo the bit manipulation with Python ints, so any
numpy wraparound or casting mistake in the library shows up as a mismatch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmann.streams import (Workspace, derive_key, mix64, philox2x64,
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


def test_philox_on_tile_shapes_matches_reference_with_and_without_workspace():
    # a noise tile's counter layout: c0 (1, 1, nb), c1 (1, T, 1), key (R, 1, 1)
    rng = np.random.default_rng(5)
    work = Workspace()
    for R, T, nb in ((3, 4, 2), (2, 3, 1), (4, 5, 3)):
        c0 = np.arange(nb, dtype=np.uint64).reshape(1, 1, nb) + np.uint64(MASK - 1)
        c1 = rng.integers(0, MASK, (1, T, 1), dtype=np.uint64, endpoint=True)
        key = rng.integers(0, MASK, (R, 1, 1), dtype=np.uint64, endpoint=True)
        for rounds in (0, 1, 2, 10):
            expected = np.array(
                [[[ref_philox(int(c0[0, 0, b]), int(c1[0, t, 0]),
                              int(key[r, 0, 0]), rounds)
                   for b in range(nb)] for t in range(T)] for r in range(R)],
                dtype=np.uint64)
            for w in (None, work):
                x0, x1 = philox2x64(c0, c1, key, rounds=rounds, work=w)
                assert x0.shape == x1.shape == (R, T, nb)
                assert np.array_equal(x0, expected[..., 0])
                assert np.array_equal(x1, expected[..., 1])
        x0, x1 = philox2x64(c0, c1, key, rounds=0)
        assert np.array_equal(x0, np.broadcast_to(c0, (R, T, nb)))
        assert np.array_equal(x1, np.broadcast_to(c1, (R, T, nb)))


def test_uniforms_same_bits_with_workspace_and_short_last_tile():
    keys = derive_key(3, np.arange(4, dtype=np.uint64))[:, None]
    for count in range(1, 6):
        work = Workspace()
        # two full tiles, then a short last one reusing the same buffers
        for start, stop in ((1, 6), (6, 11), (11, 13)):
            idx = np.arange(start, stop, dtype=np.uint64)
            fresh = substream_uniforms(keys, idx, count)
            got = substream_uniforms(keys, idx, count, work=work)
            assert got.shape == fresh.shape == (4, stop - start, count)
            assert np.array_equal(got, fresh)
