"""Counter-based pseudo-random streams.

Every random quantity in this package is a pure function of a 64-bit key
and a counter, so draws can be generated in any order, in any batch shape,
on any number of workers, and still be bitwise identical to a serial run.
The core primitive is the Philox-2x64 block cipher (10 rounds) applied to
the counter pair ``(block, index)`` under a per-stream key; uniform and
Gaussian variates are derived from its output deterministically.

substream_uniforms draws through philox2x64, the numpy reference checked
against Random123's known answers (Salmon et al., SC'11), and the
reference for the rounds of philox.c, which schemes compiles and checks.
"""

from __future__ import annotations

import numpy as np

from . import _special
from .errors import ValidationError, check_number

# SHA-256 (FIPS 180-4) for config_hash and the file name of schemes'
# compiled library, from CPython's builtin module where there is one:
# hashlib would load OpenSSL (~4 ms, ~3.6 MB) to hash two short strings.
# Every route gives the same digest.
try:
    from _sha256 import sha256  # Python 3.10, 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

# Philox-2x64 round constants (multiplier and Weyl key increment).
_PHILOX_M = np.uint64(0xD2B74407B1CE6E93)
_PHILOX_W = np.uint64(0x9E3779B97F4A7C15)
_ROUNDS = 10

# the largest uniform: below 1, so that every Gaussian draw is finite
_U_MAX = 1.0 - 2.0**-53

_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)

__all__ = [
    "mix64",
    "philox2x64",
    "substream_uniforms",
    "substream_normals",
    "derive_key",
    "check_seed",
    "check_seeds",
    "check_block",
]


def _as_u64(x):
    """Coerce ints/arrays to uint64, reducing Python ints mod 2**64."""
    if isinstance(x, (int, np.integer)):
        return np.uint64(int(x) & 0xFFFFFFFFFFFFFFFF)
    return np.asarray(x, dtype=np.uint64)


def _mulhilo(b, hi, lo, t, u):
    """Full 128-bit product of the Philox multiplier with b, written to
    (hi, lo); t and u are scratch buffers, and b is overwritten too."""
    a_lo = _PHILOX_M & _MASK32
    a_hi = _PHILOX_M >> _SH32
    np.multiply(_PHILOX_M, b, out=lo)
    np.bitwise_and(b, _MASK32, out=u)       # u = b_lo
    np.right_shift(b, _SH32, out=b)         # b = b_hi
    # 32x32 partial products; each intermediate stays below 2**64.
    # t = a_hi * b_lo + ((a_lo * b_lo) >> 32)
    np.multiply(a_lo, u, out=t)
    np.right_shift(t, _SH32, out=t)
    np.multiply(a_hi, u, out=u)
    np.add(u, t, out=t)
    # u = mid = a_lo * b_hi + (t & MASK32)
    np.bitwise_and(t, _MASK32, out=u)
    np.multiply(a_lo, b, out=hi)
    np.add(hi, u, out=u)
    # hi = a_hi * b_hi + (t >> 32) + (mid >> 32)
    np.multiply(a_hi, b, out=hi)
    np.right_shift(t, _SH32, out=t)
    np.add(hi, t, out=hi)
    np.right_shift(u, _SH32, out=u)
    np.add(hi, u, out=hi)


def philox2x64(c0, c1, key, rounds=_ROUNDS):
    """Apply the Philox-2x64 bijection to counter (c0, c1) under key.

    Inputs broadcast together; returns two uint64 arrays of the broadcast
    shape.  Distinct (c0, c1, key) triples give statistically independent
    outputs, which is what makes draw-by-counter streams sound.  It draws
    every uniform of substream_uniforms, and is the reference for the rounds
    of philox.c.

    The rounds run in place in six buffers allocated per call: a new array
    per operation made them 1.4-1.6x slower and a 10**5-draw cramer_check
    ~2.5 MB larger at its peak.
    """
    c0, c1, k = _as_u64(c0), _as_u64(c1), _as_u64(key)
    shape = np.broadcast_shapes(np.shape(c0), np.shape(c1), np.shape(k))
    x0, x1, hi, lo, t, u = (np.empty(shape, np.uint64) for _ in range(6))
    x0[...] = c0
    x1[...] = c1
    with np.errstate(over="ignore"):
        for _ in range(rounds):
            _mulhilo(x0, hi, lo, t, u)
            np.bitwise_xor(hi, x1, out=hi)
            np.bitwise_xor(hi, k, out=hi)
            x0, x1, hi, lo = hi, lo, x0, x1
            k = k + _PHILOX_W
    return x0[()], x1[()]


def mix64(x):
    """SplitMix64 finalizer; a bijection on uint64 used to spread keys."""
    with np.errstate(over="ignore"):
        z = _as_u64(x) + np.uint64(0)
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(0xBF58476D1CE4E5B9)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def check_seed(seed, path):
    """seed as an int in [0, 2**64), the seeds derive_key tells apart (it
    reduces mod 2**64); anything else raises ValidationError naming path."""
    try:
        return check_number(seed, path, integer=True, minimum=0,
                            exclusive_max=2**64)
    except ValidationError:
        raise ValidationError(f"{path}: must be an integer in [0, 2**64)") from None


def check_seeds(seeds, path):
    """seeds (an int, array or nested list) as a uint64 array of its shape,
    each held to check_seed's rule.  An integer ndarray is checked without a
    loop over its seeds, other input seed by seed, not through float64."""
    if isinstance(seeds, (np.ndarray, np.generic)) and seeds.dtype.kind in "ui":
        if seeds.dtype.kind == "i" and seeds.size and seeds.min() < 0:
            raise ValidationError(f"{path}: must be an integer in [0, 2**64)")
        return seeds.astype(np.uint64, copy=False)
    try:
        items = np.asarray(seeds, dtype=object)
    except ValueError:
        raise ValidationError(f"{path}: must be an array of integers") from None
    return np.array([check_seed(s, path) for s in items.flat],
                    dtype=np.uint64).reshape(items.shape)


def check_block(shape, path, what):
    """ValidationError naming path unless numpy can size and allocate a
    float64 array of shape, which is never written, so touches no page."""
    try:
        np.empty(shape)
    except (ValueError, MemoryError):
        raise ValidationError(f"{path}: numpy cannot hold {what}") from None


def derive_key(seed, salt=0):
    """Injective-per-salt key derivation: mix64(seed + (salt+1)*W).

    For a fixed seed the map salt -> key is injective on [0, 2**64), so
    replica substreams never collide.
    """
    with np.errstate(over="ignore"):
        s = _as_u64(seed) + (_as_u64(salt) + np.uint64(1)) * _PHILOX_W
    return mix64(s)


def substream_uniforms(key, index, count):
    """``count`` uniforms on (0, 1) from substream (key, index).

    key and index may be scalars or arrays (they broadcast); the result has
    the broadcast shape plus a trailing axis of length ``count``.  Entry j
    depends only on (key, index, j): the counter word c1 carries the index,
    c0 enumerates output blocks of two.  The result is a view of a
    (count,) + shape array, not C-contiguous: the last axis of the broadcast
    shape is the contiguous one, so it is the inner loop of every pass.
    """
    count = check_number(count, "count", integer=True, minimum=0)
    shape = np.broadcast_shapes(np.shape(key), np.shape(index))
    out = np.empty((count,) + shape)
    nblocks = (count + 1) // 2
    c0 = np.arange(nblocks, dtype=np.uint64).reshape((nblocks,) + (1,) * len(shape))
    x0, x1 = philox2x64(c0, index, key)
    # words x0, x1 of block b are uniforms 2b and 2b + 1 (the last x1 unused
    # when count is odd), ((x >> 11) + 0.5) * 2**-53: 2**-54 for the word 0.
    # The top 2**11 words would give 1.0, as (2**53 - 1) + 0.5 rounds half to
    # even to 2**53, and ndtri(1.0) is +inf: they are clamped to 1 - 2**-53.
    for x, rows in ((x0, out[0::2]), (x1[:count // 2], out[1::2])):
        np.right_shift(x, np.uint64(11), out=x)
        rows[...] = x
    np.add(out, 0.5, out=out)
    np.multiply(out, 2.0**-53, out=out)
    np.minimum(out, _U_MAX, out=out)
    # np.moveaxis(out, 0, -1) without its ~5 us of axis normalisation
    return out.transpose(tuple(range(1, out.ndim)) + (0,))


def substream_normals(key, index, count):
    """Standard normal variates via the inverse CDF; same stream layout
    as substream_uniforms, so the draws stay pure in (key, index, j)."""
    u = substream_uniforms(key, index, count)
    return _special.ndtri(u, out=u)
