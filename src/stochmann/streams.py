"""Counter-based pseudo-random streams.

Every random quantity in this package is a pure function of a 64-bit key
and a counter, so draws can be generated in any order, in any batch shape,
on any number of workers, and still be bitwise identical to a serial run.
The core primitive is the Philox-2x64 block cipher (10 rounds) applied to
the counter pair ``(block, index)`` under a per-stream key; uniform and
Gaussian variates are derived from its output deterministically.

substream_uniforms draws through philox2x64, the numpy reference checked
against Random123's known answers.  The noise tiles of schemes.advance go
through mann_tile in philox.c, the compiled library's one export: a tile's
uniforms, noise and Mann update in one C call, with each round's 64x64-bit
multiply one instruction where numpy needs ~13 passes over the array.
tile_library compiles it with the system's C compiler on the first stepped
tile in a process (not on import), into __pycache__/ beside this file, and
loads it through ctypes; schemes.tile_kernel checks each family's tile
against the numpy body.  ndtri_function gives mann_tile scipy's own ndtri
as a C function, so its Gaussian draws keep the ndtri ufunc's bits.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import struct
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError, check_number

# Philox-2x64 round constants (multiplier and Weyl key increment).
_PHILOX_M = np.uint64(0xD2B74407B1CE6E93)
_PHILOX_W = np.uint64(0x9E3779B97F4A7C15)
_ROUNDS = 10

_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)

# The library's source and build: a library file per (source, compiler,
# flags, platform), so a stale build is never loaded.
_SOURCE = Path(__file__).with_name("philox.c")
_CACHE = _SOURCE.parent / "__pycache__"
_CC = "cc"
_FLAGS = ("-O1", "-fPIC", "-shared", "-ffp-contract=off")
_COMPILE_SECONDS = 60

__all__ = [
    "Workspace",
    "mix64",
    "philox2x64",
    "substream_uniforms",
    "substream_normals",
    "derive_key",
    "check_seed",
    "check_seeds",
]


def _as_u64(x):
    """Coerce ints/arrays to uint64, reducing Python ints mod 2**64."""
    if isinstance(x, (int, np.integer)):
        return np.uint64(int(x) & 0xFFFFFFFFFFFFFFFF)
    return np.asarray(x, dtype=np.uint64)


class Workspace:
    """Named scratch buffers that a sequence of draws reuses.

    array(name, shape, dtype) returns a C-contiguous view of the leading
    elements of the buffer called name, allocated on first use and again
    only when a larger shape is asked for.  A caller that draws tile after
    tile (schemes.advance) creates one and passes it to every call, so the
    tiles allocate no tile-sized array; each call overwrites what the
    previous one returned.  Create one per caller: two interleaved callers
    sharing one would overwrite each other's draws.  The buffers are
    C-contiguous, but substream_uniforms stores its (count,) + shape array
    in one and returns it with the count axis moved last, so the draws a
    tile hands back are strided views, contiguous along the replicas.
    """

    def __init__(self):
        self._buffers = {}

    def array(self, name, shape, dtype=np.uint64):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


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


def philox2x64(c0, c1, key, rounds=_ROUNDS, work=None):
    """Apply the Philox-2x64 bijection to counter (c0, c1) under key.

    Inputs broadcast together; returns two uint64 arrays of the broadcast
    shape.  Distinct (c0, c1, key) triples give statistically independent
    outputs, which is what makes draw-by-counter streams sound.  It draws
    every uniform of substream_uniforms, and is the reference for the rounds
    of the compiled mann_tile (see tile_library).

    The rounds run in place in six buffers of the broadcast shape, taken
    from work (a Workspace) when one is given; the outputs are then views
    into it that the next call with the same workspace overwrites.  A
    noise tile's temporaries are about 128 KB each; allocating and freeing
    ~20 of them per round let malloc trim the top of a small heap and
    fault the pages back in, which made batched Monte Carlo runs ~25%
    slower.  Round 1 multiplies c0 on its own shape: a noise tile's block
    counter is (nblocks, 1, 1), the same for every step and replica.
    """
    c0, c1, k = _as_u64(c0), _as_u64(c1), _as_u64(key)
    shape = np.broadcast_shapes(np.shape(c0), np.shape(c1), np.shape(k))
    work = Workspace() if work is None else work
    x0, x1, hi, lo, t, u = (work.array(name, shape)
                            for name in ("x0", "x1", "hi", "lo", "t", "u"))
    if rounds == 0:
        x0[...] = c0
        x1[...] = c1
        return x0[()], x1[()]
    # Round 1 in the leading elements of the same buffers: b (in x0) is
    # spent by _mulhilo before x0 is written, and h, l are read before
    # round 2 writes hi, lo.
    b, h, l, s, v = (work.array(name, np.shape(c0))
                     for name in ("x0", "hi", "lo", "t", "u"))
    b[...] = c0
    kr = work.array("key", np.shape(k))
    with np.errstate(over="ignore"):
        _mulhilo(b, h, l, s, v)
        np.bitwise_xor(h, c1, out=x0)
        np.bitwise_xor(x0, k, out=x0)
        x1[...] = l
        np.add(k, _PHILOX_W, out=kr)
        for _ in range(rounds - 1):
            _mulhilo(x0, hi, lo, t, u)
            np.bitwise_xor(hi, x1, out=hi)
            np.bitwise_xor(hi, kr, out=hi)
            x0, x1, hi, lo = hi, lo, x0, x1
            np.add(kr, _PHILOX_W, out=kr)
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


def derive_key(seed, salt=0):
    """Injective-per-salt key derivation: mix64(seed + (salt+1)*W).

    For a fixed seed the map salt -> key is injective on [0, 2**64), so
    replica substreams never collide.
    """
    with np.errstate(over="ignore"):
        s = _as_u64(seed) + (_as_u64(salt) + np.uint64(1)) * _PHILOX_W
    return mix64(s)


def _truncated(lib):
    """True when lib is a 64-bit ELF file (the kernel's __int128 needs a
    64-bit target) that ends before its section header table, which the
    linker writes last.  dlopen would map such a file and die of SIGBUS on
    the missing pages instead of failing.  Other files are left to the
    loader, which refuses them."""
    with open(lib, "rb") as f:
        head = f.read(64)
        size = os.fstat(f.fileno()).st_size
    if len(head) < 64 or head[:5] != b"\x7fELF\x02":
        return False
    order = "<" if head[5] == 1 else ">"
    shoff, = struct.unpack_from(order + "Q", head, 0x28)
    entsize, count = struct.unpack_from(order + "HH", head, 0x3A)
    return size < shoff + entsize * count


def _build(source, cache):
    """The library compiled from source, with the argument types of its
    mann_tile set, loaded from cache or compiled into it first; None when
    any step fails.  The compiler writes a temporary file that os.replace
    then moves into place, so a concurrent process never loads a
    half-written library, and no temporary file is left behind."""
    try:
        text = source.read_bytes()
        recipe = "\0".join((_CC, *_FLAGS, sysconfig.get_platform()))
        digest = hashlib.sha256(text + b"\0" + recipe.encode()).hexdigest()
        lib = cache / f"philox.{digest[:16]}.so"
        if not lib.exists():
            cache.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=lib.name + ".", dir=cache)
            os.close(fd)
            try:
                subprocess.run([_CC, *_FLAGS, str(source), "-o", tmp],
                               stdin=subprocess.DEVNULL, capture_output=True,
                               check=True, timeout=_COMPILE_SECONDS)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        if _truncated(lib):
            return None
        lib = ctypes.CDLL(str(lib))
        tile = lib.mann_tile
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    size, ptr, f64 = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
    tile.argtypes = (ptr, size, size, size, ctypes.c_int, f64, ptr, ctypes.c_int,
                     ptr, ptr, f64, ptr, ptr, ptr, ctypes.c_uint64, size)
    tile.restype = size
    return lib


@functools.cache
def tile_library():
    """The compiled library of philox.c, or None where it cannot be compiled
    or loaded; resolved once per process, on the first call.

    Its one export, mann_tile, steps whole noise tiles for schemes.advance,
    which checks it per map and noise family before it uses it.  A process
    that forks workers calls this first, so that they inherit the loaded
    library.
    """
    return _build(_SOURCE, _CACHE)


_NDTRI_SIGNATURE = b"double (double, int __pyx_skip_dispatch)"


@functools.cache
def ndtri_function():
    """The address of scipy's own ndtri as a C function double (double,
    int), called with 0 for its dispatch flag, or None where
    scipy.special.cython_special does not export it so; resolved once per
    process, on the first call.  Only Gaussian noise tiles need it, so only
    they load cython_special."""
    try:
        from scipy.special import cython_special
        capsule = cython_special.__pyx_capi__["ndtri"]
    except (ImportError, AttributeError, KeyError):
        return None
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    if name(capsule) != _NDTRI_SIGNATURE:
        return None
    return pointer(capsule, _NDTRI_SIGNATURE)


def substream_uniforms(key, index, count, work=None):
    """``count`` uniforms on (0,1) from substream (key, index).

    key and index may be scalars or arrays (they broadcast); the result has
    the broadcast shape plus a trailing axis of length ``count``.  Entry j
    depends only on (key, index, j): the counter word c1 carries the index,
    c0 enumerates output blocks of two.  The result is a view of a
    (count,) + shape array, not C-contiguous: the last axis of the broadcast
    shape is the contiguous one, so it is the inner loop of every pass.
    With a Workspace that array is in it, overwritten by the next call with
    the same workspace.
    """
    count = check_number(count, "count", integer=True, minimum=0)
    shape = np.broadcast_shapes(np.shape(key), np.shape(index))
    work = Workspace() if work is None else work
    out = work.array("unit", (count,) + shape, np.float64)
    nblocks = (count + 1) // 2
    c0 = np.arange(nblocks, dtype=np.uint64).reshape((nblocks,) + (1,) * len(shape))
    x0, x1 = philox2x64(c0, index, key, work=work)
    # words x0, x1 of block b are uniforms 2b and 2b + 1 (the last x1 unused
    # when count is odd), ((x >> 11) + 0.5) * 2**-53: on (0, 1), symmetric
    # around 1/2
    for x, rows in ((x0, out[0::2]), (x1[:count // 2], out[1::2])):
        np.right_shift(x, np.uint64(11), out=x)
        rows[...] = x
    np.add(out, 0.5, out=out)
    np.multiply(out, 2.0**-53, out=out)
    # np.moveaxis(out, 0, -1) without its ~5 us of axis normalisation
    return out.transpose(tuple(range(1, out.ndim)) + (0,))


def substream_normals(key, index, count):
    """Standard normal variates via the inverse CDF; same stream layout
    as substream_uniforms, so the draws stay pure in (key, index, j)."""
    u = substream_uniforms(key, index, count)
    return ndtri(u, out=u)
