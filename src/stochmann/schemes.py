"""Mann's iteration with functional random errors.

The package's one update rule, the scheme kind "stochastic_mann":

    x' = (1 - a_n) x + a_n F(x) + b_n xi_n,     a_n = a/n, b_n = a/n^2

With zero noise (noise.zero()) it is the plain Mann iteration.

Iterates are indexed from 1 with x_1 the user's initial point, so the step
counter n in the update rule and in the error bounds line up index for
index.  The update rule steps batched states of shape (..., d), or a float
for a single state on the line, with the same bits for either.

advance(), the one time loop, steps a whole noise tile per call of
mann_tile in philox.c: draws, noise transform and update in one C call,
rounding as numpy does.  tile_library compiles it with the system's C
compiler on the first stepped tile in a process, into __pycache__/ beside
this file.  advance's numpy body, which goes through the update rule above,
is the reference that each family's tile is checked against on first use,
and the path wherever the library cannot be built or fails that check.
rows_at(), advance()'s only consumer, walks it once, split over threads
where the replicas are many, and fills arrays with the rows asked for;
run(), the CLI and the Monte Carlo harness read through it.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
import os
import struct
import subprocess
import sysconfig
import tempfile
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import _special
from . import noise as noise_mod
from .errors import DivergedError, ValidationError, check_number
from .spaces import (NORM_KINDS, MapSpec, affine, as_point, dimension,
                     eval_map, inverse_quadratic, map_function, norm,
                     scaled_cosine)
from .streams import check_seed, check_seeds, derive_key, sha256

SCHEME_KINDS = ("stochastic_mann",)

# Noise elements (replicas x steps x d) that advance() draws per tile:
# large enough to amortize a Philox call, small enough to stay in cache.
TILE_ELEMENTS = 2**14

# Replica-steps times d that each thread of rows_at gets at least: a worker
# thread costs ~0.2 ms to start and join, 2**19 replica-steps are 15-30 ms
# of serial work at d = 1 with the compiled tile, and chunks of 2**16
# gained less than the timing drift (2-core x86-64 VM).
SPLIT_ELEMENTS = 2**19

__all__ = ["SCHEME_KINDS", "TILE_ELEMENTS", "StepSequences", "SchemeConfig",
           "Trajectory", "step", "advance", "rows_at", "run"]


@dataclass(frozen=True)
class StepSequences:
    """Gain a of the damped step sequences a_n = a/n and b_n = a/n^2.

    The constraint 0 < a < 1 keeps every convex weight valid and puts the
    pair in the regime sum a_n = inf, sum a_n b_n < inf that the
    convergence analysis requires.
    """

    a: float = 0.5

    def __post_init__(self):
        check_number(self.a, "scheme.a", exclusive_min=0, exclusive_max=1)


@dataclass(frozen=True)
class SchemeConfig:
    """One run of the iteration, valid by construction.

    kind       the update rule, one of SCHEME_KINDS
    map_spec   the map F, a spaces.MapSpec
    x0         the initial point x_1, a read-only (d,) float copy
    noise      the error model, a NoiseModel of the map's dimension d
    steps      the gains a_n = a/n and b_n = a/n^2
    horizon    the number of steps, >= 1
    seed       the 64-bit stream key of a single run
    norm_kind  the norm of errors and noise, one of spaces.NORM_KINDS

    A bad field raises ValidationError naming scheme.<field>.
    """

    kind: str
    map_spec: object
    x0: np.ndarray
    noise: noise_mod.NoiseModel  # zero() for the plain Mann iteration
    steps: StepSequences = field(default_factory=StepSequences)
    horizon: int = 1000
    seed: int = 0
    norm_kind: str = "euclidean"

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValidationError(f"scheme.kind: unknown kind {self.kind!r}")
        if not isinstance(self.map_spec, MapSpec):
            raise ValidationError("scheme.map_spec: must be a MapSpec")
        d = dimension(self.map_spec)
        object.__setattr__(self, "x0", as_point(self.x0, d, name="scheme.x0"))
        object.__setattr__(self, "horizon", check_number(
            self.horizon, "scheme.horizon", integer=True, minimum=1))
        object.__setattr__(self, "seed", check_seed(self.seed, "scheme.seed"))
        if not isinstance(self.noise, noise_mod.NoiseModel):
            raise ValidationError("scheme.noise: must be a NoiseModel")
        if self.noise.dim != d:
            raise ValidationError(
                f"scheme.noise: model dimension {self.noise.dim} != map dimension {d}")
        if not isinstance(self.steps, StepSequences):
            raise ValidationError("scheme.steps: must be a StepSequences")
        if self.norm_kind not in NORM_KINDS:
            raise ValidationError(f"scheme.norm_kind: unknown norm kind {self.norm_kind!r}")


@dataclass(frozen=True)
class Trajectory:
    """Realized path of one run.

    iterates      (horizon+1, d); row k holds x_{k+1}, i.e. row 0 is the
                  initial point x_1 and row `horizon` is x_{horizon+1}
    noise_norms   (horizon,); ||xi_n|| for n = 1..horizon, the draws
                  themselves are not kept
    errors_to_ref (horizon+1,) distances ||x_n - x*|| when a reference
                  point was supplied, else None
    """

    iterates: np.ndarray
    noise_norms: np.ndarray
    errors_to_ref: np.ndarray | None
    norm_kind: str

    def _index(self, n):
        return check_number(n, "iterate index", integer=True, minimum=1,
                            maximum=self.iterates.shape[0]) - 1

    def iterate(self, n):
        """x_n with the 1-based indexing of the analysis (x_1 = initial)."""
        return self.iterates[self._index(n)]

    def error(self, n):
        if self.errors_to_ref is None:
            raise ValidationError("trajectory has no reference errors")
        return float(self.errors_to_ref[self._index(n)])

    def __len__(self):
        return self.iterates.shape[0]


def _update(cfg, F):
    """The update rule as a function (x, n, xi) -> x_{n+1}, with cfg's gain
    and the map F bound once; the one copy of the rule."""
    a = cfg.steps.a

    def stochastic_mann(x, n, xi):
        a_n = a / n
        return (1.0 - a_n) * x + a_n * F(x) + a / (n * n) * xi
    return stochastic_mann


def step(kind, x, n, cfg, noise_draw):
    """One update x_{n+1} from x_n = x at 1-based step index n.

    x has shape (..., d), leading batch axes allowed; all arithmetic is
    elementwise, so a batched call agrees bitwise with per-row calls.
    noise_draw is xi_n, shaped like x, and required: every step adds
    b_n * xi_n (pass zeros for the plain Mann step).  Each evaluation of the
    map goes through the validating eval_map.
    """
    if kind not in SCHEME_KINDS:
        raise ValidationError(f"scheme.kind: unknown kind {kind!r}")
    n = check_number(n, "n", integer=True, minimum=1)
    return _update(cfg, partial(eval_map, cfg.map_spec))(x, n, noise_draw)


def advance(cfg, seeds, horizon):
    """The package's only time loop: one replica per seed, from x_1 = cfg.x0.

    Yields one (start, X, xi) per noise tile of T = max(1, TILE_ELEMENTS //
    (R*d)) steps, only the last tile shorter: X[k] is the state x_{n+1} after
    step n = start + k and xi[k] that step's noise, both (T, R, d).  They are
    replica-innermost views of (d, T, R) buffers, not C-contiguous, that this
    call allocates once and the next tile may overwrite: copy to keep them.
    Replica r draws from the substream (seeds[r], n), seeds a nonempty 1-D
    array of integers in [0, 2**64); cfg.seed is ignored.
    Each tile is one call of the compiled mann_tile where tile_kernel(cfg, R)
    provides it, and goes through the update rule that step() uses
    otherwise, with the same bits.  All arithmetic is elementwise, so row r
    is bitwise the run under seeds[r] for any R and any layout.  A
    non-finite state raises DivergedError at its step, naming the offending
    replicas.  The arguments are checked on the call, not at the first tile.
    """
    seeds = check_replica_seeds(seeds)
    horizon = check_number(horizon, "horizon", integer=True, minimum=1)
    R, d = seeds.shape[0], dimension(cfg.map_spec)
    tile_steps = max(1, TILE_ELEMENTS // (R * d))
    states = np.empty((d, tile_steps, R), dtype=np.float64)
    kernel = tile_kernel(cfg, R)
    step_tile = (_numpy_tiles(cfg, seeds, states) if kernel is None
                 else _kernel_tiles(cfg, seeds, states, kernel))
    return _tiles(step_tile, states, horizon)


def _tiles(step_tile, states, horizon):
    """advance's generator: step_tile over the horizon, a tile at a time."""
    for start in range(1, horizon + 1, states.shape[1]):
        T = min(states.shape[1], horizon + 1 - start)
        yield start, states[:, :T].transpose(1, 2, 0), step_tile(start, T)


def rows_at(cfg, seeds, steps, noise_steps=()):
    """The states after `steps` and the noise of `noise_steps`, both
    nondecreasing, from one walk of advance(cfg, seeds, max step or 1).

    Returns C-ordered arrays: states (len(steps), R, d), where step 0 gives
    x_1 = cfg.x0, and noises (len(noise_steps), R, d), steps >= 1.  Besides
    them the walk holds one tile per thread, whatever the horizon.

    The replicas split into K contiguous chunks, K the most threads that
    exceeds neither the cores this process may use (`taskset` limits them)
    nor R and gives each at least SPLIT_ELEMENTS replica-steps times d.
    Threads overlap only in the compiled tile, which releases the GIL, so K
    is 1 where tile_kernel gives none.  This thread walks the first chunk,
    workers the others, each into its own replica columns; row r depends on
    seeds[r] alone, so no byte depends on K.  When a chunk diverges, the
    workers finish and a serial walk raises the whole batch's DivergedError;
    a worker's other exception is raised once every worker has joined.
    """
    seeds = check_replica_seeds(seeds)
    steps, noise_steps = (check_seeds(steps, "steps"),
                          check_seeds(noise_steps, "noise_steps"))
    for v, path, lo in ((steps, "steps", 0), (noise_steps, "noise_steps", 1)):
        if v.ndim != 1 or (v[1:] < v[:-1]).any() or (v.size and v[0] < lo):
            raise ValidationError(f"{path}: must be nondecreasing, each >= {lo}")
    R, d = seeds.size, cfg.x0.shape[0]
    states, noises = (np.empty((v.size, R, d)) for v in (steps, noise_steps))
    horizon = max([1] + steps[-1:].tolist() + noise_steps[-1:].tolist())
    walk = partial(_walk, cfg, seeds, horizon, steps, noise_steps, states,
                   noises)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    K = min(cores, R, R * horizon * d // SPLIT_ELEMENTS)
    # every chunk size resolved here, before any thread starts
    if K > 1 and all(tile_kernel(cfg, n) is not None
                     for n in {R // K, -(-R // K)}):
        chunks = [slice(c[0], c[-1] + 1) for c in np.array_split(range(R), K)]
        failed = []  # raised once every worker has joined

        def work(chunk):
            try:
                walk(chunk)
            except Exception as e:
                failed.append(e)
        # each worker in a copy of this thread's context, np.errstate included
        workers = [threading.Thread(target=contextvars.copy_context().run,
                                    args=(work, c)) for c in chunks[1:]]
        for w in workers:
            w.start()
        try:
            work(chunks[0])
        finally:
            for w in workers:
                w.join()
        for e in failed:
            if not isinstance(e, DivergedError):
                raise e
        if not failed:
            return states, noises
    walk(slice(None))
    return states, noises


def _walk(cfg, seeds, horizon, steps, noise_steps, states, noises, chunk):
    """rows_at for the replicas of the slice chunk: one pass of advance,
    which copies from a tile only when it holds a step asked for.  The
    steps stay numpy arrays: tolist() costs ~5 ms per 10**5 uint64."""
    states, noises = states[:, chunk], noises[:, chunk]
    i, j = bisect_right(steps, 0), 0  # the next step and noise step
    states[:i] = cfg.x0  # step 0 draws no noise
    for start, X, xi in advance(cfg, seeds[chunk], horizon):
        stop = start + X.shape[0]
        if i < steps.size and steps[i] < stop:
            k = bisect_left(steps, stop, i)
            states[i:k] = X[steps[i:k] - start]
            i = k
        if j < noise_steps.size and noise_steps[j] < stop:
            k = bisect_left(noise_steps, stop, j)
            noises[j:k] = xi[noise_steps[j:k] - start]
            j = k
        del X, xi  # else this tile's noise stays live through the next draw


def check_replica_seeds(seeds):
    """seeds as a nonempty 1-D uint64 array (streams.check_seeds)."""
    seeds = check_seeds(seeds, "seeds")
    if seeds.ndim != 1 or seeds.size == 0:
        raise ValidationError("seeds: must be a nonempty 1-D array")
    return seeds


def _diverged(n, replicas):
    return DivergedError(f"{len(replicas)} replica(s) diverged at step {n}",
                         last_finite_index=n, replicas=replicas)


# steps per Python float list of _numpy_tiles' one-replica path: ~32 KB of
# floats, where a whole tile's list took ~0.5 MB
_SCALAR_CHUNK = 1024


def _numpy_tiles(cfg, seeds, states):
    """advance's numpy body, the reference for mann_tile: step_tile(start, T)
    fills states[:, :T] and returns the tile's noise.  One replica on the
    line (R*d == 1) steps as Python floats, the same arithmetic without
    numpy's per-call overhead, and is written to its tile a sub-chunk at a
    time; a batch writes each step's (R, d) state into the tile."""
    d, _, R = states.shape
    update = _update(cfg, map_function(cfg.map_spec))
    scalar = R * d == 1
    X = float(cfg.x0[0]) if scalar else np.repeat(cfg.x0[:, None], R, axis=1).T

    def step_tile(start, T):
        nonlocal X
        steps = np.arange(start, start + T, dtype=np.uint64)
        xi = noise_mod.sample_block(cfg.noise, d, seeds, steps[:, None])
        tile = states[:, :T].transpose(1, 2, 0)
        if scalar:
            # a sub-chunk of the noise at a time as a list of Python floats,
            # overwritten with the states as they come
            path, noise = tile[:, 0, 0], xi.reshape(-1)
            for lo in range(0, T, _SCALAR_CHUNK):
                xs, n = noise[lo:lo + _SCALAR_CHUNK].tolist(), start + lo
                for k in range(len(xs)):
                    X = update(X, n + k, xs[k])
                    if not math.isfinite(X):
                        raise _diverged(n + k, [0])
                    xs[k] = X
                path[lo:lo + len(xs)] = xs
        else:
            for k in range(T):
                X = update(X, start + k, xi[k])
                if not np.isfinite(X).all():
                    bad = np.flatnonzero(~np.isfinite(X).all(axis=-1))
                    raise _diverged(start + k, bad.tolist())
                tile[k] = X
        return xi
    return step_tile


# mann_tile's codes for the maps and noise families it steps
_MAP_CODES = {"inverse_quadratic": 0, "affine": 1, "scaled_cosine": 2}
_NOISE_CODES = {"zero": 0, "gaussian": 1, "bounded_uniform": 2}


def _kernel_tiles(cfg, seeds, states, kernel):
    """step_tile(start, T) of _numpy_tiles as one mann_tile call, with the
    keys derived and every pointer resolved once."""
    d, tile_steps, R = states.shape
    m, noise = cfg.map_spec, cfg.noise
    x = np.repeat(cfg.x0[:, None], R, axis=1)  # (d, R), C-ordered
    xis = np.empty_like(states)
    A, b = ((m.matrix, m.offset) if m.family == "affine" else
            (None, np.float64([m.lam])) if m.family == "scaled_cosine"
            else (None, None))  # the cosine's gain goes as b[0]
    param = {"gaussian": noise.scale,
             "bounded_uniform": noise.half_width}.get(noise.family, 0.0)
    # data_as pointers keep their arrays alive as long as the closure lives
    keys_p, x_p, X_p, xi_p, A_p, b_p = (
        None if v is None
        else np.ascontiguousarray(v).ctypes.data_as(ctypes.c_void_p)
        for v in (derive_key(seeds), x, states, xis, A, b))
    args = (keys_p, R, d, tile_steps * R, _NOISE_CODES[noise.family], param,
            _MAP_CODES[m.family], A_p, b_p, cfg.steps.a, x_p, X_p, xi_p)

    def step_tile(start, T):
        k = kernel(*args, start, T)
        if k < T:
            bad = np.flatnonzero(~np.isfinite(states[:, k]).all(axis=0))
            raise _diverged(start + k, bad.tolist())
        return xis[:, :T].transpose(1, 2, 0)
    return step_tile


# The library's source and build: a library file per (source, compiler,
# flags, platform), so a stale build is never loaded.
_SOURCE = Path(__file__).with_name("philox.c")
_CACHE = _SOURCE.parent / "__pycache__"
_CC = "cc"
# -falign-loops: unaligned, philox.c's d = 8 affine loop ran 30-45% slower
_FLAGS = ("-O1", "-falign-loops=32", "-fPIC", "-shared", "-ffp-contract=off")
_LIBS = ("-lm",)  # after the source, for linkers that drop unused libraries
_COMPILE_SECONDS = 60


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
    mann_tile (in _kernel_tiles' order) and ndtri_many set, loaded from
    cache or compiled into it first; None when any step fails.  The
    compiler writes a temporary file that os.replace then moves into place,
    so a concurrent process never loads a half-written library, and no
    temporary file is left behind.  A new build removes, as far as it can,
    the other philox.*.so in cache: the builds of an earlier source,
    compiler, flags or platform."""
    try:
        text = source.read_bytes()
        recipe = "\0".join((_CC, *_FLAGS, *_LIBS, sysconfig.get_platform()))
        digest = sha256(text + b"\0" + recipe.encode()).hexdigest()
        lib = cache / f"philox.{digest[:16]}.so"
        if not lib.exists():
            cache.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=lib.name + ".", dir=cache)
            os.close(fd)
            try:
                subprocess.run([_CC, *_FLAGS, str(source), "-o", tmp,
                                *_LIBS], stdin=subprocess.DEVNULL,
                               capture_output=True, check=True,
                               timeout=_COMPILE_SECONDS)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            for stale in set(cache.glob("philox.*.so")) - {lib}:
                with contextlib.suppress(OSError):
                    stale.unlink()
        if _truncated(lib):
            return None
        lib = ctypes.CDLL(str(lib))
        tile, ndtri = lib.mann_tile, lib.ndtri_many
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    size, ptr, f64 = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
    tile.argtypes = (ptr, size, size, size, ctypes.c_int, f64, ctypes.c_int,
                     ptr, ptr, f64, ptr, ptr, ptr, ctypes.c_uint64, size)
    tile.restype = size
    ndtri.argtypes, ndtri.restype = (ptr, size, ptr), None
    return lib


@functools.cache
def tile_library():
    """The compiled library of philox.c, or None where it cannot be compiled
    or loaded; resolved once per process, on the first call.  Its
    ndtri_many runs the ndtri port alone, for tile_kernel's check."""
    return _build(_SOURCE, _CACHE)


def tile_kernel(cfg, replicas=1):
    """mann_tile for tiles of cfg's map and noise family with this many
    replicas, or None where advance steps in numpy: no compiled library, or
    a kernel whose tile differs from the numpy body's (libm's cos, say,
    rounding unlike numpy's), or for Gaussian noise whose ndtri port differs
    from scipy's.  Resolved once per process, family and class of tile: one
    replica on the line, or a batch."""
    lib = tile_library()
    return None if lib is None else _checked_kernel(
        lib, cfg.map_spec.family, cfg.noise.family,
        "line" if replicas * cfg.x0.shape[0] == 1 else "batch")


def _ndtri_port_exact(lib):
    """Whether philox.c's ndtri gives the ndtri ufunc's bits on its edges:
    the branch points exp(-32) and exp(-2) and the mirror 1 - exp(-2), each
    +-1 ulp, and the smallest and largest uniforms, 2**-54 and 1 - 2**-53,
    the ends of the port's domain.  2**-54 takes the x >= 8 branch, which
    Philox draws with probability ~1e-14.  ndtri_many runs them as Gaussian
    tiles do: the grid, padded to 16 values, whole, so that every value
    lands in a vector lane where the CPU has them, and each value alone,
    which the scalar port finishes.
    (The grid is built here, not on import: a module-level array moved
    confidence's peak RSS by ~0.15 MB.)"""
    u = np.array([v for c in (math.exp(-32.0), math.exp(-2.0),
                              1.0 - math.exp(-2.0))
                  for v in (math.nextafter(c, 0.0), c, math.nextafter(c, 1.0))]
                 + [2.0**-54, 0.5, 1.0 - 2.0**-53, 0.25, 0.75, 0.01, 0.99])
    out = np.empty((2, u.size))
    lib.ndtri_many(u.ctypes.data, u.size, out.ctypes.data)
    for e in range(u.size):
        lib.ndtri_many(u[e:].ctypes.data, 1, out[1, e:].ctypes.data)
    return out.tobytes() == np.tile(_special.ndtri(u), 2).tobytes()


@functools.cache
def _checked_kernel(lib, map_family, noise_family, tiles):
    """tile_kernel after its known-answer check: one small tile of the
    family must equal the numpy body's bit for bit, and for Gaussian noise
    so must ndtri on its edges.  The tile of each class runs both its vector
    lanes and its scalar remainders.  "line": 1 replica at d = 1 for 41
    steps, which the numpy body steps as floats, one 32-step Philox block,
    five 8-element ndtri blocks and the steps past them.  "batch": 41
    replicas for 7 steps (d = 3 for the affine map), a 32-replica Philox
    block, 8-replica update blocks and 8-element ndtri blocks, each with a
    remainder (7 * 41 is odd); a batch of fewer replicas runs a subset of
    these.  Zero noise keeps the replicas together, so the steps are what
    catch a contracted multiply-add: 4 steps already catch an FMA build."""
    if noise_family == "gaussian" and not _ndtri_port_exact(lib):
        return None
    # the family's map alone: affine()'s norm through LAPACK costs ~1 MB RSS
    m = (affine([[0.3]], [0.5]) if map_family == "affine" and tiles == "line"
         else affine([[0.3, -0.2, 0.1], [0.1, 0.4, -0.3], [0.05, 0.2, 0.25]],
                     [0.5, -1.0, 0.25]) if map_family == "affine"
         else scaled_cosine(0.8) if map_family == "scaled_cosine"
         else inverse_quadratic())
    d = dimension(m)
    param = {"gaussian": {"scale": 2.0},
             "bounded_uniform": {"half_width": 1.5}}.get(noise_family, {})
    cfg = SchemeConfig(kind="stochastic_mann", map_spec=m,
                       x0=np.linspace(-0.5, 1.0, d),
                       noise=noise_mod.NoiseModel(noise_family, d, **param),
                       steps=StepSequences(a=0.7))
    R, T = (1, 41) if tiles == "line" else (41, 7)
    seeds = np.arange(2**64 - R, 2**64, dtype=np.uint64)
    out = []
    for body in (_numpy_tiles, partial(_kernel_tiles, kernel=lib.mann_tile)):
        states = np.empty((d, T, R))
        xi = body(cfg, seeds, states)(1, T)
        out.append(states.tobytes() + xi.tobytes())
    return lib.mann_tile if out[0] == out[1] else None


def run(cfg, x_star=None):
    """Run the configured scheme for cfg.horizon steps and keep the whole
    path, for library use: rows_at() with the one replica cfg.seed at every
    step, holding the (horizon, d) noise rows until their norms are taken.
    Identical configs give bitwise identical trajectories.  A non-finite
    iterate raises DivergedError carrying the last finite 1-based iterate
    index.
    """
    if x_star is not None:
        x_star = as_point(x_star, dimension(cfg.map_spec), name="x_star")
    every = np.arange(cfg.horizon + 1, dtype=np.uint64)
    iterates, noises = rows_at(cfg, [cfg.seed], every, every[1:])
    noise_norms = norm(noises[:, 0], cfg.norm_kind)
    del noises
    iterates = iterates[:, 0]
    return Trajectory(
        iterates=iterates, noise_norms=noise_norms, norm_kind=cfg.norm_kind,
        errors_to_ref=(None if x_star is None
                       else norm(iterates - x_star, cfg.norm_kind)))
