"""Mann's iteration with functional random errors.

The package's one update rule, the scheme kind "stochastic_mann":

    x' = (1 - a_n) x + a_n F(x) + b_n xi_n,     a_n = a/n, b_n = a/n^2

With zero noise (noise.zero()) it is the plain Mann iteration.

Iterates are indexed from 1 with x_1 the user's initial point, so the step
counter n in the update rule and in the error bounds line up index for
index.  step() accepts batched states of shape (..., d), or a float for a
single state on the line, and is bitwise consistent between them.

advance(), the one time loop, steps a whole noise tile per call of
mann_tile in philox.c: draws, noise transform and update in one C call,
rounding as numpy does.  Its numpy body, which goes through the update rule
above, is the reference that the compiled tile is checked against on first
use, and the path for the scaled cosine map and wherever the library cannot
be built or fails that check.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import noise as noise_mod
from . import streams
from .errors import DivergedError, ValidationError, check_number
from .spaces import (affine, as_point, dimension, eval_map, inverse_quadratic,
                     map_function, norm)
from .streams import Workspace, check_seed, check_seeds, derive_key

SCHEME_KINDS = ("stochastic_mann",)

# Noise elements (replicas x steps x d) that advance() draws per tile:
# large enough to amortize a Philox call, small enough to stay in cache.
TILE_ELEMENTS = 2**14

__all__ = ["SCHEME_KINDS", "TILE_ELEMENTS", "StepSequences", "SchemeConfig",
           "Trajectory", "step", "advance", "run"]


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


def step(kind, x, n, cfg, noise_draw, F=None):
    """One update x_{n+1} from x_n = x at 1-based step index n.

    x may carry leading batch axes, or be a float when d = 1; all arithmetic
    is elementwise, so a batched call agrees bitwise with per-element calls.
    noise_draw is xi_n, shaped like x, and required: every step adds
    b_n * xi_n (pass zeros for the plain Mann step).  F is the map as
    map_function returns it; without it, each evaluation goes through the
    validating eval_map.
    """
    if kind not in SCHEME_KINDS:
        raise ValidationError(f"scheme.kind: unknown kind {kind!r}")
    n = check_number(n, "n", integer=True, minimum=1)
    if F is None:
        F = partial(eval_map, cfg.map_spec)
    return _update(cfg, F)(x, n, noise_draw)


def advance(cfg, seeds, horizon):
    """The package's only time loop: one replica per seed, from x_1 = cfg.x0.

    Yields one (start, X, xi) per noise tile of T = max(1, TILE_ELEMENTS //
    (R*d)) steps, only the last tile shorter: X[k] is the state x_{n+1} after
    step n = start + k and xi[k] that step's noise, both (T, R, d).  They are
    replica-innermost views of (d, T, R) buffers, not C-contiguous, that this
    call allocates once and the next tile overwrites: copy them to keep them.
    Replica r draws from the substream (seeds[r], n), seeds a nonempty 1-D
    array of integers in [0, 2**64); cfg.seed is ignored.
    Each tile is one call of the compiled mann_tile where tile_kernel(cfg)
    provides it, and goes through the update rule that step() uses
    otherwise, with the same bits.  All arithmetic is elementwise, so row r
    is bitwise the run under seeds[r] for any R and any layout.  A
    non-finite state raises DivergedError at its step, naming the offending
    replicas.
    """
    seeds = check_replica_seeds(seeds)
    R, d = seeds.shape[0], dimension(cfg.map_spec)
    keys = derive_key(seeds)  # SchemeConfig checked the noise dimension
    tile_steps = max(1, TILE_ELEMENTS // (R * d))
    states = np.empty((d, tile_steps, R), dtype=np.float64)
    kernel = tile_kernel(cfg)
    step_tile = (_numpy_tiles(cfg, keys, states) if kernel is None
                 else _kernel_tiles(cfg, keys, states, *kernel))
    for start in range(1, horizon + 1, tile_steps):
        T = min(tile_steps, horizon + 1 - start)
        xi = step_tile(start, T)
        yield start, states[:, :T].transpose(1, 2, 0), xi


def check_replica_seeds(seeds):
    """seeds as a nonempty 1-D uint64 array (streams.check_seeds)."""
    seeds = check_seeds(seeds, "seeds")
    if seeds.ndim != 1 or seeds.size == 0:
        raise ValidationError("seeds: must be a nonempty 1-D array")
    return seeds


def _diverged(n, replicas):
    return DivergedError(f"{len(replicas)} replica(s) diverged at step {n}",
                         last_finite_index=n, replicas=replicas)


def _numpy_tiles(cfg, keys, states):
    """advance's numpy body, the reference for mann_tile: step_tile(start, T)
    fills states[:, :T] and returns the tile's noise.  One replica on the
    line (R*d == 1) steps as Python floats, the same arithmetic without
    numpy's per-call overhead, and is written to its tile once; a batch
    writes each step's (R, d) state into the tile."""
    d, _, R = states.shape
    update = _update(cfg, map_function(cfg.map_spec))
    work = Workspace()
    scalar = R * d == 1
    X = float(cfg.x0[0]) if scalar else np.repeat(cfg.x0[:, None], R, axis=1).T

    def step_tile(start, T):
        nonlocal X
        steps = np.arange(start, start + T, dtype=np.uint64)
        xi = noise_mod.sample_keyed(cfg.noise, keys, steps[:, None], work)
        tile = states[:, :T].transpose(1, 2, 0)
        if scalar:
            # the noise list is overwritten with the states as they come
            xs = xi.reshape(-1).tolist()
            for k in range(T):
                X = update(X, start + k, xs[k])
                if not math.isfinite(X):
                    raise _diverged(start + k, [0])
                xs[k] = X
            tile[:, 0, 0] = xs
            del xs  # free its floats before the next tile builds its list
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
_MAP_CODES = {"inverse_quadratic": 0, "affine": 1}
_NOISE_CODES = {"zero": 0, "gaussian": 1, "bounded_uniform": 2}


def _kernel_tiles(cfg, keys, states, kernel, ndtri):
    """step_tile(start, T) of _numpy_tiles as one mann_tile call, with every
    pointer resolved once."""
    d, tile_steps, R = states.shape
    m, noise = cfg.map_spec, cfg.noise
    x = np.repeat(cfg.x0[:, None], R, axis=1)  # (d, R), C-ordered
    xis = np.empty_like(states)
    A, b = ((np.ascontiguousarray(m.matrix), np.ascontiguousarray(m.offset))
            if m.family == "affine" else (None, None))
    param = {"gaussian": noise.scale,
             "bounded_uniform": noise.half_width}.get(noise.family, 0.0)
    # data_as pointers keep their arrays alive as long as the closure lives
    keys_p, x_p, X_p, xi_p, A_p, b_p = (
        None if v is None else v.ctypes.data_as(ctypes.c_void_p)
        for v in (np.ascontiguousarray(keys), x, states, xis, A, b))
    args = (keys_p, R, d, tile_steps * R, _NOISE_CODES[noise.family], param,
            ndtri, _MAP_CODES[m.family], A_p, b_p, cfg.steps.a, x_p, X_p, xi_p)

    def step_tile(start, T):
        k = kernel(*args, start, T)
        if k < T:
            bad = np.flatnonzero(~np.isfinite(states[:, k]).all(axis=0))
            raise _diverged(start + k, bad.tolist())
        return xis[:, :T].transpose(1, 2, 0)
    return step_tile


def tile_kernel(cfg):
    """(mann_tile, ndtri address) for cfg's map and noise family, or None
    where advance steps in numpy: a scaled cosine map (numpy's cos may not
    round like libm's), no compiled library, no ndtri address for Gaussian
    noise, or a kernel whose tile differs from the numpy body's.  The last
    three are resolved once per process and family; a process that forks
    workers calls this first, so that they inherit what it resolved."""
    lib = streams.tile_library()
    if lib is None or cfg.map_spec.family not in _MAP_CODES:
        return None
    return _checked_kernel(lib, cfg.map_spec.family, cfg.noise.family)


@functools.cache
def _checked_kernel(lib, map_family, noise_family):
    """tile_kernel after its known-answer check: one small tile of the
    family, 8 replicas x 8 steps (in dimension 3 for the affine map), must
    equal the numpy body's bit for bit.  Zero noise keeps the replicas
    together, so the steps are what catch a contracted multiply-add: 4
    steps already catch an FMA build in every family."""
    ndtri = streams.ndtri_function() if noise_family == "gaussian" else None
    if noise_family == "gaussian" and ndtri is None:
        return None
    if map_family == "affine":
        m = affine([[0.3, -0.2, 0.1], [0.1, 0.4, -0.3], [0.05, 0.2, 0.25]],
                   [0.5, -1.0, 0.25])
    else:
        m = inverse_quadratic()
    d = dimension(m)
    param = {"gaussian": {"scale": 2.0},
             "bounded_uniform": {"half_width": 1.5}}.get(noise_family, {})
    cfg = SchemeConfig(kind="stochastic_mann", map_spec=m,
                       x0=np.linspace(-0.5, 1.0, d),
                       noise=noise_mod.NoiseModel(noise_family, d, **param),
                       steps=StepSequences(a=0.7))
    keys = derive_key(np.arange(2**64 - 8, 2**64, dtype=np.uint64))
    tiles = []
    for body in (_numpy_tiles, partial(_kernel_tiles, kernel=lib.mann_tile,
                                       ndtri=ndtri)):
        states = np.empty((d, 8, 8))
        xi = body(cfg, keys, states)(1, 8)
        tiles.append(states.tobytes() + xi.tobytes())
    return (lib.mann_tile, ndtri) if tiles[0] == tiles[1] else None


def run(cfg, x_star=None):
    """Run the configured scheme for cfg.horizon steps.

    Noise draws come from the substream (cfg.seed, n), so the trajectory is
    a pure function of the config; identical configs give bitwise identical
    trajectories.  It is advance() with one replica: each tile's states are
    stored into `iterates` as one slice, and the norms of its noise and of
    its errors are taken in one norm() call each, so no draw outlives its
    tile and no path-sized temporary is made.  A non-finite iterate raises
    DivergedError carrying the last finite 1-based iterate index.
    """
    d = dimension(cfg.map_spec)
    iterates = np.empty((cfg.horizon + 1, d), dtype=np.float64)
    iterates[0] = cfg.x0
    noise_norms = np.empty(cfg.horizon, dtype=np.float64)
    errors = None
    if x_star is not None:
        x_star = as_point(x_star, d, name="x_star")
        errors = np.empty(cfg.horizon + 1, dtype=np.float64)
        errors[0] = norm(cfg.x0 - x_star, cfg.norm_kind)
    for start, X, xi in advance(cfg, [cfg.seed], cfg.horizon):
        stop = start + X.shape[0]
        iterates[start:stop] = X[:, 0]
        noise_norms[start - 1:stop - 1] = norm(xi[:, 0], cfg.norm_kind)
        if errors is not None:
            errors[start:stop] = norm(X[:, 0] - x_star, cfg.norm_kind)
    return Trajectory(iterates=iterates, noise_norms=noise_norms,
                      errors_to_ref=errors, norm_kind=cfg.norm_kind)
