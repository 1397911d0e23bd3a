"""Mann's iteration with functional random errors.

The package's one update rule, the scheme kind "stochastic_mann":

    x' = (1 - a_n) x + a_n F(x) + b_n xi_n,     a_n = a/n, b_n = a/n^2

With zero noise (noise.zero()) it is the plain Mann iteration.

Iterates are indexed from 1 with x_1 the user's initial point, so the step
counter n in the update rule and in the error bounds line up index for
index.  step() accepts batched states of shape (..., d), or a float for a
single state on the line, and is bitwise consistent between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import noise as noise_mod
from .errors import DivergedError, ValidationError, check_number
from .spaces import as_point, dimension, eval_map, map_function, norm
from .streams import Workspace, check_seed, derive_key

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
    noise_norms   (horizon,); ||xi_n|| for n = 1..horizon
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

    Yields (n, X, xi) after step n: X is the state x_{n+1} and xi the noise
    of step n.  Both are (R, d) arrays, except for one replica on the line
    (R*d == 1), which is stepped and yielded as Python floats: the same
    arithmetic without numpy's per-call overhead, bitwise equal to the array
    path.  Both bodies call the update rule that step() uses, resolved once
    per call.  The arrays are stored replica-innermost, as views of (d, R) memory, so every ufunc
    pass loops over the replicas; they are not C-contiguous.  Replica r
    draws from the substream (seeds[r], n), in (T x R) tiles of about
    TILE_ELEMENTS values, stored (d, T, R); cfg.seed is ignored.  The tiles
    reuse buffers that this call allocates once, so an array xi is a view
    that the next tile overwrites: copy it to keep it.  All arithmetic is
    elementwise, so row r is bitwise the run under seeds[r] for any R and
    any layout.  A non-finite state raises DivergedError naming the
    offending replicas.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    d = dimension(cfg.map_spec)
    update = _update(cfg, map_function(cfg.map_spec))
    keys = derive_key(seeds)  # SchemeConfig checked the noise dimension
    work = Workspace()
    scalar = seeds.shape[0] * d == 1
    X = float(cfg.x0[0]) if scalar else np.repeat(
        cfg.x0[:, None], seeds.shape[0], axis=1).T
    tile_steps = max(1, TILE_ELEMENTS // (seeds.shape[0] * d))
    for start in range(1, horizon + 1, tile_steps):
        stop = min(start + tile_steps, horizon + 1)
        tile = noise_mod.sample_keyed(  # logically (T, R, d)
            cfg.noise, keys, np.arange(start, stop, dtype=np.uint64)[:, None],
            work)
        if scalar:
            for n, xi in zip(range(start, stop), tile.reshape(-1).tolist()):
                X = update(X, n, xi)
                if not math.isfinite(X):
                    raise DivergedError(f"1 replica(s) diverged at step {n}",
                                        last_finite_index=n, replicas=[0])
                yield n, X, xi
            continue
        for n in range(start, stop):
            xi = tile[n - start]
            X = update(X, n, xi)
            if not np.isfinite(X).all():
                bad = np.flatnonzero(~np.isfinite(X).all(axis=-1))
                raise DivergedError(f"{bad.size} replica(s) diverged at step {n}",
                                    last_finite_index=n, replicas=bad.tolist())
            yield n, X, xi


def run(cfg, x_star=None):
    """Run the configured scheme for cfg.horizon steps.

    Noise draws come from the substream (cfg.seed, n), so the trajectory is
    a pure function of the config; identical configs give bitwise identical
    trajectories.  A non-finite iterate raises DivergedError carrying the
    last finite 1-based iterate index.
    """
    d = dimension(cfg.map_spec)
    iterates = np.empty((cfg.horizon + 1, d), dtype=np.float64)
    iterates[0] = cfg.x0
    draws = np.empty((cfg.horizon, d), dtype=np.float64)
    # one replica: advance yields floats at d = 1, written through memoryviews
    # (cheaper than numpy item assignment), and (1, d) rows otherwise
    rows, draw_rows = ((memoryview(iterates[:, 0]), memoryview(draws[:, 0]))
                       if d == 1 else (iterates, draws))
    for n, X, xi in advance(cfg, [cfg.seed], cfg.horizon):
        rows[n] = X
        draw_rows[n - 1] = xi
    errors = None
    if x_star is not None:
        x_star = as_point(x_star, d, name="x_star")
        errors = norm(iterates - x_star, cfg.norm_kind)
    return Trajectory(iterates=iterates, noise_norms=norm(draws, cfg.norm_kind),
                      errors_to_ref=errors, norm_kind=cfg.norm_kind)
