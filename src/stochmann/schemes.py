"""Fixed-point iteration schemes.

Five update rules on a common interface:

    picard          x' = F(x)
    krasnoselskii   x' = (F(x) + x)/2
    mann            x' = (1 - a_n) x + a_n F(x),          a_n = a/n
    ishikawa        y  = (1 - b_n) x + b_n F(x)
                    x' = (1 - a_n) x + a_n F(y),          a_n = a, b_n = g/(n+1)
    stochastic_mann x' = (1 - a_n) x + a_n F(x) + b_n xi_n,
                    a_n = a/n, b_n = a/n^2

Iterates are indexed from 1 with x_1 the user's initial point, so the step
counter n in the update rule and in the error bounds line up index for
index.  step() accepts batched states of shape (..., d), or a float for a
single state on the line, and is bitwise consistent between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat

import numpy as np

from . import noise as noise_mod
from .errors import DivergedError, ValidationError
from .spaces import as_point, dimension, eval_map, map_function, norm
from .streams import Workspace, derive_key

SCHEME_KINDS = ("picard", "krasnoselskii", "mann", "ishikawa", "stochastic_mann")

# Noise elements (replicas x steps x d) that advance() draws per tile:
# large enough to amortize a Philox call, small enough to stay in cache.
TILE_ELEMENTS = 2**14

__all__ = ["SCHEME_KINDS", "TILE_ELEMENTS", "StepSequences", "SchemeConfig",
           "Trajectory", "step_sizes", "step", "advance", "run"]


@dataclass(frozen=True)
class StepSequences:
    """Gain a of the damped step sequences a_n = a/n and b_n = a/n^2.

    The constraint 0 < a < 1 keeps every convex weight valid and puts the
    pair in the regime sum a_n = inf, sum a_n b_n < inf that the
    convergence analysis requires.
    """

    a: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.a) and 0.0 < self.a < 1.0):
            raise ValidationError("steps.a: must satisfy 0 < a < 1")


def step_sizes(steps, n):
    """(a_n, b_n) = (a/n, a/n^2) for 1-based step index n."""
    if n < 1:
        raise ValidationError("n: step index is 1-based")
    return steps.a / n, steps.a / (n * n)


@dataclass(frozen=True)
class SchemeConfig:
    kind: str
    map_spec: object
    x0: np.ndarray
    steps: StepSequences = field(default_factory=StepSequences)
    noise: object | None = None
    horizon: int = 1000
    seed: int = 0
    norm_kind: str = "euclidean"
    ishikawa_b: float = 1.0  # b_n = ishikawa_b/(n+1), keeps b_1 < 1

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValidationError(f"scheme.kind: unknown kind {self.kind!r}")
        d = dimension(self.map_spec)
        object.__setattr__(self, "x0", as_point(self.x0, d, name="scheme.x0"))
        if not (isinstance(self.horizon, (int, np.integer)) and self.horizon >= 1):
            raise ValidationError("scheme.horizon: must be an integer >= 1")
        if self.kind == "stochastic_mann":
            if self.noise is None:
                raise ValidationError(
                    "scheme.noise: required when scheme.kind == 'stochastic_mann'")
            if self.noise.dim != d:
                raise ValidationError(
                    f"scheme.noise: model dimension {self.noise.dim} != map dimension {d}")
        elif self.noise is not None:
            raise ValidationError("scheme.noise: only stochastic_mann takes a noise model")
        if self.kind == "ishikawa" and not (0.0 < self.ishikawa_b <= 1.0):
            raise ValidationError("scheme.ishikawa_b: must lie in (0, 1]")


@dataclass(frozen=True)
class Trajectory:
    """Realized path of one run.

    iterates      (horizon+1, d); row k holds x_{k+1}, i.e. row 0 is the
                  initial point x_1 and row `horizon` is x_{horizon+1}
    noise_norms   (horizon,); ||xi_n|| for n = 1..horizon, empty for
                  deterministic schemes
    errors_to_ref (horizon+1,) distances ||x_n - x*|| when a reference
                  point was supplied, else None
    """

    iterates: np.ndarray
    noise_norms: np.ndarray
    errors_to_ref: np.ndarray | None
    norm_kind: str

    def _index(self, n):
        if not 1 <= n <= self.iterates.shape[0]:
            raise ValidationError(
                f"iterate index {n} outside 1..{self.iterates.shape[0]}")
        return n - 1

    def iterate(self, n):
        """x_n with the 1-based indexing of the analysis (x_1 = initial)."""
        return self.iterates[self._index(n)]

    def error(self, n):
        if self.errors_to_ref is None:
            raise ValidationError("trajectory has no reference errors")
        return float(self.errors_to_ref[self._index(n)])

    def __len__(self):
        return self.iterates.shape[0]


def step(kind, x, n, cfg, noise_draw=None, F=None):
    """One update x_{n+1} from x_n = x at 1-based step index n.

    x may carry leading batch axes, or be a float when d = 1; all arithmetic
    is elementwise, so a batched call agrees bitwise with per-element calls.
    F is the map as spaces.map_function returns it; without it, each
    evaluation goes through the validating eval_map.
    """
    if F is None:
        F = partial(eval_map, cfg.map_spec)
    fx = F(x)
    if kind == "picard":
        return fx
    if kind == "krasnoselskii":
        return 0.5 * (fx + x)
    if kind == "mann":
        a_n, _ = step_sizes(cfg.steps, n)
        return (1.0 - a_n) * x + a_n * fx
    if kind == "stochastic_mann":
        a_n, b_n = step_sizes(cfg.steps, n)
        return (1.0 - a_n) * x + a_n * fx + b_n * noise_draw
    if kind == "ishikawa":
        b_n = cfg.ishikawa_b / (n + 1)
        a_n = cfg.steps.a
        y = (1.0 - b_n) * x + b_n * fx
        return (1.0 - a_n) * x + a_n * F(y)
    raise ValidationError(f"scheme.kind: unknown kind {kind!r}")


def advance(cfg, seeds, horizon):
    """The package's only time loop: one replica per seed, from x_1 = cfg.x0.

    Yields (n, X, xi) after step n: X is the state x_{n+1} and xi the noise
    of step n, None for deterministic schemes.  Both are (R, d) arrays,
    except for one replica on the line (R*d == 1), which is stepped and
    yielded as Python floats: the same step() arithmetic without numpy's
    per-call overhead, bitwise equal to the array path.  Replica r draws
    from the substream (seeds[r], n), in (R x T) tiles of about
    TILE_ELEMENTS values; cfg.seed is ignored.  The tiles reuse buffers
    that this call allocates once, so an array xi is a view that the next
    tile overwrites: copy it to keep it.  All arithmetic is elementwise,
    so row r is bitwise the run under seeds[r] for any R.  A non-finite
    state raises DivergedError naming the offending replicas.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)[:, None]
    d = dimension(cfg.map_spec)
    F = map_function(cfg.map_spec)
    kind = cfg.kind
    stochastic = kind == "stochastic_mann"
    if stochastic:  # SchemeConfig checked that the noise has dimension d
        keys = derive_key(seeds)
        work = Workspace()
    scalar = seeds.shape[0] * d == 1
    X = float(cfg.x0[0]) if scalar else np.tile(cfg.x0, (seeds.shape[0], 1))
    tile_steps = max(1, TILE_ELEMENTS // (seeds.shape[0] * d))
    for start in range(1, horizon + 1, tile_steps):
        stop = min(start + tile_steps, horizon + 1)
        if stochastic:
            tile = noise_mod.sample_keyed(
                cfg.noise, keys, np.arange(start, stop, dtype=np.uint64), work)
        if scalar:
            draws = tile.reshape(-1).tolist() if stochastic else repeat(None)
            for n, xi in zip(range(start, stop), draws):
                X = step(kind, X, n, cfg, xi, F)
                if not math.isfinite(X):
                    raise DivergedError(f"1 replica(s) diverged at step {n}",
                                        last_finite_index=n, replicas=[0])
                yield n, X, xi
            continue
        for n in range(start, stop):
            xi = tile[:, n - start] if stochastic else None
            X = step(kind, X, n, cfg, xi, F)
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
    draws = np.empty((cfg.horizon if cfg.noise else 0, d), dtype=np.float64)
    # one replica: advance yields floats at d = 1 and (1, d) rows otherwise
    rows, draw_rows = (iterates[:, 0], draws[:, 0]) if d == 1 else (iterates, draws)
    # a Python int seed is reduced mod 2**64, as derive_key does
    for n, X, xi in advance(cfg, [int(cfg.seed) % 2**64], cfg.horizon):
        rows[n] = X
        if xi is not None:
            draw_rows[n - 1] = xi
    errors = None
    if x_star is not None:
        x_star = as_point(x_star, d, name="x_star")
        errors = norm(iterates - x_star, cfg.norm_kind)
    return Trajectory(iterates=iterates, noise_norms=norm(draws, cfg.norm_kind),
                      errors_to_ref=errors, norm_kind=cfg.norm_kind)
