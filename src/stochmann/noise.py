"""Functional random error models and their Cramér moment certificates.

A model ships with a triple (sigma, L, mean_norm_bound) certifying the
moment condition

    E ||xi||^m  <=  (m!/2) * sigma^2 * L^(m-2)   for all m >= 2,

which is what the exponential tail machinery consumes.  Draws are pure in
the stream key (seed, index): the same pair always yields the same vector,
independent of batching or call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_number
from .spaces import norm
from .streams import (check_block, check_seed, check_seeds, derive_key,
                      substream_normals, substream_uniforms)

NOISE_FAMILIES = ("zero", "gaussian", "bounded_uniform")

__all__ = [
    "NOISE_FAMILIES",
    "NoiseModel",
    "zero",
    "gaussian",
    "bounded_uniform",
    "default_cramer_params",
    "sample_block",
    "sample_many",
    "MomentRow",
    "CramerReport",
    "cramer_check",
]


@dataclass(frozen=True)
class NoiseModel:
    """Noise family plus its Cramér parameters, valid by construction.

    gaussian needs scale (the per-coordinate std) and bounded_uniform
    half_width (the support half-width); zero noise takes neither, nor any
    constant.  Missing constants are default_cramer_params'; certified is
    True when none was given, so a dataclasses.replace copy is uncertified.
    A bad field raises ValidationError naming noise.<field>.
    """

    family: str
    dim: int = 1
    scale: float | None = None
    half_width: float | None = None
    sigma: float | None = None
    L: float | None = None
    mean_norm_bound: float | None = None
    certified: bool = field(init=False)

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValidationError(f"noise.family: unknown family {self.family!r}")
        object.__setattr__(self, "dim", check_number(
            self.dim, "noise.dim", integer=True, minimum=1))
        param = _PARAM.get(self.family)
        allowed = (param,) + _CONSTANTS if param else ()
        given = {}
        for key in ("scale", "half_width") + _CONSTANTS:
            value = getattr(self, key)
            if value is None:
                if key == param:
                    raise ValidationError(f"noise.{key}: required for {self.family} noise")
            elif key not in allowed:
                raise ValidationError(f"noise.{key}: not allowed for {self.family} noise")
            elif key in ("sigma", "mean_norm_bound"):
                given[key] = check_number(value, f"noise.{key}", minimum=0)
            else:
                given[key] = check_number(value, f"noise.{key}", exclusive_min=0)
        # the shipped constants, as default_cramer_params documents them
        if param is None:
            defaults = (0.0, 1.0, 0.0)
        else:
            p, root_d = given.pop(param), math.sqrt(self.dim)
            object.__setattr__(self, param, p)
            if self.family == "bounded_uniform":
                defaults = (p * root_d,) * 3
            else:
                mnb = p * math.sqrt(2.0 / math.pi) if self.dim == 1 else p * root_d
                defaults = (2.0 * p * root_d, 2.0 * p * root_d, mnb)
        for key, default in zip(_CONSTANTS, defaults):
            object.__setattr__(self, key, given.get(key, default))
        object.__setattr__(self, "certified", not given)


_PARAM = {"gaussian": "scale", "bounded_uniform": "half_width"}
_CONSTANTS = ("sigma", "L", "mean_norm_bound")


def default_cramer_params(family, param=None, dim=1):
    """Shipped (sigma, L, mean_norm_bound) for a family at dimension dim.

    zero            -> (0, 1, 0); the L value is an inert placeholder.
    gaussian s      -> (2s, 2s, s*sqrt(2/pi)) on the line; for dim d >= 2
                       all three scale by sqrt(d) except the mean bound,
                       which uses the exact Jensen bound s*sqrt(d).
    bounded_uniform h -> (B, B, B) with B = h*sqrt(d), an a.s. bound on
                       the Euclidean norm.

    The triples certify the moment condition for the Euclidean and max
    norms; the one-norm in dimension >= 2 needs a user override.  They are
    the constants of NoiseModel(family, dim, ...), which checks the inputs.
    """
    model = NoiseModel(family, dim, **({_PARAM[family]: param} if family in _PARAM else {}))
    return model.sigma, model.L, model.mean_norm_bound


def zero(dim=1):
    """The deterministic zero error; stochastic Mann degenerates to Mann."""
    return NoiseModel(family="zero", dim=dim)


def gaussian(scale, dim=1, sigma=None, L=None, mean_norm_bound=None):
    """Centered Gaussian with independent N(0, scale^2) coordinates."""
    return NoiseModel(family="gaussian", dim=dim, scale=scale, sigma=sigma, L=L,
                      mean_norm_bound=mean_norm_bound)


def bounded_uniform(half_width, dim=1, sigma=None, L=None, mean_norm_bound=None):
    """Independent Uniform(-h, h) coordinates."""
    return NoiseModel(family="bounded_uniform", dim=dim, half_width=half_width,
                      sigma=sigma, L=L, mean_norm_bound=mean_norm_bound)


def sample_block(model, dim, seed, indices):
    """Draws of shape broadcast(seed, indices) + (dim,); the draw at
    (seed, index) is bitwise the same in any batch shape.  As with
    streams.substream_uniforms, the result is a view of a (dim,) + shape
    array, so the last axis of the broadcast shape is the contiguous one.
    Seeds and indices are integers in [0, 2**64) (streams.check_seeds)."""
    if dim != model.dim:
        raise ValidationError(f"noise: model dimension {model.dim} != requested {dim}")
    keys = derive_key(check_seeds(seed, "seeds"))
    indices = check_seeds(indices, "indices")
    if model.family == "zero":
        shape = np.broadcast_shapes(np.shape(keys), np.shape(indices))
        xi = np.zeros((model.dim,) + shape)
        return xi.transpose(tuple(range(1, xi.ndim)) + (0,))
    if model.family == "gaussian":
        z = substream_normals(keys, indices, model.dim)
        return np.multiply(z, model.scale, out=z)
    u = substream_uniforms(keys, indices, model.dim)
    np.multiply(u, 2.0, out=u)
    np.subtract(u, 1.0, out=u)
    np.multiply(u, model.half_width, out=u)
    return u


# One common index across many seeds (replica batch) is a sample_block call.
sample_many = sample_block


@dataclass(frozen=True)
class MomentRow:
    """One moment of the norm ||xi|| against its certified bound.

    m          the order; 1 is the mean row
    empirical  the sample moment, in norm units to the power m
    bound      its certified bound, in the same units
    stderr     the plug-in standard error of empirical
    ok         False when empirical exceeds bound by over 3 stderr
    """

    m: int
    empirical: float
    bound: float
    stderr: float
    ok: bool


@dataclass(frozen=True)
class CramerReport:
    """Empirical audit of the moment certificates.

    The mean row (m = 1) checks E||xi|| against mean_norm_bound; raw rows
    check E||xi||^m against (m!/2) sigma^2 L^(m-2); centered rows check the
    recentred variable zeta = ||xi|| - E||xi|| against
    2 m! sigma^2 (2L)^(m-2).  A row fails only when the empirical moment
    exceeds its bound by more than three standard errors.  The one
    exception is the mean row of certified Gaussian noise at d = 1, whose
    bound is the exact E|xi|: it is reported but never fails.
    """

    family: str
    dim: int
    draws: int
    sigma: float
    L: float
    certified: bool
    mean: MomentRow
    raw: tuple
    centered: tuple

    @property
    def ok(self):
        return all(row.ok for row in (self.mean, *self.raw, *self.centered))


def _moment_row(m, values, bound, exact=False):
    """values' mean against bound: ok by the 3-SE rule, or when exact."""
    mean = float(values.mean())
    with np.errstate(over="ignore"):  # an overflowing std reads as inf
        se = float(values.std() / math.sqrt(values.size))
    return MomentRow(m, mean, bound, se, exact or mean <= bound + 3.0 * se)


def cramer_check(model, m_max=10, draws=10**5, seed=0, norm_kind="euclidean"):
    """Estimate moments of ||xi|| and compare against the certificates.

    Standard errors are the plug-in ones, std(||xi||^m)/sqrt(draws); with
    heavy powers these are themselves noisy, which is why the flag
    threshold sits at three standard errors rather than one.  An m_max
    whose raw or centred bound overflows a float, and a draws whose
    (draws, dim) block numpy cannot size or allocate, raise ValidationError
    before any draw.
    """
    m_max = check_number(m_max, "m_max", integer=True, minimum=2)
    draws = check_number(draws, "draws", integer=True, minimum=2)
    seed = check_seed(seed, "seed")
    bounds = []
    for m in range(2, m_max + 1):
        fact = math.factorial(m)
        try:
            bound = 0.5 * fact * model.sigma ** 2 * model.L ** (m - 2)
            cbound = 2.0 * fact * model.sigma ** 2 * (2.0 * model.L) ** (m - 2)
        except OverflowError:
            bound = cbound = math.inf
        if not (math.isfinite(bound) and math.isfinite(cbound)):
            raise ValidationError(
                f"m_max: {m_max} is too large; the order-{m} moment bound "
                "overflows a float")
        bounds.append((m, bound, cbound))
    check_block((draws, model.dim), "draws",
                f"{draws} draws of dimension {model.dim}")
    xi = sample_block(model, model.dim, seed, np.arange(1, draws + 1, dtype=np.uint64))
    norms = norm(xi, norm_kind)
    # the certified Gaussian default on the line, s*sqrt(2/pi), is E|xi|
    # itself: a one-sided test would refute it by chance (1 seed in ~740)
    exact = model.certified and model.family == "gaussian" and model.dim == 1
    mean_row = _moment_row(1, norms, model.mean_norm_bound, exact)
    zeta = np.abs(norms - mean_row.empirical)
    raw = tuple(_moment_row(m, norms ** m, bound) for m, bound, _ in bounds)
    centered = tuple(_moment_row(m, zeta ** m, cbound) for m, _, cbound in bounds)
    return CramerReport(family=model.family, dim=model.dim, draws=draws,
                        sigma=model.sigma, L=model.L, certified=model.certified,
                        mean=mean_row, raw=raw, centered=centered)
