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
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError
from .spaces import norm
from .streams import Workspace, derive_key, substream_uniforms

NOISE_FAMILIES = ("zero", "gaussian", "bounded_uniform")

__all__ = [
    "NOISE_FAMILIES",
    "NoiseModel",
    "zero",
    "gaussian",
    "bounded_uniform",
    "default_cramer_params",
    "sample",
    "sample_block",
    "sample_keyed",
    "sample_many",
    "MomentRow",
    "CramerReport",
    "cramer_check",
]


@dataclass(frozen=True)
class NoiseModel:
    """Noise family plus its certified Cramér parameters.

    certified is True while (sigma, L, mean_norm_bound) are the shipped
    defaults; overriding any of them clears it, and reports say so.
    """

    family: str
    dim: int = 1
    scale: float | None = None       # gaussian: per-coordinate std
    half_width: float | None = None  # bounded_uniform: support half-width
    sigma: float = 0.0
    L: float = 1.0
    mean_norm_bound: float = 0.0
    certified: bool = True


def default_cramer_params(family, param=None, dim=1):
    """Shipped (sigma, L, mean_norm_bound) for a family at dimension dim.

    zero            -> (0, 1, 0); the L value is an inert placeholder.
    gaussian s      -> (2s, 2s, s*sqrt(2/pi)) on the line; for dim d >= 2
                       all three scale by sqrt(d) except the mean bound,
                       which uses the exact Jensen bound s*sqrt(d).
    bounded_uniform h -> (B, B, B) with B = h*sqrt(d), an a.s. bound on
                       the Euclidean norm.

    The triples certify the moment condition for the Euclidean and max
    norms; the one-norm in dimension >= 2 needs a user override.
    """
    if dim < 1:
        raise ValidationError("dim: must be >= 1")
    if family == "zero":
        return 0.0, 1.0, 0.0
    if family == "gaussian":
        s = float(param)
        if not (np.isfinite(s) and s > 0):
            raise ValidationError("noise.scale: must be a positive finite real")
        root_d = math.sqrt(dim)
        mnb = s * math.sqrt(2.0 / math.pi) if dim == 1 else s * root_d
        return 2.0 * s * root_d, 2.0 * s * root_d, mnb
    if family == "bounded_uniform":
        h = float(param)
        if not (np.isfinite(h) and h > 0):
            raise ValidationError("noise.half_width: must be a positive finite real")
        B = h * math.sqrt(dim)
        return B, B, B
    raise ValidationError(f"noise.family: unknown family {family!r}")


def _with_overrides(model, sigma, L, mean_norm_bound):
    fields = {}
    if sigma is not None:
        fields["sigma"] = float(sigma)
    if L is not None:
        fields["L"] = float(L)
    if mean_norm_bound is not None:
        fields["mean_norm_bound"] = float(mean_norm_bound)
    if not fields:
        return model
    if "sigma" in fields and fields["sigma"] < 0:
        raise ValidationError("noise.sigma: must be >= 0")
    if "L" in fields and fields["L"] <= 0:
        raise ValidationError("noise.L: must be > 0")
    if "mean_norm_bound" in fields and fields["mean_norm_bound"] < 0:
        raise ValidationError("noise.mean_norm_bound: must be >= 0")
    return replace(model, certified=False, **fields)


def zero(dim=1):
    """The deterministic zero error; stochastic Mann degenerates to Mann."""
    s, L, mnb = default_cramer_params("zero", dim=dim)
    return NoiseModel(family="zero", dim=dim, sigma=s, L=L, mean_norm_bound=mnb)


def gaussian(scale, dim=1, sigma=None, L=None, mean_norm_bound=None):
    """Centered Gaussian with independent N(0, scale^2) coordinates."""
    s0, L0, mnb0 = default_cramer_params("gaussian", scale, dim)
    model = NoiseModel(family="gaussian", dim=dim, scale=float(scale),
                       sigma=s0, L=L0, mean_norm_bound=mnb0)
    return _with_overrides(model, sigma, L, mean_norm_bound)


def bounded_uniform(half_width, dim=1, sigma=None, L=None, mean_norm_bound=None):
    """Independent Uniform(-h, h) coordinates."""
    s0, L0, mnb0 = default_cramer_params("bounded_uniform", half_width, dim)
    model = NoiseModel(family="bounded_uniform", dim=dim, half_width=float(half_width),
                       sigma=s0, L=L0, mean_norm_bound=mnb0)
    return _with_overrides(model, sigma, L, mean_norm_bound)


def sample_block(model, dim, seed, indices, work=None):
    """Draws of shape broadcast(seed, indices) + (dim,); the draw at
    (seed, index) is bitwise the same in any batch shape.  With a
    streams.Workspace the result is a view into it, overwritten by the
    next call with the same workspace."""
    if dim != model.dim:
        raise ValidationError(f"noise: model dimension {model.dim} != requested {dim}")
    return sample_keyed(model, derive_key(seed), indices, work)


def sample_keyed(model, keys, indices, work=None):
    """sample_block for keys already derived from the seeds, so a caller
    drawing many tiles from the same seeds derives them once."""
    work = Workspace() if work is None else work
    if model.family == "zero":
        shape = np.broadcast_shapes(np.shape(keys), np.shape(indices))
        xi = work.array("zero", shape + (model.dim,), np.float64)
        xi.fill(0.0)
        return xi
    u = substream_uniforms(keys, indices, model.dim, work)
    if model.family == "gaussian":
        ndtri(u, out=u)
        np.multiply(u, model.scale, out=u)
        return u
    np.multiply(u, 2.0, out=u)
    np.subtract(u, 1.0, out=u)
    np.multiply(u, model.half_width, out=u)
    return u


def sample(model, dim, stream_key):
    """One draw from the substream stream_key = (seed, index)."""
    return sample_block(model, dim, stream_key[0], int(stream_key[1]))


def sample_many(model, dim, seeds, index):
    """One common index across many seeds (replica batch)."""
    return sample_block(model, dim, seeds, int(index))


@dataclass(frozen=True)
class MomentRow:
    m: int
    empirical: float
    bound: float
    stderr: float
    ok: bool


@dataclass(frozen=True)
class CramerReport:
    """Empirical audit of the moment certificates.

    raw rows check E||xi||^m against (m!/2) sigma^2 L^(m-2); centered rows
    check the recentred variable zeta = ||xi|| - E||xi|| against
    2 m! sigma^2 (2L)^(m-2).  A row fails only when the empirical moment
    exceeds its bound by more than three standard errors.
    """

    family: str
    dim: int
    draws: int
    sigma: float
    L: float
    certified: bool
    raw: tuple
    centered: tuple

    @property
    def flags(self):
        out = []
        for row in self.raw:
            if not row.ok:
                out.append(f"raw moment m={row.m}: {row.empirical:.6g} > {row.bound:.6g}")
        for row in self.centered:
            if not row.ok:
                out.append(f"centered moment m={row.m}: {row.empirical:.6g} > {row.bound:.6g}")
        return out

    @property
    def ok(self):
        return not self.flags


def cramer_check(model, dim=None, m_max=10, draws=10**5, seed=0, norm_kind="euclidean"):
    """Estimate moments of ||xi|| and compare against the certificates.

    Standard errors are the plug-in ones, std(||xi||^m)/sqrt(draws); with
    heavy powers these are themselves noisy, which is why the flag
    threshold sits at three standard errors rather than one.
    """
    if dim is None:
        dim = model.dim
    if m_max < 2:
        raise ValidationError("m_max: must be >= 2")
    if draws < 2:
        raise ValidationError("draws: must be >= 2")
    xi = sample_block(model, dim, seed, np.arange(1, draws + 1, dtype=np.uint64))
    norms = norm(xi, norm_kind)
    zeta = norms - norms.mean()
    raw_rows, centered_rows = [], []
    for m in range(2, m_max + 1):
        fact = math.factorial(m)
        raw_pow = norms ** m
        emp = float(raw_pow.mean())
        se = float(raw_pow.std() / math.sqrt(draws))
        bound = 0.5 * fact * model.sigma ** 2 * model.L ** (m - 2)
        raw_rows.append(MomentRow(m, emp, bound, se, emp <= bound + 3.0 * se))
        cen_pow = np.abs(zeta) ** m
        cemp = float(cen_pow.mean())
        cse = float(cen_pow.std() / math.sqrt(draws))
        cbound = 2.0 * fact * model.sigma ** 2 * (2.0 * model.L) ** (m - 2)
        centered_rows.append(MomentRow(m, cemp, cbound, cse, cemp <= cbound + 3.0 * cse))
    return CramerReport(family=model.family, dim=dim, draws=draws,
                        sigma=model.sigma, L=model.L, certified=model.certified,
                        raw=tuple(raw_rows), centered=tuple(centered_rows))
