"""Finite-dimensional normed spaces and the catalog of contraction maps.

Points are numpy float64 arrays of shape (d,); map evaluation accepts any
leading batch shape (..., d) and is elementwise-consistent with the single
point case, so batched replica runs reproduce serial arithmetic bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NonContractiveError, ValidationError, check_number,
                     check_numbers)
from .streams import check_seed, substream_uniforms

NORM_KINDS = ("euclidean", "max", "one")
# The fields each map family takes, and requires; declared_c is any map's.
_FAMILY_FIELDS = {"inverse_quadratic": (), "affine": ("matrix", "offset"),
                  "scaled_cosine": ("lam",)}
MAP_FAMILIES = tuple(_FAMILY_FIELDS)

# Global Lipschitz constant of x -> 1/(1+x^2): sup|F'| attained at 1/sqrt(3).
INVERSE_QUADRATIC_C = 9.0 / (8.0 * np.sqrt(3.0))

# Default Euclidean residual ||F(x) - x|| at which reference_fixed_point stops.
FIXED_POINT_TOL = 1e-13

__all__ = [
    "NORM_KINDS",
    "MAP_FAMILIES",
    "INVERSE_QUADRATIC_C",
    "FIXED_POINT_TOL",
    "MapSpec",
    "inverse_quadratic",
    "affine",
    "scaled_cosine",
    "as_point",
    "norm",
    "dimension",
    "map_function",
    "eval_map",
    "contraction_constant",
    "estimate_contraction",
    "reference_fixed_point",
]


def _real_array(x, name):
    """The array x as float64 when its dtype is integer or float; a bool,
    object or other array is refused, as check_number refuses its items."""
    if x.dtype.kind not in "iuf":
        raise ValidationError(f"{name}: must hold real numbers, not {x.dtype}")
    return np.asarray(x, dtype=np.float64)


def as_point(x, dim=None, name="x"):
    """Validate and coerce to a finite float64 vector of shape (d,): x is an
    integer or float array, or a number or a nonempty list of numbers under
    check_number's rule, so a bool, string or nested entry is refused."""
    if isinstance(x, (list, tuple)):
        x = check_numbers(x, name)
    elif not isinstance(x, np.ndarray):
        x = check_number(x, name)
    v = np.atleast_1d(_real_array(np.asarray(x), name))
    if v.ndim != 1:
        raise ValidationError(f"{name}: expected a 1-d point, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name}: coordinates must be finite")
    if dim is not None and v.shape[0] != dim:
        raise ValidationError(f"{name}: dimension mismatch, expected {dim}, got {v.shape[0]}")
    return v


def _matrix(x, name):
    """x as a float64 matrix: an integer or float array, or a nonempty list
    of equally long, nonempty lists of numbers under check_number's rule."""
    if not isinstance(x, np.ndarray):
        if not isinstance(x, (list, tuple)) or not x:
            raise ValidationError(f"{name}: must be a nonempty list")
        x = [check_numbers(row, f"{name}[{i}]") for i, row in enumerate(x)]
        if any(len(row) != len(x[0]) for row in x):
            raise ValidationError(f"{name}: rows must have equal length")
    A = _real_array(np.asarray(x), name)
    if A.ndim != 2:
        raise ValidationError(f"{name}: expected a matrix, got shape {A.shape}")
    return A


def norm(v, kind="euclidean"):
    """Norm of v along its last axis. kind in {euclidean, max, one}.

    v is reduced in C order, so the bits do not depend on its memory
    layout: numpy sums 8 or more elements pairwise along the contiguous
    axis, and a Fortran-ordered v would be summed in another order.
    """
    v = np.asarray(v, dtype=np.float64, order="C")
    if kind == "euclidean":
        return np.sqrt(np.sum(v * v, axis=-1))
    if kind == "max":
        return np.max(np.abs(v), axis=-1)
    if kind == "one":
        return np.sum(np.abs(v), axis=-1)
    raise ValidationError(f"unknown norm kind {kind!r}")


@dataclass(frozen=True, eq=False)
class MapSpec:
    """A member of the self-map catalog.

    family        one of MAP_FAMILIES
    matrix, offset  parameters of the affine family F(x) = A x + b
    lam           gain of the scaled cosine family F(x) = lam*cos(x)
    declared_c    optional user-asserted contraction constant; when absent
                  the analytic family constant is used downstream

    A family takes its own fields and requires them; a field it does not
    take, or a bad value, raises ValidationError naming map.<field>.
    """

    family: str
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None
    lam: float | None = None
    declared_c: float | None = None

    def __post_init__(self):
        if self.family not in MAP_FAMILIES:
            raise ValidationError(f"map.family: unknown family {self.family!r}")
        for owner, keys in _FAMILY_FIELDS.items():
            for key in keys:
                if getattr(self, key) is None:
                    if owner == self.family:
                        raise ValidationError(f"map.{key}: required for {owner} maps")
                elif owner != self.family:
                    raise ValidationError(f"map.{key}: only {owner} maps take it")
        if self.declared_c is not None:
            check_number(self.declared_c, "map.declared_c", minimum=0, exclusive_max=1)
        if self.family == "affine":
            A = _matrix(self.matrix, "map.matrix")
            b = as_point(self.offset, A.shape[0], name="map.offset")
            if A.shape[0] != A.shape[1]:
                raise ValidationError("map: affine matrix must be square and match offset")
            if not np.all(np.isfinite(A)):
                raise ValidationError("map.matrix: entries must be finite")
            if np.linalg.norm(A, 2) >= 1.0:
                raise ValidationError("map.matrix: operator norm must be < 1 for a contraction")
            object.__setattr__(self, "matrix", A)
            object.__setattr__(self, "offset", b)
        elif self.family == "scaled_cosine":
            object.__setattr__(self, "lam", check_number(
                self.lam, "map.lam", exclusive_min=-1, exclusive_max=1))


def inverse_quadratic(declared_c=None):
    """F(x) = 1/(1+x^2) on the line; contraction with c = 9/(8*sqrt(3))."""
    return MapSpec(family="inverse_quadratic", declared_c=declared_c)


def affine(matrix, offset, declared_c=None):
    """F(x) = A x + b with operator-norm(A) < 1."""
    return MapSpec(family="affine", matrix=matrix, offset=offset,
                   declared_c=declared_c)


def scaled_cosine(lam, declared_c=None):
    """F(x) = lam*cos(x) on the line, |lam| < 1."""
    return MapSpec(family="scaled_cosine", lam=lam, declared_c=declared_c)


def dimension(m):
    if m.family == "affine":
        return m.offset.shape[0]
    return 1


def map_function(m):
    """F as a callable on a float (d = 1) or on an (..., d) array.

    It does no validation: resolve it once, then call it every step.  The
    affine branch accumulates A[:, j] * x[..., j] in fixed column order,
    which keeps batched evaluation bitwise equal to the point-by-point one;
    at d = 1 it is b0 + a00 * x, the same two operations on a float.  It
    works on the coordinate-first view of x, so each pass loops over the
    batch, and its result has x's memory order.
    """
    if m.family == "inverse_quadratic":
        return lambda x: 1.0 / (1.0 + x * x)
    if m.family == "scaled_cosine":
        lam = m.lam
        # np.cos, not math.cos: the array path's ufunc loop, and nan at inf
        return lambda x: lam * np.cos(x)
    A, b = m.matrix, m.offset
    d = A.shape[0]
    if d == 1:
        a00, b0 = float(A[0, 0]), float(b[0])
        return lambda x: b0 + a00 * x

    def affine_map(x):
        # np.moveaxis there and back, as plain transposes: moveaxis spends
        # ~5 us a call normalising axes, twice per step
        k = x.ndim - 1
        cols = x.transpose((k,) + tuple(range(k)))
        shape = (d,) + (1,) * k
        Ac = A.reshape((d,) + shape)
        out = b.reshape(shape) + Ac[:, 0] * cols[0]
        for j in range(1, d):
            out += Ac[:, j] * cols[j]
        return out.transpose(tuple(range(1, k + 1)) + (0,))

    return affine_map


def eval_map(m, x):
    """Evaluate F at x; x has shape (..., d) and the result matches it."""
    x = np.asarray(x, dtype=np.float64)
    d = dimension(m)
    if x.shape[-1:] != (d,):
        raise ValidationError(f"eval_map: expected trailing dimension {d}, got shape {x.shape}")
    return map_function(m)(x)


def contraction_constant(m, norm_kind="euclidean"):
    """Analytic contraction constant of the family in the given norm.

    The contraction constant used by the bound machinery is declared_c when
    the user supplied one, else this analytic value.
    """
    if m.declared_c is not None:
        return float(m.declared_c)
    if m.family == "inverse_quadratic":
        return INVERSE_QUADRATIC_C
    if m.family == "scaled_cosine":
        return abs(m.lam)
    A = m.matrix
    if norm_kind == "euclidean":
        c = float(np.linalg.norm(A, 2))
    elif norm_kind == "max":
        c = float(np.max(np.sum(np.abs(A), axis=1)))
    elif norm_kind == "one":
        c = float(np.max(np.sum(np.abs(A), axis=0)))
    else:
        raise ValidationError(f"unknown norm kind {norm_kind!r}")
    if c >= 1.0:
        raise NonContractiveError(
            f"affine map has induced {norm_kind}-norm {c:.6g} >= 1; "
            "declare a constant or change the norm")
    return c


def estimate_contraction(m, domain_box=None, samples=10**4, seed=0, norm_kind="euclidean"):
    """Empirical contraction constant: max of ||F(x)-F(y)|| / ||x-y|| over
    sampled pairs in domain_box, a (d, 2) matrix of [low, high] rows read
    as map.matrix is; it defaults to [-10, 10]^d.

    Pair i is a pure function of (seed, i), so enlarging `samples` extends
    the sample rather than reshuffling it; the estimate is therefore
    monotone nondecreasing in `samples` for a fixed seed.
    """
    samples = check_number(samples, "samples", integer=True, minimum=1)
    seed = check_seed(seed, "seed")
    d = dimension(m)
    box = _matrix([[-10.0, 10.0]] * d if domain_box is None else domain_box,
                  "domain_box")
    if box.shape != (d, 2):
        raise ValidationError(f"domain_box: expected shape ({d}, 2)")
    if not np.all(np.isfinite(box)):
        raise ValidationError("domain_box: bounds must be finite")
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValidationError("domain_box: degenerate (zero or negative volume)")
    lo, span = box[:, 0], box[:, 1] - box[:, 0]
    u = substream_uniforms(seed, np.arange(samples, dtype=np.uint64), 2 * d)
    x = lo + span * u[:, :d]
    y = lo + span * u[:, d:]
    dist = norm(x - y, norm_kind)
    keep = dist > 0.0
    if not np.any(keep):
        raise ValidationError("estimate_contraction: no distinct pairs sampled")
    ratios = norm(eval_map(m, x[keep]) - eval_map(m, y[keep]), norm_kind) / dist[keep]
    return float(np.max(ratios))


def reference_fixed_point(m, tol=FIXED_POINT_TOL, max_iter=100000, x0=None):
    """High-accuracy fixed point via the iteration x <- F(x).

    Terminates when the residual ||F(x)-x|| is <= tol; the Banach estimate
    ||x - x*|| <= residual/(1-c) then bounds the true error.
    """
    check_number(tol, "tol", exclusive_min=0)
    max_iter = check_number(max_iter, "max_iter", integer=True, minimum=1)
    c = contraction_constant(m)
    if c >= 1.0:
        raise NonContractiveError("reference_fixed_point requires a contraction")
    x = np.zeros(dimension(m)) if x0 is None else as_point(x0, dimension(m))
    for _ in range(max_iter):
        fx = eval_map(m, x)
        if norm(fx - x) <= tol:
            return fx
        x = fx
    raise NonContractiveError(
        f"iteration x <- F(x) did not reach residual {tol:g} in {max_iter} steps")
