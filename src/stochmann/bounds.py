"""Error envelopes, exponential tail bounds, and confidence sizing for the
stochastic Mann iteration.

Everything here is parameterized by

    N     bound on the initial distance ||x_1 - x*||
    a     step gain, a_n = a/n and b_n = a/n^2
    c     contraction constant of the map
    sigma, L, mean_norm_bound   Cramér certificate of the noise
    rho   exponent split parameter, 0 < rho < 2 a (1-c)

Two different decay exponents appear in the analysis and are easy to
confuse, so both are first-class here and never substituted for each
other:

    tail_exponent = 2 a (1-c) - rho   drives the per-n tail probability
    rate_exponent =   a (1-c) - rho   drives the almost-sure rate envelope

The series S1 and S2 behind the constants K1 and K2 are summed in closed
form, a short head plus Hurwitz zeta terms, with a certified half-width;
a Certificate takes the upper end of each bracket.  Each sum is cached per
(p, q, tol) for the life of the process: N, L, mean_norm_bound and rho do
not enter it and sigma only scales S2 outside it.  Equal params share one
cached Certificate, so tail_bound, min_iterations_for_confidence and
canonical_eps0 in a loop rebuild no constant after the first call.
min_iterations starts its search for n_alpha from the closed-form
threshold of the tail bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._special import zeta
from .errors import StochmannError, ValidationError, check_number

__all__ = [
    "BoundParams",
    "BoundReport",
    "SeriesEstimate",
    "tail_exponent",
    "rate_exponent",
    "product_bound",
    "envelope_sequence",
    "series_S1_detail",
    "series_S2_detail",
    "Certificate",
    "certificate",
    "tail_bound",
    "min_iterations_for_confidence",
    "rate_envelope",
    "canonical_eps0",
]


@dataclass(frozen=True)
class BoundParams:
    """The constants of one tail certificate, valid by construction.

    N                bound on the initial distance ||x_1 - x*||, in the
                     units of the space's norm
    a                step gain of a_n = a/n and b_n = a/n^2, in (0, 1)
    c                contraction constant of the map, in [0, 1)
    sigma, L         the noise's Cramér moment constants, in norm units
    mean_norm_bound  bound on E||xi||, in norm units
    rho              exponent split, in (0, 2a(1-c)); dimensionless

    A bad field raises ValidationError naming bounds.<field>.
    """

    N: float
    a: float
    c: float
    sigma: float
    L: float
    mean_norm_bound: float
    rho: float

    def __post_init__(self):
        # each field as check_number's Python float, so no constant built
        # from them is a numpy scalar
        put = functools.partial(object.__setattr__, self)
        put("N", check_number(self.N, "bounds.N", minimum=0))
        put("a", check_number(self.a, "bounds.a", exclusive_min=0,
                              exclusive_max=1))
        put("c", check_number(self.c, "bounds.c", minimum=0, exclusive_max=1))
        put("sigma", check_number(self.sigma, "bounds.sigma", minimum=0))
        put("L", check_number(self.L, "bounds.L", exclusive_min=0))
        put("mean_norm_bound", check_number(
            self.mean_norm_bound, "bounds.mean_norm_bound", minimum=0))
        put("rho", check_number(self.rho, "bounds.rho", exclusive_min=0,
                                exclusive_max=2.0 * self.a * (1.0 - self.c)))

    @property
    def kappa(self):
        """The damping rate a(1-c) of the pathwise envelope."""
        return self.a * (1.0 - self.c)


def tail_exponent(params):
    """Exponent of n inside the tail bound: 2a(1-c) - rho (> 0)."""
    return 2.0 * params.a * (1.0 - params.c) - params.rho


def rate_exponent(params):
    """Exponent of n inside the a.s. rate envelope: a(1-c) - rho.

    May be <= 0 for rho in the upper half of its admissible range; the
    envelope itself requires it positive and checks.
    """
    return params.a * (1.0 - params.c) - params.rho


def product_bound(i, n, a, c):
    """Both sides of the damping-product estimate

        prod_{j=i+1}^{n} (1 - a(1-c)/j)  <=  ((i+1)/(n+1))^(a(1-c)).

    Returns (lhs, rhs) evaluated exactly as written, for 1 <= i <= n.
    """
    i = check_number(i, "i", integer=True, minimum=1)
    n = check_number(n, "n", integer=True, minimum=i)
    a = check_number(a, "a", exclusive_min=0, exclusive_max=1)
    c = check_number(c, "c", minimum=0, exclusive_max=1)
    kappa = a * (1.0 - c)
    j = np.arange(i + 1, n + 1, dtype=np.float64)
    lhs = float(np.prod(1.0 - kappa / j)) if j.size else 1.0
    rhs = float(((i + 1.0) / (n + 1.0)) ** kappa)
    if not lhs <= rhs * (1.0 + 1e-12):
        raise StochmannError(f"product_bound: lhs {lhs!r} exceeds rhs {rhs!r}")
    return lhs, rhs


def envelope_sequence(params, noise_norms):
    """The pathwise envelope on ||x_{n+1} - x*|| for every n = 1..horizon,
    given the realized noise norms noise_norms[..., n-1] = ||xi_n||:

        E_0 = N,   E_n = (1 - a(1-c)/n) E_{n-1} + (a/n^2) ||xi_n||,

    that is N prod_{i<=n}(1 - a(1-c)/i) + sum_{i<=n} (a/i^2)
    prod_{i<j<=n}(1 - a(1-c)/j) ||xi_i||.  Leading batch axes are kept and
    entry n-1 is E_n, so the envelope at one n is
    envelope_sequence(params, noise_norms[:n])[n - 1].  noise_norms is an
    integer or float array or (nested) lists of numbers; a 0-d input, or an
    entry that is a bool, a string, not finite or negative, raises
    ValidationError naming noise_norms.
    """
    if not isinstance(noise_norms, np.ndarray):
        items = np.asarray(noise_norms, dtype=object)
        noise_norms = np.array([check_number(v, "noise_norms", minimum=0)
                                for v in items.flat]).reshape(items.shape)
    if (noise_norms.ndim == 0 or noise_norms.dtype.kind not in "iuf"
            or not np.all(np.isfinite(noise_norms)) or np.any(noise_norms < 0)):
        raise ValidationError("noise_norms: must be finite reals >= 0 along a step axis")
    norms = np.asarray(noise_norms, dtype=np.float64)
    horizon = norms.shape[-1]
    out = np.empty_like(norms)
    e = np.broadcast_to(np.float64(params.N), norms.shape[:-1]).copy()
    for n in range(1, horizon + 1):
        e = (1.0 - params.kappa / n) * e + (params.a / (n * n)) * norms[..., n - 1]
        out[..., n - 1] = e
    return out


@dataclass(frozen=True)
class SeriesEstimate:
    """A series value accurate to +-half_width, summed through index terms."""

    value: float
    terms: int
    half_width: float


# The series sum i < SERIES_HEAD directly and the rest in closed form,
#     sum_{i>=M} (i+1)^p i^-q = sum_k C(p,k) zeta(q-p+k, M)   (DLMF 25.11),
# with the binomial series cut after k = SERIES_ORDER.
SERIES_HEAD = 32
SERIES_ORDER = 12
# Distinct (p, q, tol) sums kept per process; a sweep needs two per (a, c).
SERIES_CACHE_SIZE = 256
# The relative error to which a certificate sums S1 and S2.
SERIES_TOL = 1e-10


@functools.lru_cache(maxsize=SERIES_CACHE_SIZE, typed=True)
def _series_power_sum(p, q, tol):
    """sum_{i>=1} (i+1)^p / i^q with certified relative error <= tol.

    The result is cached per exact (p, q, tol) and shared by every caller,
    which a frozen SeriesEstimate allows; a refused input is not cached and
    raises on every call.

    half_width adds three bounds:
      truncation: for 0 <= p < 2, |C(p,k)| <= 2/k <= 1 for k >= 2, and
        zeta(s, M) <= 2 M^(1-s) for s >= 2, so the terms past k = K sum to
        at most 2 M^(1-(q-p)-K) / (M-1);
      rounding: 64 ulps of the terms' magnitudes, for the powers, the
        binomial products, zeta and the summation;
      arguments: q-p+k is rounded by half an ulp, which moves zeta by at
        most an ulp times its slope in s, itself at most
        ln(M) M^-s + M^(1-s) (ln M/(s-1) + 1/(s-1)^2).  Near s = 1 this
        bound dominates (2.2e-10 at p = 0.999, q = 2).
    """
    if not (0.0 <= p < 2.0 and q - p > 1.0):
        raise ValidationError("series: need 0 <= p < 2 and q - p > 1")
    check_number(tol, "tol", exclusive_min=0)
    M, K, eps = SERIES_HEAD, SERIES_ORDER, float(np.finfo(np.float64).eps)
    i = np.arange(1.0, M)
    k = np.arange(K + 1.0)
    binom = np.cumprod(np.concatenate(([1.0], (p - k[:-1]) / k[1:])))
    s = (q + k) - p
    terms = np.concatenate(((i + 1.0) ** p / i ** q, binom * zeta(s, M)))
    value = float(np.sum(terms))
    slope = (math.log(M) * (M ** -s + M ** (1.0 - s) / (s - 1.0))
             + M ** (1.0 - s) / (s - 1.0) ** 2)
    half_width = (2.0 * M ** (1.0 - (q - p) - K) / (M - 1.0)
                  + 64.0 * eps * float(np.sum(np.abs(terms)))
                  + eps * float(np.sum(np.abs(binom) * s * slope)))
    if half_width > tol * value:
        raise ValidationError(f"series: tol {tol:g} unattainable (relative "
                              f"half-width {half_width / value:.3g})")
    return SeriesEstimate(value=value, terms=M + K, half_width=half_width)


def series_S1_detail(a, c, tol=SERIES_TOL):
    """S1 = sum_{i>=1} (i+1)^(a(1-c)) / i^2 to relative error tol; needs
    a(1-c) < 1 for convergence."""
    a = check_number(a, "a", exclusive_min=0)
    c = check_number(c, "c", minimum=0, exclusive_max=1)
    p = a * (1.0 - c)
    if p >= 1.0:
        raise ValidationError("series_S1: divergent parameter combination (a(1-c) >= 1)")
    return _series_power_sum(p, 2.0, tol)


def series_S2_detail(a, c, sigma, tol=SERIES_TOL):
    """S2 = 4 a^2 sigma^2 sum_{i>=1} (i+1)^(2a(1-c)) / i^4 to relative
    error tol."""
    a = check_number(a, "a", exclusive_min=0, exclusive_max=1)
    c = check_number(c, "c", minimum=0, exclusive_max=1)
    sigma = check_number(sigma, "sigma", minimum=0)
    if sigma == 0.0:
        return SeriesEstimate(value=0.0, terms=0, half_width=0.0)
    scale = 4.0 * a * a * sigma * sigma
    inner = _series_power_sum(2.0 * a * (1.0 - c), 4.0, tol)
    return SeriesEstimate(value=scale * inner.value, terms=inner.terms,
                          half_width=scale * inner.half_width)


@dataclass(frozen=True)
class BoundReport:
    """Everything the tail bound evaluation produced.

    raw_bound is K1 exp(-K2 n^gamma eps^2) with gamma the tail exponent; it
    is often astronomically above 1 at desk scales, so clipped_bound =
    min(1, raw_bound) is the quantity to quote.  log_raw_bound is exact
    even when raw_bound overflows to inf.
    """

    n: int
    eps: float
    S1: float
    S2: float
    K1: float
    K2: float
    log_K1: float
    tail_exponent: float
    rate_exponent: float
    raw_bound: float
    log_raw_bound: float
    clipped_bound: float


@dataclass(frozen=True)
class Certificate:
    """The tail-bound constants of one parameter set, computed once.

    log_K1 = 2 (N^2 + (a S1 mean_norm_bound)^2), and K1 = exp(log_K1) is
    reported as inf when it overflows; the log never does at sane
    parameters.  K2 = min(1, 1/(16 S2)), with the noiseless S2 = 0 case
    pinned to K2 = 1.  Every bound is evaluated in the log domain, so a
    huge K1 cannot poison a clipped result.
    """

    params: BoundParams
    S1: float
    S2: float
    log_K1: float
    K1: float
    K2: float
    tail_exponent: float

    def log_bound(self, n, eps):
        """ln of the raw bound K1 exp(-K2 n^gamma eps^2), gamma the tail
        exponent; exact even when the bound itself overflows."""
        gamma = self.tail_exponent
        return self.log_K1 - self.K2 * math.exp(gamma * math.log(n)) * eps * eps

    def report(self, n, eps):
        """Certified bound on P{ ||x_{n+1} - x*|| > eps }."""
        n = check_number(n, "n", integer=True, minimum=1)
        eps = check_number(eps, "eps", exclusive_min=0)
        log_raw = self.log_bound(n, eps)
        raw = math.exp(log_raw) if log_raw <= 709.0 else math.inf
        return BoundReport(n=n, eps=eps, S1=self.S1, S2=self.S2,
                           K1=self.K1, K2=self.K2, log_K1=self.log_K1,
                           tail_exponent=self.tail_exponent,
                           rate_exponent=rate_exponent(self.params),
                           raw_bound=raw, log_raw_bound=log_raw,
                           clipped_bound=min(1.0, raw))

    def min_iterations(self, eps, alpha, n_cap=10 ** 12):
        """Smallest n with clipped tail bound <= alpha, or None if no n
        under n_cap qualifies.

        The raw bound is non-increasing in n in floating point (K2 > 0,
        tail exponent gamma > 0, and every operation of log_bound is
        monotone), so the threshold is unique.  In exact arithmetic it is
        the least n with

            gamma ln n >= ln(log_K1 - ln alpha) - ln K2 - 2 ln eps,

        which is evaluated in the log domain, so a tiny eps or K2 neither
        underflows nor divides by zero.  One loop gallops from that n,
        clamped into [2, n_cap - 1], to a bracket and bisects it: a handful
        of bound evaluations, and the same n as a search from 1.
        certificate(params) returns one shared Certificate per equal
        params, so sizing again from equal params builds nothing.
        """
        alpha = check_number(alpha, "alpha", exclusive_min=0, exclusive_max=1)
        eps = check_number(eps, "eps", exclusive_min=0)
        n_cap = check_number(n_cap, "n_cap", integer=True, minimum=1)
        log_bound, log_alpha = self.log_bound, math.log(alpha)

        def ok(n):
            return log_bound(n, eps) <= log_alpha

        if ok(1):
            return 1
        if not ok(n_cap):
            return None
        log_k2 = math.log(self.K2) if self.K2 > 0.0 else -math.inf
        log_n = (math.log(self.log_K1 - log_alpha) - log_k2
                 - 2.0 * math.log(eps)) / self.tail_exponent
        seed = (n_cap if log_n >= min(math.log(n_cap), 709.0)
                else math.ceil(math.exp(log_n)))
        # gallop keeping not ok(lo), ok(hi): a probe on either would end it
        lo, hi, step = 1, n_cap, 1
        n = min(max(seed, 2), n_cap - 1)
        while lo < n < hi:
            if ok(n):
                hi, n = n, n - step
            else:
                lo, n = n, n + step
            step *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def eps0(self, d=1):
        """The scale sqrt((1+d)/K2) that turns the rate envelope into the
        almost-sure convergence certificate in dimension d."""
        d = check_number(d, "d", integer=True, minimum=1)
        return math.sqrt((1.0 + d) / self.K2)


def certificate(params, s1=None, s2=None):
    """The Certificate of params, its series summed in closed form unless
    their values are passed in.

    K1 rises with S1 and K2 falls with S2, so a summed series enters at
    the upper end of its bracket, value + half_width.  Without s1 and s2,
    equal params share one cached, frozen Certificate; with either, the
    Certificate is built afresh and not cached.
    """
    if s1 is None and s2 is None:
        return _certificate(params, None, None)
    return _certificate.__wrapped__(params, s1, s2)


@functools.lru_cache(maxsize=SERIES_CACHE_SIZE)
def _certificate(params, s1, s2):
    """certificate, cached on the whole params where s1 and s2 are None."""
    # params is valid by construction (so a(1-c) < 1): S1 skips the checks
    if s1 is None:
        est = _series_power_sum(params.kappa, 2.0, SERIES_TOL)
        s1 = est.value + est.half_width
    else:
        s1 = check_number(s1, "s1", minimum=0)
    if s2 is None:
        est = series_S2_detail(params.a, params.c, params.sigma)
        s2 = est.value + est.half_width
    else:
        s2 = check_number(s2, "s2", minimum=0)
    # Python floats throughout, so an overflow is inf and never a numpy
    # warning; a square past the float range raises, and log_K1 is inf
    try:
        lk1 = 2.0 * (params.N ** 2
                     + (params.a * s1 * params.mean_norm_bound) ** 2)
    except OverflowError:
        lk1 = math.inf
    k1 = math.exp(lk1) if lk1 <= 709.0 else math.inf
    k2 = 1.0 if s2 == 0.0 else min(1.0, 1.0 / (16.0 * s2))
    return Certificate(params=params, S1=s1, S2=s2, log_K1=lk1, K1=k1, K2=k2,
                       tail_exponent=tail_exponent(params))


def tail_bound(n, eps, params, s1=None, s2=None):
    """Certified bound on P{ ||x_{n+1} - x*|| > eps }; see Certificate."""
    return certificate(params, s1=s1, s2=s2).report(n, eps)


def min_iterations_for_confidence(eps, alpha, params, n_cap=10 ** 12):
    """Smallest n with clipped tail bound <= alpha, or None past n_cap."""
    return certificate(params).min_iterations(eps, alpha, n_cap)


def rate_envelope(n, eps0, params):
    """The convergence-rate envelope eps0 * sqrt(ln n / n^(a(1-c)-rho)).

    Defined for n >= 2 and requires rho < a(1-c) (positive rate exponent);
    this is the *rate* exponent, deliberately distinct from the tail one.
    """
    n = check_number(n, "n", integer=True, minimum=2)
    eps0 = check_number(eps0, "eps0", minimum=0)
    gamma_r = rate_exponent(params)
    if gamma_r <= 0.0:
        raise ValidationError(
            "bounds.rho: rate envelope needs rho < a(1-c); "
            f"got rate exponent {gamma_r:.6g}")
    return eps0 * math.sqrt(math.log(n) / math.exp(gamma_r * math.log(n)))


def canonical_eps0(params, d=1):
    """The almost-sure scale sqrt((1+d)/K2); see Certificate.eps0."""
    return certificate(params).eps0(d)
