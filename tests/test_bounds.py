"""Analytic bound machinery against exact and independent oracles.

Products and envelopes are replayed in Fraction arithmetic; series values
are checked against quadrature for the tail integral after the x -> 1/u
substitution (naive quadrature on the unbounded interval silently drops
slow tails, the alg-weighted form does not).
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stochmann.bounds import (BoundParams, canonical_eps0, certificate,
                              deterministic_envelope, envelope_sequence,
                              min_iterations_for_confidence, product_bound,
                              rate_envelope, rate_exponent, series_S1_detail,
                              series_S2_detail, tail_bound, tail_exponent)
from stochmann.errors import ValidationError

ROOT = Path(__file__).resolve().parent.parent


def params(N=0.5, a=0.5, c=0.3, sigma=1.0, L=1.0, mnb=0.5, rho=None):
    if rho is None:
        rho = 0.5 * 2.0 * a * (1.0 - c)
    return BoundParams(N=N, a=a, c=c, sigma=sigma, L=L, mean_norm_bound=mnb,
                       rho=rho)


def test_boundparams_validation():
    with pytest.raises(ValidationError):
        params(N=-0.1)
    with pytest.raises(ValidationError):
        params(a=1.0)
    with pytest.raises(ValidationError):
        params(a=0.0)
    with pytest.raises(ValidationError):
        params(c=1.0)
    with pytest.raises(ValidationError):
        params(sigma=-1.0)
    with pytest.raises(ValidationError):
        params(L=0.0)
    with pytest.raises(ValidationError):
        params(rho=0.0)
    with pytest.raises(ValidationError):
        params(a=0.5, c=0.5, rho=0.5)  # rho must stay below 2a(1-c)
    p = params(N=0.0)  # starting at the fixed point is legal
    assert p.N == 0.0


def test_exponent_definitions():
    p = params(a=0.5, c=0.2, rho=0.3)
    assert np.isclose(tail_exponent(p), 2 * 0.5 * 0.8 - 0.3)
    assert np.isclose(rate_exponent(p), 0.5 * 0.8 - 0.3)
    assert p.kappa == 0.5 * 0.8
    # the two exponents differ by a(1-c); they are not interchangeable
    assert tail_exponent(p) - rate_exponent(p) == pytest.approx(0.4)


def test_product_bound_against_fraction_product():
    a, c = Fraction(1, 2), Fraction(1, 4)
    kappa = a * (1 - c)
    for i, n in ((1, 1), (1, 10), (3, 17), (9, 10), (10, 10), (50, 200)):
        lhs, rhs = product_bound(i, n, float(a), float(c))
        exact = Fraction(1)
        for j in range(i + 1, n + 1):
            exact *= 1 - kappa / j
        assert abs(float(exact) - lhs) <= 1e-13 * max(1.0, lhs)
        assert lhs <= rhs * (1.0 + 1e-12)
        expected_rhs = ((i + 1) / (n + 1)) ** float(kappa)
        assert np.isclose(rhs, expected_rhs, rtol=1e-14)


@given(st.integers(1, 2000), st.integers(0, 2000),
       st.floats(0.01, 0.99), st.floats(0.0, 0.99))
@settings(max_examples=300, deadline=None)
def test_product_bound_inequality_randomized(i, extra, a, c):
    lhs, rhs = product_bound(i, i + extra, a, c)
    assert lhs <= rhs * (1.0 + 1e-14)


def test_product_bound_check_survives_optimized_mode():
    # python -O strips asserts; the check must still raise
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from stochmann.bounds import product_bound\n"
        "from stochmann.errors import StochmannError\n"
        "assert sys.flags.optimize\n"
        "np.prod = lambda *args, **kwargs: 2.0\n"
        "try:\n"
        "    product_bound(1, 10, 0.5, 0.3)\n"
        "except StochmannError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    print('no error')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rhs = float((2.0 / 11.0) ** (0.5 * (1.0 - 0.3)))
    assert "2.0" in proc.stdout and repr(rhs) in proc.stdout, proc.stdout


def test_product_bound_equality_at_empty_product():
    lhs, rhs = product_bound(7, 7, 0.5, 0.3)
    assert lhs == 1.0 and rhs == 1.0


def test_envelope_matches_fraction_expansion():
    a, c = Fraction(1, 2), Fraction(1, 3)
    N = Fraction(7, 10)
    rng = np.random.default_rng(17)
    norms = rng.uniform(0.0, 2.0, size=30)
    p = params(N=float(N), a=float(a), c=float(c))
    kappa = a * (1 - c)
    for n in (1, 2, 5, 17, 30):
        head = N
        for j in range(1, n + 1):
            head *= 1 - kappa / j
        total = head
        for i in range(1, n + 1):
            w = a / Fraction(i * i)
            for j in range(i + 1, n + 1):
                w *= 1 - kappa / j
            total += w * Fraction(float(norms[i - 1]))
        got = deterministic_envelope(n, p, norms[:n])
        assert abs(float(total) - got) <= 1e-13 * max(1.0, float(total))


def test_envelope_sequence_consistent_with_pointwise():
    p = params(N=0.7, a=0.9, c=0.0)
    rng = np.random.default_rng(3)
    norms = rng.uniform(0.0, 3.0, size=100)
    seq = envelope_sequence(p, norms)
    for n in (1, 7, 50, 100):
        assert np.isclose(seq[n - 1], deterministic_envelope(n, p, norms[:n]),
                          rtol=1e-12)


def test_envelope_sequence_batched_matches_rows():
    p = params()
    rng = np.random.default_rng(4)
    norms = rng.uniform(0.0, 1.0, size=(8, 40))
    batch = envelope_sequence(p, norms)
    for r in range(8):
        assert np.array_equal(batch[r], envelope_sequence(p, norms[r]))


def test_envelope_zero_noise_closed_form():
    p = params(N=1.0, a=0.5, c=0.5, sigma=0.0)
    norms = np.zeros(50)
    seq = envelope_sequence(p, norms)
    prods = np.cumprod(1.0 - p.kappa / np.arange(1, 51))
    assert np.allclose(seq, prods, rtol=1e-14)


# --- series -----------------------------------------------------------------

def tail_integral_bracket(p, q, M):
    """[lower, upper] for sum_{i>M} (i+1)^p / i^q via monotone convexity.

    integral_t^infty (x+1)^p x^-q dx becomes, after x = 1/u,
    integral_0^(1/t) (1+u)^p u^(q-p-2) du whose endpoint power the alg
    weight integrates exactly.
    """
    def tail_int(t):
        val, err = quad(lambda u: (1.0 + u) ** p, 0.0, 1.0 / t,
                        weight="alg", wvar=(q - p - 2.0, 0.0), limit=200)
        return val, err
    f_next = (M + 2.0) ** p / (M + 1.0) ** q
    lo_i, lo_e = tail_int(M + 1.0)
    hi_i, hi_e = tail_int(M + 0.5)
    return lo_i + 0.5 * f_next - lo_e, hi_i + hi_e


def brute_series(p, q, terms=10**6):
    x = np.arange(1, terms + 1, dtype=np.float64)
    partial = float(np.sum((x + 1.0) ** p / x ** q))
    lo, hi = tail_integral_bracket(p, q, terms)
    return partial + lo, partial + hi


def test_series_S1_matches_quadrature_oracle():
    # a(1-c) = 0.99 and 0.999 are the slowly converging regime, where
    # zeta(q-p, M) sits near its pole at 1
    for a, c in ((0.5, 0.65), (0.9, 0.0), (0.1, 0.9), (0.99, 0.0),
                 (0.999, 0.0)):
        lo, hi = brute_series(a * (1 - c), 2.0)
        est = series_S1_detail(a, c, 1e-10)
        assert lo - 1e-9 <= est.value <= hi + 1e-9
        assert est.half_width <= 0.5 * 1e-10 * max(1.0, est.value) * 1.0001


def test_series_unattainable_tol_raises():
    with pytest.raises(ValidationError):
        series_S1_detail(0.5, 0.3, 1e-20)
    with pytest.raises(ValidationError):
        series_S2_detail(0.5, 0.3, 1.0, 1e-20)


def test_series_S2_matches_quadrature_oracle():
    a, c, sigma = 0.5, 0.0, 2.0
    lo, hi = brute_series(2 * a * (1 - c), 4.0)
    scale = 4.0 * a * a * sigma * sigma
    est = series_S2_detail(a, c, sigma, 1e-10)
    assert scale * lo - 1e-9 <= est.value <= scale * hi + 1e-9


def test_series_limit_is_basel_sum():
    # p -> 0 collapses the summand to 1/i^2
    val = series_S1_detail(1e-9, 0.0, 1e-10).value
    assert abs(val - math.pi**2 / 6.0) < 1e-6


def test_series_certified_width_brackets_refined_value():
    for a, c in ((0.5, 0.65), (0.9, 0.0)):
        coarse = series_S1_detail(a, c, 1e-8)
        fine = series_S1_detail(a, c, 1e-12)
        assert abs(coarse.value - fine.value) \
            <= coarse.half_width + fine.half_width


def test_series_S2_sigma_scaling():
    a, c = 0.5, 0.3
    base = series_S2_detail(a, c, 1.0, 1e-11).value
    assert np.isclose(series_S2_detail(a, c, 3.0, 1e-11).value, 9.0 * base,
                      rtol=1e-9)
    assert series_S2_detail(a, c, 0.0).value == 0.0


def test_series_rejects_divergent_exponent():
    with pytest.raises(ValidationError):
        series_S1_detail(0.999999, -1e9, 1e-8)  # c outside [0,1)


# --- constants and the tail bound -------------------------------------------

def upper(est):
    """The upper end of a series bracket, which certificates use."""
    return est.value + est.half_width


def test_log_K1_plug_in():
    p = params(N=0.7, a=0.9, c=0.0, mnb=0.1)
    cert = certificate(p)
    assert cert.S1 == upper(series_S1_detail(p.a, p.c))
    expected = 2.0 * (0.7**2 + (0.9 * cert.S1 * 0.1) ** 2)
    assert np.isclose(cert.log_K1, expected, rtol=1e-14)


def test_constants_K_plug_in():
    p = params(N=0.7, a=0.9, c=0.0, sigma=0.1, mnb=0.1)
    s1 = upper(series_S1_detail(p.a, p.c))
    s2 = upper(series_S2_detail(p.a, p.c, p.sigma))
    cert = certificate(p)
    K1, K2 = cert.K1, cert.K2
    assert cert.S1 == s1 and cert.S2 == s2
    assert np.isclose(K1, math.exp(2.0 * (0.49 + (0.09 * s1) ** 2)), rtol=1e-12)
    assert np.isclose(K2, min(1.0, 1.0 / (16.0 * s2)), rtol=1e-14)


def test_constants_K_noiseless_and_overflow():
    p0 = params(N=0.0, a=0.5, c=0.5, sigma=0.0, mnb=0.0)
    cert0 = certificate(p0)
    assert cert0.S2 == 0.0
    assert cert0.K1 == 1.0 and cert0.K2 == 1.0  # zero start, zero noise
    phuge = params(N=30.0, a=0.5, c=0.5, sigma=2.0, mnb=2.0)
    cert = certificate(phuge)
    assert math.isinf(cert.K1)
    assert np.isfinite(cert.log_K1)


def test_tail_bound_plug_in_arithmetic():
    p = params(N=0.18232780382804766, a=0.5, c=0.649519052838329,
               sigma=4.0, L=4.0, mnb=1.5957691216057308,
               rho=0.5 * 2 * 0.5 * (1 - 0.649519052838329))
    rep = tail_bound(1000, 0.1, p)
    s1 = upper(series_S1_detail(p.a, p.c))
    s2 = upper(series_S2_detail(p.a, p.c, p.sigma))
    lk1 = 2.0 * (p.N**2 + (p.a * s1 * p.mean_norm_bound) ** 2)
    k2 = min(1.0, 1.0 / (16.0 * s2))
    gamma = 2 * p.a * (1 - p.c) - p.rho
    log_raw = lk1 - k2 * 1000.0**gamma * 0.1**2
    assert np.isclose(rep.log_raw_bound, log_raw, rtol=1e-12)
    assert np.isclose(rep.raw_bound, math.exp(log_raw), rtol=1e-12)
    assert rep.clipped_bound == min(1.0, rep.raw_bound)
    assert rep.S1 == s1 and rep.S2 == s2


def test_tail_bound_monotone_in_n_and_eps():
    p = params(N=0.7, a=0.9, c=0.0, sigma=0.1, L=0.1, mnb=0.1, rho=0.9)
    cert = certificate(p)
    raws = [cert.report(n, 0.1).raw_bound
            for n in (1, 3, 10, 100, 1000, 10000)]
    assert all(x > y for x, y in zip(raws, raws[1:]))
    raws_eps = [cert.report(100, e).raw_bound
                for e in (0.01, 0.05, 0.1, 0.5, 1.0)]
    assert all(x > y for x, y in zip(raws_eps, raws_eps[1:]))


def test_tail_bound_clipped_in_unit_interval():
    p = params()
    for n in (1, 10, 1000):
        for eps in (0.01, 0.1, 1.0):
            rep = tail_bound(n, eps, p)
            assert 0.0 <= rep.clipped_bound <= 1.0


def test_tail_bound_rejects_bad_inputs():
    p = params()
    with pytest.raises(ValidationError):
        tail_bound(0, 0.1, p)
    with pytest.raises(ValidationError):
        tail_bound(10, 0.0, p)


# --- confidence sizing -------------------------------------------------------

ART = dict(N=0.7, a=0.9, c=0.0, sigma=0.1, L=0.1, mnb=0.1, rho=0.9)


def linear_scan(eps, alpha, p, cap):
    cert = certificate(p)
    for n in range(1, cap + 1):
        if cert.report(n, eps).raw_bound <= alpha:
            return n
    return None


def test_min_iterations_matches_linear_scan():
    p = params(**ART)
    assert min_iterations_for_confidence(0.2, 0.1, p, n_cap=10**6) \
        == linear_scan(0.2, 0.1, p, 1000) == 594
    p2 = params(N=0.2, a=0.8, c=0.1, sigma=0.05, L=0.05, mnb=0.05, rho=0.7)
    assert min_iterations_for_confidence(0.3, 0.05, p2, n_cap=10**6) \
        == linear_scan(0.3, 0.05, p2, 300) == 123


def test_min_iterations_is_minimal():
    p = params(**ART)
    n_alpha = min_iterations_for_confidence(0.1, 0.05, p, n_cap=10**6)
    assert n_alpha == 3154
    assert tail_bound(n_alpha, 0.1, p).raw_bound <= 0.05
    assert tail_bound(n_alpha - 1, 0.1, p).raw_bound > 0.05


def test_min_iterations_none_beyond_cap():
    p = params(**ART)
    assert min_iterations_for_confidence(0.1, 0.05, p, n_cap=100) is None


def test_min_iterations_monotone_in_alpha():
    p = params(**ART)
    ns = [min_iterations_for_confidence(0.1, alpha, p, n_cap=10**6)
          for alpha in (0.2, 0.1, 0.05, 0.01)]
    assert all(x <= y for x, y in zip(ns, ns[1:]))


# --- rate envelope -----------------------------------------------------------

def test_rate_envelope_formula():
    p = params(a=0.5, c=0.2, rho=0.2)  # rate exponent 0.2
    gamma_r = rate_exponent(p)
    for n in (2, 10, 1000):
        expected = 2.5 * math.sqrt(math.log(n) / n**gamma_r)
        assert np.isclose(rate_envelope(n, 2.5, p), expected, rtol=1e-14)


def test_rate_envelope_unimodal_shape():
    p = params(a=0.5, c=0.2, rho=0.2)
    gamma_r = rate_exponent(p)
    peak = math.exp(1.0 / gamma_r)
    before = [rate_envelope(n, 1.0, p) for n in (3, 10, 30, 100)]
    assert all(x < y for x, y in zip(before, before[1:]))  # still rising
    start = int(peak) + 1
    after = [rate_envelope(n, 1.0, p)
             for n in range(start, start + 2000, 100)]
    assert all(x > y for x, y in zip(after, after[1:]))  # decays past peak


def test_rate_envelope_rejects_degenerate_exponent():
    p = params(a=0.5, c=0.5, rho=0.25)  # rho = a(1-c), exponent zero
    assert rate_exponent(p) == 0.0
    with pytest.raises(ValidationError):
        rate_envelope(10, 1.0, p)
    good = params(a=0.5, c=0.5, rho=0.1)
    with pytest.raises(ValidationError):
        rate_envelope(1, 1.0, good)


def test_canonical_eps0_formula():
    p = params(N=0.7, a=0.9, c=0.0, sigma=0.1, mnb=0.1, rho=0.45)
    s2 = series_S2_detail(p.a, p.c, p.sigma).value
    k2 = min(1.0, 1.0 / (16.0 * s2))
    assert np.isclose(canonical_eps0(p, d=1), math.sqrt(2.0 / k2), rtol=1e-12)
    assert np.isclose(canonical_eps0(p, d=3), math.sqrt(4.0 / k2), rtol=1e-12)


@given(st.floats(0.05, 0.95), st.floats(0.0, 0.9), st.floats(0.01, 2.0),
       st.integers(1, 10**6), st.floats(0.01, 1.0))
@settings(max_examples=100, deadline=None)
def test_tail_bound_randomized_sanity(a, c, sigma, n, eps):
    p = BoundParams(N=0.5, a=a, c=c, sigma=sigma, L=max(sigma, 0.1),
                    mean_norm_bound=sigma, rho=0.5 * 2 * a * (1 - c))
    rep = certificate(p).report(n, eps)
    assert 0.0 <= rep.clipped_bound <= 1.0
    assert rep.raw_bound >= 0.0
    assert rep.tail_exponent > 0.0
