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
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stochmann import bounds
from stochmann.bounds import (BoundParams, Certificate, canonical_eps0,
                              certificate, envelope_sequence,
                              min_iterations_for_confidence,
                              product_bound, rate_envelope, rate_exponent,
                              series_S1_detail, series_S2_detail, tail_bound,
                              tail_exponent)
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
    # a non-numeric field is a ValidationError naming it, not a TypeError
    with pytest.raises(ValidationError, match="bounds.N"):
        params(N="1")


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
        got = envelope_sequence(p, norms[:n])[n - 1]
        assert abs(float(total) - got) <= 1e-13 * max(1.0, float(total))


def test_envelope_sequence_refuses_what_is_not_a_norm():
    p = params()
    for bad in (5.0, np.float64(5.0), ["a"], [True], [1.0, True],
                np.array([True]), [math.nan], [math.inf], [-math.inf],
                [-1.0], np.array([0.1, -1.0]), [[0.1], [0.1, 0.2]]):
        with pytest.raises(ValidationError, match="^noise_norms: "):
            envelope_sequence(p, bad)
    # a list of numbers and an integer array read as their float64 array
    assert np.array_equal(envelope_sequence(p, [[0, 1], [2.5, 3]]),
                          envelope_sequence(p, np.array([[0.0, 1.0],
                                                         [2.5, 3.0]])))
    assert np.array_equal(envelope_sequence(p, np.array([1, 2])),
                          envelope_sequence(p, [1.0, 2.0]))


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


def test_series_S1_refuses_a_gain_of_one_or_more():
    # the rule BoundParams and series_S2_detail apply, so a(1-c) < 1
    for a in (1.0, 1.5):
        with pytest.raises(ValidationError, match=r"^a: .*< 1"):
            series_S1_detail(a, 0.5)


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


def test_squares_past_the_float_range_make_log_K1_inf():
    # N^2 or (a S1 mean_norm_bound)^2 overflows: the bound clips to 1 and
    # no n certifies
    for p in (params(N=1e200), params(mnb=1e200)):
        cert = certificate(p)
        assert cert.log_K1 == cert.K1 == math.inf
        report = cert.report(10**6, 0.1)
        assert report.log_raw_bound == math.inf
        assert report.clipped_bound == 1.0
        assert cert.min_iterations(0.1, 0.05, 10**12) is None


def test_constants_are_python_floats():
    # from numpy scalar fields too, so no bound arithmetic is numpy's:
    # eps^2 = inf is inf, not an overflow warning
    p = params(N=np.float64(0.7), a=np.float64(0.9), c=np.float32(0.25),
               sigma=np.float64(0.1), mnb=np.float64(0.1),
               rho=np.float64(0.5))
    cert = certificate(p)
    estimate = series_S1_detail(np.float64(0.5), np.float64(0.5))
    report = cert.report(10, 1e308)
    values = [*vars(p).values(), cert.S1, cert.S2, cert.log_K1, cert.K1,
              cert.K2, cert.tail_exponent, estimate.value,
              estimate.half_width, *vars(report).values()]
    assert {type(v) for v in values} == {float, int}
    assert report.log_raw_bound == -math.inf and report.clipped_bound == 0.0


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the certificate "
                   "ignores L and is optimistic for the three-point law")
@pytest.mark.parametrize("M, p, n, rho", [(39.8, 1.78e-5, 500, 0.5),
                                          (12.6, 1.78e-4, 50, 0.01)])
def test_tail_bound_is_not_below_the_three_point_witness(M, p, n, rho):
    # xi = +-M with probability p/2 each, else 0, meets the moment
    # condition with sigma = sqrt(p) M, L = M and E||xi|| = pM.  With
    # F = x* (c = 0) and x_1 = x* (N = 0), the event {xi_1 != 0, xi_j = 0
    # for 1 < j <= n} leaves ||x_{n+1} - x*|| = G_1 M, so the tail at eps
    # is at least p (1-p)^(n-1) whenever G_1 M > eps.
    a, eps = 0.5, 1.0
    g1 = a * math.prod(1.0 - a / j for j in range(2, n + 1))
    assert g1 * M > eps
    law = params(N=0.0, a=a, c=0.0, sigma=math.sqrt(p) * M, L=M, mnb=p * M,
                  rho=rho)
    assert tail_bound(n, eps, law).clipped_bound >= p * (1.0 - p) ** (n - 1)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 17: log_bound rounds to nearest, so "
                   "it can fall below the exact bound")
def test_log_bound_is_not_below_its_formula_in_exact_arithmetic():
    import mpmath
    p = BoundParams(N=1.0639018881666384, a=0.9362620071560341,
                    c=0.10843694574365774, sigma=0.14070693412258134,
                    L=0.7113560038383276, mean_norm_bound=1.6217906489318266,
                    rho=0.40564622457788296)
    n, eps = 7398230, 0.4744060703269393
    cert = certificate(p)
    with mpmath.workdps(60):
        N, a, c, mnb, rho, S1, S2 = map(mpmath.mpf, (
            p.N, p.a, p.c, p.mean_norm_bound, p.rho, cert.S1, cert.S2))
        log_k1 = 2 * (N ** 2 + (a * S1 * mnb) ** 2)
        k2 = min(mpmath.mpf(1), 1 / (16 * S2))
        gamma = 2 * a * (1 - c) - rho
        exact = log_k1 - k2 * mpmath.mpf(n) ** gamma * mpmath.mpf(eps) ** 2
        # the float value sits 5.2e-8 below exact
        assert cert.log_bound(n, eps) >= exact

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


def search_from_one(cert, eps, alpha, n_cap):
    """min_iterations as it searched before its closed-form seed:
    exponential growth from n = 1, then bisection."""
    log_alpha = math.log(alpha)

    def ok(n):
        return cert.log_bound(n, eps) <= log_alpha

    if ok(1):
        return 1
    if not ok(n_cap):
        return None
    lo = 1
    hi = 2
    while not ok(min(hi, n_cap)):
        lo, hi = hi, hi * 2
    hi = min(hi, n_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


N_CAPS = (1, 2, 3, 10**6, 10**18)


def search_case(a, c, tail_decades, sigma, N, mnb, alpha, n_cap, log10_eps,
                log10_target):
    """A certificate and an (eps, alpha, n_cap) to size it at.  The tail
    exponent is 2a(1-c) times 10^-tail_decades.  eps is 10^log10_eps, or,
    when log10_target is given, the eps whose closed-form n_alpha is
    10^log10_target."""
    kappa2 = 2.0 * a * (1.0 - c)
    cert = certificate(params(N=N, a=a, c=c, sigma=sigma, mnb=mnb,
                              rho=kappa2 * (1.0 - 10.0 ** -tail_decades)))
    if log10_target is None:
        eps = 10.0 ** log10_eps
    else:
        eps = math.exp(0.5 * (math.log(cert.log_K1 - math.log(alpha))
                              - math.log(cert.K2) - cert.tail_exponent
                              * log10_target * math.log(10.0)))
    return cert, eps, alpha, n_cap


SEARCH_CASES = st.builds(
    search_case, st.floats(0.01, 0.99), st.floats(0.0, 0.99),
    st.floats(0.0005, 6.0), st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
    st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(1e-9, 0.999),
    st.sampled_from(N_CAPS), st.floats(-170.0, 0.5),
    st.one_of(st.none(), st.floats(-1.0, 19.0)))


@given(SEARCH_CASES)
@settings(max_examples=300, deadline=None)
def test_min_iterations_equals_search_from_one(case):
    cert, eps, alpha, n_cap = case
    assume(np.isfinite(eps) and eps > 0.0)
    assert cert.min_iterations(eps, alpha, n_cap) \
        == search_from_one(cert, eps, alpha, n_cap)


def searched_sample(rng, tail_decades, size=400):
    """Certificates sized at eps whose n_alpha lies 10^0.5..10^17.5, under a
    cap of 10^18, so every case runs the search."""
    cases = []
    while len(cases) < size:
        case = search_case(
            rng.uniform(0.01, 0.99), rng.uniform(0.0, 0.99), tail_decades(),
            (0.0, rng.uniform(1e-3, 5.0))[rng.integers(2)],
            rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0),
            rng.uniform(1e-9, 0.999), 10**18, None, rng.uniform(0.5, 17.5))
        if np.isfinite(case[1]) and case[1] > 0.0:
            cases.append(case)
    return cases


def test_min_iterations_needs_few_bound_evaluations(monkeypatch):
    calls = []
    log_bound = Certificate.log_bound

    def counted(self, n, eps):
        calls.append(n)
        return log_bound(self, n, eps)

    def mean_counts(cases):
        seeded, from_one = [], []
        for case in cases:
            calls.clear()
            n_alpha = case[0].min_iterations(*case[1:])
            seeded.append(len(calls))
            calls.clear()
            assert search_from_one(*case) == n_alpha
            from_one.append(len(calls))
            assert 1 < n_alpha < case[3]
        return np.mean(seeded), np.mean(from_one)

    monkeypatch.setattr(Certificate, "log_bound", counted)
    rng = np.random.default_rng(13)
    # rho uniform over its range (0, 2a(1-c))
    seeded, from_one = mean_counts(searched_sample(
        rng, lambda: -math.log10(rng.uniform(0.001, 0.998))))
    assert from_one > 40.0
    assert seeded <= 8.0
    # tail exponents log-uniform down to 1e-6 of 2a(1-c): the float bound
    # pins its threshold only to a relative 1e-16/gamma, so the gallop
    # from the seed runs longer, still under half the search from 1
    seeded, from_one = mean_counts(searched_sample(
        rng, lambda: rng.uniform(0.0005, 6.0)))
    assert seeded <= 0.5 * from_one


def test_min_iterations_closed_form_seed_survives_extremes():
    p = params(**ART)
    cert = certificate(p)
    # eps^2 underflows to zero: no n qualifies, and no log of zero is taken
    assert cert.min_iterations(1e-170, 0.05, 10**18) is None
    # a tail exponent of ~1e-6 puts the closed-form n far past any cap
    slow = certificate(params(**dict(ART, rho=1.8 * (1.0 - 1e-6))))
    assert slow.min_iterations(0.1, 0.05, 10**18) is None
    assert slow.min_iterations(10.0, 0.05, 10**18) \
        == search_from_one(slow, 10.0, 0.05, 10**18)
    # no noise: K2 = 1
    quiet = certificate(params(**dict(ART, sigma=0.0)))
    assert quiet.K2 == 1.0
    assert quiet.min_iterations(0.1, 0.05, 10**6) \
        == search_from_one(quiet, 0.1, 0.05, 10**6)
    assert cert.min_iterations(0.1, 0.05, np.int64(10**6)) == 3154


def test_min_iterations_gallops_from_a_seed_on_the_cap(monkeypatch):
    # n_cap = n_alpha puts the closed-form seed on the cap: the first probe
    # is clamped below it, so the search neither bisects all of [1, n_cap]
    # nor spends more than the ends and a probe or two
    cert = certificate(params(**ART))
    calls = []
    log_bound = Certificate.log_bound

    def counted(self, n, eps):
        calls.append(n)
        return log_bound(self, n, eps)

    monkeypatch.setattr(Certificate, "log_bound", counted)
    for eps, magnitude in ((0.1, 3e3), (1e-3, 9e7), (1e-5, 2e12)):
        n_alpha = cert.min_iterations(eps, 0.05, 10**18)
        assert 0.5 * magnitude < n_alpha < 2.0 * magnitude
        calls.clear()
        assert cert.min_iterations(eps, 0.05, n_alpha) == n_alpha
        assert len(calls) <= 4, calls


def test_counts_refuse_bool():
    p = params(**ART)
    cert = certificate(p)
    for call in (lambda: tail_bound(True, 0.1, p),
                 lambda: cert.report(True, 0.1),
                 lambda: cert.report(np.bool_(True), 0.1),
                 lambda: cert.min_iterations(0.1, 0.05, n_cap=True),
                 lambda: min_iterations_for_confidence(0.1, 0.05, p,
                                                       n_cap=True),
                 lambda: rate_envelope(True, 1.0, p),
                 lambda: product_bound(True, 2, 0.5, 0.3)):
        with pytest.raises(ValidationError, match="integer"):
            call()
    # nor is a bool a real
    with pytest.raises(ValidationError, match="bounds.N"):
        params(N=True)
    assert cert.report(1, 0.1).n == 1
    assert cert.min_iterations(0.1, 0.05, n_cap=1) is None


# --- series refusals ---------------------------------------------------------

def test_series_refusals_raise_every_call():
    bounds._certificate.cache_clear()
    for _ in range(2):
        with pytest.raises(ValidationError, match="unattainable"):
            series_S1_detail(0.5, 0.3, tol=1e-20)
        with pytest.raises(ValidationError, match="need 0 <= p < 2"):
            bounds._series_power_sum(2.5, 4.0, 1e-10)
        with pytest.raises(ValidationError, match="tol"):
            bounds._series_power_sum(0.5, 2.0, 0.0)


# --- certificate cache -------------------------------------------------------

CERT_BITS = ("S1", "S2", "log_K1", "K1", "K2", "tail_exponent")
REPORT_BITS = CERT_BITS + ("eps", "rate_exponent", "raw_bound",
                           "log_raw_bound", "clipped_bound")


def bits(record, names=CERT_BITS):
    """The named floats of a Certificate or BoundReport, by float.hex."""
    return [float(getattr(record, name)).hex() for name in names]


def uncached(p):
    return bounds._certificate.__wrapped__(p, None, None)


def test_equal_params_share_one_certificate():
    bounds._certificate.cache_clear()
    first = certificate(params(a=0.61, c=0.17))
    assert certificate(params(a=0.61, c=0.17)) is first
    assert canonical_eps0(params(a=0.61, c=0.17)) == first.eps0()
    info = bounds._certificate.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert info.maxsize == bounds.CERTIFICATE_CACHE_SIZE  # bounded


def test_every_field_keys_the_certificate_cache():
    base = dict(N=0.5, a=0.61, c=0.17, sigma=1.0, L=1.0, mnb=0.5, rho=0.3)
    shared = certificate(params(**base))
    changed = dict(N=1.5, a=0.6, c=0.2, sigma=0.5, L=2.0, mnb=0.25, rho=0.2)
    for field, value in changed.items():
        p = params(**dict(base, **{field: value}))
        cert = certificate(p)
        assert cert is not shared and cert.params == p, field
        assert bits(cert) == bits(uncached(p)), field
    assert certificate(params(**base)) is shared


def test_int_and_signed_zero_fields_give_identical_bits():
    for first, second in ((params(N=1), params(N=1.0)),
                          (params(c=-0.0), params(c=0.0))):
        for p, q in ((first, second), (second, first)):
            bounds._certificate.cache_clear()
            cert = certificate(p)
            assert certificate(q) is cert
            assert bits(cert) == bits(uncached(p)) == bits(uncached(q))
            assert bits(tail_bound(10, 0.1, q), REPORT_BITS) \
                == bits(uncached(q).report(10, 0.1), REPORT_BITS)


def test_series_overrides_neither_read_nor_fill_the_cache():
    p = params(a=0.61, c=0.17)
    bounds._certificate.cache_clear()
    for s1, s2 in ((1.5, 0.2), (1.5, None), (None, 0.2)):
        cert = certificate(p, s1=s1, s2=s2)
        assert cert.S1 == (s1 or upper(series_S1_detail(p.a, p.c)))
        tail_bound(10, 0.1, p, s1=s1, s2=s2)
    assert bounds._certificate.cache_info()[:2] == (0, 0)  # hits, misses
    assert bounds._certificate.cache_info().currsize == 0
    shared = certificate(p)
    assert certificate(p, s1=shared.S1, s2=shared.S2) is not shared
    assert tail_bound(10, 0.1, p, s1=1.5, s2=0.2).S1 == 1.5
    assert bounds._certificate.cache_info()[:2] == (0, 1)


@pytest.mark.parametrize("name", ["s1", "s2"])
@pytest.mark.parametrize("value", [math.nan, -1.0, "x"])
def test_series_overrides_must_be_finite_and_nonnegative(name, value):
    # the rule of S2 holds for S1 too: a nan would make log_K1 nan and the
    # clipped bound 1, and -1 would be squared into a finite bound
    p = params()
    with pytest.raises(ValidationError, match=f"^{name}: "):
        certificate(p, **{name: value})
    with pytest.raises(ValidationError, match=f"^{name}: "):
        tail_bound(10**6, 0.1, p, **{name: value})


@st.composite
def valid_params(draw):
    a, c = draw(st.floats(0.01, 0.99)), draw(st.floats(0.0, 0.99))
    return BoundParams(
        N=draw(st.floats(0.0, 5.0)), a=a, c=c,
        sigma=draw(st.one_of(st.just(0.0), st.floats(1e-3, 5.0))),
        L=draw(st.floats(0.01, 5.0)), mean_norm_bound=draw(st.floats(0.0, 5.0)),
        rho=2.0 * a * (1.0 - c) * draw(st.floats(0.001, 0.999)))


@given(valid_params(), st.integers(1, 10**9), st.floats(1e-3, 10.0),
       st.floats(1e-6, 0.999), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_cached_one_shot_forms_equal_uncached_bitwise(p, n, eps, alpha, d):
    fresh = uncached(p)
    assert bits(tail_bound(n, eps, p), REPORT_BITS) \
        == bits(fresh.report(n, eps), REPORT_BITS)
    assert min_iterations_for_confidence(eps, alpha, p) \
        == fresh.min_iterations(eps, alpha)
    assert canonical_eps0(p, d).hex() == fresh.eps0(d).hex()
    assert bits(certificate(p)) == bits(fresh)


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
