import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma

from stochmann.errors import ValidationError
from stochmann.noise import (NoiseModel, bounded_uniform, cramer_check,
                             default_cramer_params, gaussian, sample_block,
                             sample_many, zero)


def halfnormal_moment(s, m):
    # E|s Z|^m for standard normal Z
    return s**m * 2.0 ** (m / 2.0) * gamma((m + 1) / 2.0) / math.sqrt(math.pi)


def uniform_abs_moment(h, m):
    return h**m / (m + 1.0)


def test_default_cramer_params_closed_forms():
    assert default_cramer_params("zero") == (0.0, 1.0, 0.0)
    s = 1.7
    sig, L, mnb = default_cramer_params("gaussian", s, dim=1)
    assert np.isclose(sig, 2.0 * s) and np.isclose(L, 2.0 * s)
    assert np.isclose(mnb, s * math.sqrt(2.0 / math.pi))
    sig, L, mnb = default_cramer_params("gaussian", s, dim=4)
    assert np.isclose(sig, 2.0 * s * 2.0) and np.isclose(mnb, s * 2.0)
    h = 0.3
    sig, L, mnb = default_cramer_params("bounded_uniform", h, dim=9)
    assert np.isclose(sig, h * 3.0) and np.isclose(L, h * 3.0)
    assert np.isclose(mnb, h * 3.0)


def test_gaussian_moments_satisfy_raw_cramer_bound_analytically():
    # E|sZ|^m <= (m!/2) sigma^2 L^(m-2) with sigma = L = 2s
    s = 2.0
    for m in range(2, 16):
        lhs = halfnormal_moment(s, m)
        rhs = 0.5 * math.factorial(m) * (2 * s) ** 2 * (2 * s) ** (m - 2)
        assert lhs <= rhs


def test_bounded_uniform_moments_satisfy_raw_bound_analytically():
    h = 0.5
    for m in range(2, 16):
        assert uniform_abs_moment(h, m) <= 0.5 * math.factorial(m) * h**m


def log_moment_bound(family, p, d, norm_kind, m):
    """ln of an exact moment, or an upper bound on it, of ||xi||^m.

    Gaussian: the chi law of the Euclidean norm, which also bounds the max
    norm.  Uniform: |xi| on the line and the max of d |xi_i| in the max
    norm are exact; in the Euclidean norm at d >= 2, ||xi||^m <= ||xi||^2
    (h sqrt(d))^(m-2) with E||xi||^2 = d h^2/3.
    """
    if family == "gaussian":
        return (m * math.log(p) + 0.5 * m * math.log(2.0)
                + math.lgamma(0.5 * (d + m)) - math.lgamma(0.5 * d))
    if d == 1:
        return m * math.log(p) - math.log(m + 1.0)
    if norm_kind == "max":
        return m * math.log(p) + math.log(d / (d + m))
    return math.log(d * p * p / 3.0) + (m - 2) * math.log(p * math.sqrt(d))


@pytest.mark.parametrize("family, p", [("gaussian", 1.7),
                                       ("bounded_uniform", 0.3)])
@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("norm_kind", ["euclidean", "max"])
def test_shipped_cramer_defaults_meet_the_moment_condition(family, p, d,
                                                           norm_kind):
    sigma, L, mnb = default_cramer_params(family, p, dim=d)
    for m in range(2, 65):
        bound = (math.lgamma(m + 1.0) - math.log(2.0) + 2.0 * math.log(sigma)
                 + (m - 2) * math.log(L))
        assert log_moment_bound(family, p, d, norm_kind, m) <= bound, m
    # E||xi|| <= E||xi||^2 ^ (1/2) by Jensen; at d = 1 both means are exact,
    # and the Gaussian one equals its bound up to rounding
    if family == "gaussian":
        mean = p * math.sqrt(2.0) * math.exp(
            math.lgamma(0.5 * (d + 1)) - math.lgamma(0.5 * d))
    elif d == 1:
        mean = 0.5 * p
    else:
        mean = p * (d / (d + 1.0) if norm_kind == "max" else math.sqrt(d / 3.0))
    assert mean <= mnb * (1.0 + 1e-12)


@pytest.mark.parametrize("family, p, tightest", [
    ("gaussian", 1.7, 1.7), ("bounded_uniform", 0.3, 0.3 / math.sqrt(3.0))])
def test_tightest_sigma_at_the_shipped_L_on_the_line(family, p, tightest):
    # sigma^2 >= 2 E|xi|^m / (m! L^(m-2)) for every m; m = 2 binds
    _, L, _ = default_cramer_params(family, p, dim=1)
    need = max(math.log(2.0) + log_moment_bound(family, p, 1, "max", m)
               - math.lgamma(m + 1.0) - (m - 2) * math.log(L)
               for m in range(2, 65))
    assert math.isclose(math.exp(0.5 * need), tightest, rel_tol=1e-12)


def test_sample_pure_in_seed_and_index():
    model = gaussian(scale=1.5, dim=3)
    a = sample_block(model, 3, 123, 9)
    b = sample_block(model, 3, 123, 9)
    c = sample_block(model, 3, 123, 10)
    d = sample_block(model, 3, 124, 9)
    assert a.shape == (3,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_block_matches_scalar_calls():
    model = bounded_uniform(half_width=0.2, dim=2)
    idx = np.array([1, 5, 9, 1000])
    block = sample_block(model, 2, 77, idx)
    assert block.shape == (4, 2)
    for k, i in enumerate(idx):
        assert np.array_equal(block[k], sample_block(model, 2, 77, int(i)))


def test_sample_many_matches_scalar_calls():
    model = gaussian(scale=0.7)
    seeds = np.array([3, 8, 1], dtype=np.uint64)
    many = sample_many(model, 1, seeds, 42)
    for k, s in enumerate(seeds):
        assert np.array_equal(many[k], sample_block(model, 1, int(s), 42))


def test_sample_block_tiles_equal_slices_of_one_whole_draw():
    seeds = np.array([[3], [8], [1]], dtype=np.uint64)
    for dim in range(1, 6):
        for model in (gaussian(scale=0.7, dim=dim),
                      bounded_uniform(half_width=0.2, dim=dim), zero(dim=dim)):
            whole = sample_block(model, dim, seeds, np.arange(1, 17, dtype=np.uint64))
            # two full tiles, then a short last one
            for start, stop in ((1, 8), (8, 15), (15, 17)):
                idx = np.arange(start, stop, dtype=np.uint64)
                got = sample_block(model, dim, seeds, idx)
                assert got.shape == (3, stop - start, dim)
                assert np.array_equal(got, whole[:, start - 1:stop - 1]), (
                    model.family, dim)


def test_zero_noise_is_zero():
    model = zero(dim=4)
    assert np.all(sample_block(model, 4, 0, np.arange(10)) == 0.0)


def test_empirical_moments_match_half_normal():
    model = gaussian(scale=2.0)
    draws = np.abs(sample_block(model, 1, 31, np.arange(1, 10**5 + 1))[:, 0])
    for m in (1, 2, 3, 4):
        emp = float(np.mean(draws**m))
        ref = halfnormal_moment(2.0, m)
        se = float(np.std(draws**m)) / math.sqrt(draws.size)
        assert abs(emp - ref) < 5.0 * se


def test_empirical_moments_match_uniform():
    model = bounded_uniform(half_width=0.4)
    draws = np.abs(sample_block(model, 1, 13, np.arange(1, 10**5 + 1))[:, 0])
    assert np.all(draws <= 0.4)
    for m in (1, 2, 3):
        emp = float(np.mean(draws**m))
        ref = uniform_abs_moment(0.4, m)
        se = float(np.std(draws**m)) / math.sqrt(draws.size)
        assert abs(emp - ref) < 5.0 * se


def test_cramer_check_passes_for_catalog_models():
    for model in (gaussian(scale=2.0), bounded_uniform(half_width=0.3),
                  gaussian(scale=1.0, dim=3), zero(dim=2)):
        report = cramer_check(model, m_max=8, draws=2 * 10**4, seed=4)
        assert report.ok, [row for row in (report.mean, *report.raw,
                                           *report.centered) if not row.ok]


def test_cramer_check_reads_an_overflowing_standard_error_as_inf():
    # std squares the order-10 powers of norms near 2**70 past the float
    # range: the standard error is inf, with no warning, and the row holds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cramer_check(gaussian(2.0**70), draws=100)
    assert report.raw[-1].stderr == math.inf and report.raw[-1].ok
    assert math.isfinite(report.mean.stderr)


def test_cramer_check_refuses_draws_numpy_cannot_hold():
    # 10**20 draws exceed numpy's largest array before anything is allocated
    with pytest.raises(ValidationError, match="^draws: numpy cannot hold"):
        cramer_check(gaussian(scale=2.0), draws=10**20)


def test_cramer_check_flags_dishonest_parameters():
    # claim a far smaller sigma than the distribution actually has
    model = gaussian(scale=2.0, sigma=0.01, L=0.01)
    assert not model.certified
    report = cramer_check(model, m_max=6, draws=2 * 10**4, seed=4)
    assert not report.ok
    assert any(not row.ok for row in report.raw)


def test_cramer_check_flags_a_mean_norm_bound_below_the_mean():
    # E|xi| = sqrt(2/pi) = 0.798 for N(0, 1); only the mean row can see it
    model = gaussian(scale=1.0, mean_norm_bound=0.5)
    report = cramer_check(model, m_max=6, draws=2 * 10**4, seed=4)
    assert not report.mean.ok and report.mean.m == 1
    assert abs(report.mean.empirical - math.sqrt(2.0 / math.pi)) \
        < 5.0 * report.mean.stderr
    assert all(row.ok for row in report.raw + report.centered)
    assert not report.ok and report.mean.bound == 0.5


def test_cramer_check_mean_row_rule_for_the_exact_default():
    # seed 780 puts the mean of 10**4 draws 3.7 standard errors above
    # E|xi| = 2 sqrt(2/pi), the certified bound: reported, never flagged
    exact = gaussian(scale=2.0)
    report = cramer_check(exact, m_max=2, draws=10**4, seed=780)
    assert report.mean.bound == 2.0 * math.sqrt(2.0 / math.pi)
    assert report.mean.empirical > report.mean.bound + 3.0 * report.mean.stderr
    assert report.mean.ok and report.ok
    # the same value declared by the user keeps the three-standard-error rule
    declared = gaussian(scale=2.0, mean_norm_bound=exact.mean_norm_bound)
    assert not cramer_check(declared, m_max=2, draws=10**4, seed=780).mean.ok
    # a replaced copy is no longer certified, so it keeps that rule too
    replaced = dataclasses.replace(exact, mean_norm_bound=exact.mean_norm_bound)
    assert replaced == declared and not replaced.certified
    assert not cramer_check(replaced, m_max=2, draws=10**4, seed=780).mean.ok
    # as does every other family and dimension
    for model in (bounded_uniform(half_width=0.5), gaussian(scale=1.0, dim=2)):
        model = dataclasses.replace(model, mean_norm_bound=0.1)
        assert not model.certified
        assert not cramer_check(model, m_max=2, draws=1000, seed=0).mean.ok


def test_cramer_report_rows_have_expected_bounds():
    model = bounded_uniform(half_width=0.5)
    report = cramer_check(model, m_max=5, draws=5000, seed=0)
    assert report.mean.bound == model.mean_norm_bound
    for row in report.raw:
        expected = 0.5 * math.factorial(row.m) * model.sigma**2 \
            * model.L ** (row.m - 2)
        assert np.isclose(row.bound, expected, rtol=1e-12)
    for row in report.centered:
        expected = 2.0 * math.factorial(row.m) * model.sigma**2 \
            * (2.0 * model.L) ** (row.m - 2)
        assert np.isclose(row.bound, expected, rtol=1e-12)


def test_validation_errors():
    with pytest.raises(ValidationError):
        gaussian(scale=-1.0)
    with pytest.raises(ValidationError):
        bounded_uniform(half_width=-0.1)
    with pytest.raises(ValidationError):
        gaussian(scale=1.0, dim=0)
    model = gaussian(scale=1.0, dim=2)
    with pytest.raises(ValidationError):
        sample_block(model, 3, 0, 1)  # dim disagrees with the model
    # the class itself checks and fills in the constants, as the builders do
    assert NoiseModel(family="gaussian", scale=2.0) == gaussian(2.0)
    assert NoiseModel(family="gaussian", scale=2.0).sigma == 4.0
    assert NoiseModel(family="zero", dim=3) == zero(dim=3)
    with pytest.raises(TypeError):
        NoiseModel(family="gaussian", scale=2.0, certified=True)
    # a replaced parameter does not carry the old constants as certified
    model = dataclasses.replace(gaussian(1.0), scale=10.0)
    assert model.sigma == 2.0 and not model.certified
    for kwargs, path in [
        (dict(family="nope"), "noise.family"),
        (dict(family="gaussian", scale=-3.0), "noise.scale"),
        (dict(family="gaussian", scale=float("nan")), "noise.scale"),
        (dict(family="gaussian", scale=10**400), "noise.scale"),
        (dict(family="gaussian", scale="2"), "noise.scale"),
        (dict(family="gaussian"), "noise.scale"),
        (dict(family="bounded_uniform", half_width=0.0), "noise.half_width"),
        (dict(family="gaussian", scale=1.0, half_width=1.0), "noise.half_width"),
        (dict(family="zero", scale=1.0), "noise.scale"),
        (dict(family="zero", sigma=0.0), "noise.sigma"),
        (dict(family="gaussian", scale=1.0, sigma=-1.0), "noise.sigma"),
        (dict(family="gaussian", scale=1.0, L=0.0), "noise.L"),
        (dict(family="gaussian", scale=1.0, mean_norm_bound=float("inf")),
         "noise.mean_norm_bound"),
        (dict(family="gaussian", scale=1.0, dim=0), "noise.dim"),
        (dict(family="gaussian", scale=1.0, dim=True), "noise.dim"),
    ]:
        with pytest.raises(ValidationError, match=path):
            NoiseModel(**kwargs)
    # derive_key would alias -1 to 2**64 - 1
    for seed in (-1, 2**64, 1.5, "0", True):
        with pytest.raises(ValidationError, match="seed"):
            cramer_check(gaussian(1.0), m_max=2, draws=10, seed=seed)
