import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from stochmann.errors import NonContractiveError, ValidationError
from stochmann.spaces import (INVERSE_QUADRATIC_C, MapSpec, affine, as_point,
                              contraction_constant, dimension,
                              estimate_contraction, eval_map,
                              inverse_quadratic, norm, reference_fixed_point,
                              scaled_cosine)

# real root of x^3 + x = 1, the fixed point of x -> 1/(1+x^2)
CUBIC_ROOT = 0.682327803828019


def test_inverse_quadratic_fixed_point_closed_form():
    m = inverse_quadratic()
    x = reference_fixed_point(m, tol=1e-14)
    assert abs(float(x[0]) - CUBIC_ROOT) < 1e-12
    r = float(x[0])
    assert abs(r**3 + r - 1.0) < 1e-13


def test_affine_fixed_point_solves_linear_system():
    rng = np.random.default_rng(5)
    A = 0.6 * rng.standard_normal((3, 3))
    A /= max(1.0, np.linalg.norm(A, 2) / 0.8)  # force operator norm <= 0.8
    b = rng.standard_normal(3)
    m = affine(A, b)
    x = reference_fixed_point(m, tol=1e-14)
    expected = np.linalg.solve(np.eye(3) - A, b)
    assert np.allclose(x, expected, atol=1e-12)


def test_scaled_cosine_fixed_point_matches_root_finder():
    m = scaled_cosine(0.7)
    x = float(reference_fixed_point(m, tol=1e-14)[0])
    root = brentq(lambda t: t - 0.7 * np.cos(t), 0.0, 1.0, xtol=1e-15)
    assert abs(x - root) < 1e-12


def test_inverse_quadratic_constant_value():
    assert abs(INVERSE_QUADRATIC_C - 9.0 / (8.0 * np.sqrt(3.0))) < 1e-16
    assert contraction_constant(inverse_quadratic()) == INVERSE_QUADRATIC_C


def test_declared_constant_takes_precedence():
    m = inverse_quadratic(declared_c=0.3)
    assert contraction_constant(m) == 0.3


def test_affine_contraction_constants_match_numpy():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 4))
    A *= 0.5 / np.linalg.norm(A, 2)
    m = affine(A, np.zeros(4))
    assert np.isclose(contraction_constant(m, "euclidean"), np.linalg.norm(A, 2))
    assert np.isclose(contraction_constant(m, "max"),
                      np.abs(A).sum(axis=1).max())
    assert np.isclose(contraction_constant(m, "one"),
                      np.abs(A).sum(axis=0).max())


def test_contraction_constant_rejects_expansive_norm():
    # spectral norm < 1 but a row sum > 1: max-norm constant is not < 1
    A = np.array([[0.5, 0.52], [0.0, 0.4]])
    assert np.linalg.norm(A, 2) < 1.0
    m = affine(A, np.zeros(2))
    with pytest.raises(NonContractiveError):
        contraction_constant(m, "max")


def test_estimated_constant_below_analytic():
    for m in (inverse_quadratic(), scaled_cosine(0.9),
              affine(np.array([[0.3, 0.1], [0.0, 0.2]]), np.ones(2))):
        est = estimate_contraction(m, samples=2000, seed=3)
        assert est <= contraction_constant(m) + 1e-12


def test_estimate_is_deterministic_and_monotone_in_samples():
    m = inverse_quadratic()
    e1 = estimate_contraction(m, samples=500, seed=0)
    e2 = estimate_contraction(m, samples=500, seed=0)
    e3 = estimate_contraction(m, samples=5000, seed=0)
    assert e1 == e2
    # larger sample includes the smaller one's pairs, sup can only grow
    assert e3 >= e1


def test_scalar_affine_ratio_is_exact():
    m = affine(np.array([[0.5]]), np.array([1.0]))
    est = estimate_contraction(m, samples=100, seed=1)
    assert np.isclose(est, 0.5, rtol=1e-12)


def test_eval_map_batch_equals_rowwise():
    rng = np.random.default_rng(2)
    A = 0.4 * rng.standard_normal((3, 3)) / 3.0
    m = affine(A, rng.standard_normal(3))
    X = rng.standard_normal((50, 3))
    batch = eval_map(m, X)
    rows = np.stack([eval_map(m, X[i]) for i in range(50)])
    assert np.array_equal(batch, rows)


def test_eval_map_values():
    assert np.isclose(eval_map(inverse_quadratic(), np.array([2.0]))[0], 0.2)
    assert np.isclose(eval_map(scaled_cosine(0.5), np.array([0.0]))[0], 0.5)


def test_norms_match_numpy():
    rng = np.random.default_rng(8)
    V = rng.standard_normal((20, 5))
    assert np.allclose(norm(V, "euclidean"), np.linalg.norm(V, axis=1))
    assert np.allclose(norm(V, "max"), np.linalg.norm(V, np.inf, axis=1))
    assert np.allclose(norm(V, "one"), np.linalg.norm(V, 1, axis=1))


@pytest.mark.parametrize("d", [2, 8, 9, 16])
@pytest.mark.parametrize("kind", ["euclidean", "max", "one"])
def test_norm_bits_independent_of_memory_layout(d, kind):
    # (d, R) storage viewed as (R, d), as the batched replica state is held
    V = np.random.default_rng(d).standard_normal((2000, d))
    F = np.asfortranarray(V)
    assert F.strides[0] == 8
    assert np.array_equal(norm(F, kind), norm(V, kind))


finite_vec = arrays(np.float64, st.integers(1, 6),
                    elements=st.floats(-1e8, 1e8, allow_nan=False))


@given(finite_vec, st.sampled_from(["euclidean", "max", "one"]))
def test_norm_nonnegative_and_zero_at_origin(v, kind):
    assert norm(v, kind) >= 0.0
    assert norm(np.zeros_like(v), kind) == 0.0


def _scaled(lo, hi):
    # zero or magnitude in [lo, hi]; squaring must not underflow below
    mag = st.floats(lo, hi).map(abs)
    return st.one_of(st.just(0.0), mag, mag.map(lambda x: -x))


@given(st.data(), st.sampled_from(["euclidean", "max", "one"]))
@settings(max_examples=200)
def test_norm_triangle_and_homogeneity(data, kind):
    d = data.draw(st.integers(1, 6))
    elems = _scaled(1e-50, 1e6)
    u = data.draw(arrays(np.float64, d, elements=elems))
    v = data.draw(arrays(np.float64, d, elements=elems))
    t = data.draw(_scaled(1e-3, 100.0))
    lhs = norm(u + v, kind)
    rhs = norm(u, kind) + norm(v, kind)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-9
    assert np.isclose(norm(t * u, kind), abs(t) * norm(u, kind),
                      rtol=1e-10, atol=0.0)


def test_validation_rejects_bad_specs():
    with pytest.raises(ValidationError):
        affine(np.array([[1.2]]), np.array([0.0]))  # operator norm >= 1
    with pytest.raises(ValidationError):
        scaled_cosine(1.0)
    with pytest.raises(ValidationError):
        MapSpec(family="nope")
    with pytest.raises(ValidationError):
        inverse_quadratic(declared_c=1.0)
    with pytest.raises(ValidationError):
        estimate_contraction(inverse_quadratic(), domain_box=[[1.0, 1.0]])
    with pytest.raises(ValidationError):
        affine(np.array([[0.5, 0.0]]), np.array([0.0]))  # not square
    # a bool is not a constant, and a string is a ValidationError naming
    # its field, not a ValueError
    with pytest.raises(ValidationError, match="map.declared_c"):
        inverse_quadratic(declared_c=False)
    with pytest.raises(ValidationError, match="map.lam"):
        scaled_cosine("x")
    # derive_key would alias -1 to 2**64 - 1
    for seed in (-1, 2**64, 1.5, "0", True):
        with pytest.raises(ValidationError, match="seed"):
            estimate_contraction(inverse_quadratic(), samples=10, seed=seed)
    for max_iter in (2.5, 0, -1, "10", True):
        with pytest.raises(ValidationError, match="max_iter"):
            reference_fixed_point(inverse_quadratic(), max_iter=max_iter)


# domain_box meets check_number's rule entry by entry, as map.matrix does:
# (box, the field its ValidationError names)
BAD_BOXES = [
    ([["a", 1.0]], "domain_box[0][0]"),
    ([[True, 1.0]], "domain_box[0][0]"),
    ([[None, 1.0]], "domain_box[0][0]"),
    ([[0.0, [1.0]]], "domain_box[0][1]"),
    ([[0.0, 1.0], [0.0]], "domain_box"),
    (np.array([[False, True]]), "domain_box"),
    (np.array([[0.0, 1.0]], dtype=object), "domain_box"),
    (np.array([[0.0, np.inf]]), "domain_box"),
    ([[0.0, 1.0], [0.0, 1.0]], "domain_box"),
]


@pytest.mark.parametrize("box, field", BAD_BOXES)
def test_domain_box_entries_are_checked_as_numbers(box, field):
    with pytest.raises(ValidationError, match=f"^{re.escape(field)}: "):
        estimate_contraction(inverse_quadratic(), domain_box=box, samples=10)


def test_as_point_shapes_and_dim_check():
    assert as_point(1.5).shape == (1,)
    assert as_point([1.0, 2.0]).shape == (2,)
    with pytest.raises(ValidationError):
        as_point([1.0, 2.0], dim=3)
    with pytest.raises(ValidationError):
        as_point([np.inf])


def test_dimension():
    assert dimension(inverse_quadratic()) == 1
    assert dimension(affine(np.eye(2) * 0.5, np.zeros(2))) == 2
