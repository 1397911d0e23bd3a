"""Scheme update rules against exact rational arithmetic.

The map x -> 1/(1+x^2) keeps rationals rational, so a Fraction-based
replica of the recursion is an exact oracle; the float path must track it
to a few ulp per step.
"""

from fractions import Fraction

import numpy as np
import pytest

from stochmann.errors import DivergedError, ValidationError
from stochmann.noise import gaussian, sample_block, zero
from stochmann.schemes import (SCHEME_KINDS, TILE_ELEMENTS, SchemeConfig,
                               StepSequences, advance, run, step, step_sizes)
from stochmann.spaces import affine, inverse_quadratic, reference_fixed_point
from stochmann.streams import derive_key


def make_cfg(kind, horizon=50, noise=None, seed=0, a=0.5, x0=0.5,
             ishikawa_b=1.0):
    return SchemeConfig(kind=kind, map_spec=inverse_quadratic(),
                        x0=np.array([float(x0)]), steps=StepSequences(a=a),
                        noise=noise, horizon=horizon, seed=seed,
                        ishikawa_b=ishikawa_b)


def test_step_sizes_harmonic():
    steps = StepSequences(a=0.25)
    for n in (1, 2, 10, 999):
        a_n, b_n = step_sizes(steps, n)
        assert a_n == 0.25 / n
        assert b_n == 0.25 / (n * n)


def test_step_sizes_validation():
    with pytest.raises(ValidationError):
        StepSequences(a=0.0)
    with pytest.raises(ValidationError):
        StepSequences(a=1.0)


def exact_inverse_quadratic(x):
    return 1 / (1 + x * x)


def test_stochastic_mann_step_tracks_fraction_oracle():
    # one exact step from the current float state per n; this pins the
    # update formula without letting rational denominators compound
    a = Fraction(1, 2)
    cfg = make_cfg("stochastic_mann", noise=gaussian(scale=2.0), horizon=50,
                   seed=11)
    draws = sample_block(cfg.noise, 1, 11, np.arange(1, 51))[:, 0]
    x_float = np.array([0.5])
    for n in range(1, 51):
        x = Fraction(float(x_float[0]))
        xi = Fraction(float(draws[n - 1]))
        exact = (1 - a / n) * x + (a / n) * exact_inverse_quadratic(x) \
            + (a / Fraction(n * n)) * xi
        x_float = step("stochastic_mann", x_float, n, cfg, draws[n - 1:n])
        assert abs(float(exact) - float(x_float[0])) \
            <= 1e-15 * max(1.0, abs(float(exact)))


def test_mann_step_tracks_fraction_oracle():
    a = Fraction(1, 2)
    cfg = make_cfg("mann")
    x_float = np.array([0.5])
    for n in range(1, 41):
        x = Fraction(float(x_float[0]))
        exact = (1 - a / n) * x + (a / n) * exact_inverse_quadratic(x)
        x_float = step("mann", x_float, n, cfg)
        assert abs(float(exact) - float(x_float[0])) <= 1e-15


def test_picard_and_krasnoselskii_formulas():
    cfg_p = make_cfg("picard")
    cfg_k = make_cfg("krasnoselskii")
    x = np.array([0.3])
    fx = 1.0 / (1.0 + 0.3**2)
    assert np.isclose(step("picard", x, 7, cfg_p)[0], fx, rtol=1e-15)
    assert np.isclose(step("krasnoselskii", x, 7, cfg_k)[0],
                      0.5 * (0.3 + fx), rtol=1e-15)


def test_ishikawa_formula():
    b_gain = 0.8
    cfg = make_cfg("ishikawa", a=0.4, ishikawa_b=b_gain)
    x = np.array([0.9])
    n = 3
    b_n = b_gain / (n + 1)
    y = (1.0 - b_n) * 0.9 + b_n / (1.0 + 0.81)
    expected = (1.0 - 0.4) * 0.9 + 0.4 / (1.0 + y * y)
    assert np.isclose(step("ishikawa", x, n, cfg)[0], expected, rtol=1e-15)


def test_ishikawa_inner_weight_stays_below_one():
    cfg = make_cfg("ishikawa", ishikawa_b=1.0)
    # b_n = 1/(n+1) < 1 for every step index
    assert 1.0 / (1 + 1) < 1.0
    traj = run(cfg)
    assert np.all(np.isfinite(traj.iterates))


def test_zero_noise_stochastic_mann_equals_mann_bitwise():
    cfg_s = make_cfg("stochastic_mann", noise=zero(), horizon=200)
    cfg_m = make_cfg("mann", horizon=200)
    ts = run(cfg_s)
    tm = run(cfg_m)
    assert np.array_equal(ts.iterates, tm.iterates)


def test_trajectory_indexing():
    x_star = reference_fixed_point(inverse_quadratic())
    cfg = make_cfg("stochastic_mann", noise=gaussian(scale=1.0), horizon=30,
                   seed=5)
    traj = run(cfg, x_star)
    assert len(traj) == 31
    assert np.array_equal(traj.iterate(1), cfg.x0)
    for n in (1, 2, 17, 31):
        assert traj.error(n) == float(np.abs(traj.iterate(n) - x_star)[0])
    assert traj.noise_norms.shape == (30,)
    with pytest.raises(ValidationError):
        traj.iterate(0)
    with pytest.raises(ValidationError):
        traj.iterate(32)


def test_trajectory_noise_norms_match_draws():
    cfg = make_cfg("stochastic_mann", noise=gaussian(scale=2.0), horizon=25,
                   seed=9)
    traj = run(cfg)
    draws = sample_block(cfg.noise, 1, 9, np.arange(1, 26))
    assert np.array_equal(traj.noise_norms, np.abs(draws[:, 0]))


def test_all_kinds_converge_on_catalog_map():
    x_star = reference_fixed_point(inverse_quadratic())
    for kind in SCHEME_KINDS:
        noise = zero() if kind == "stochastic_mann" else None
        cfg = make_cfg(kind, horizon=3000, noise=noise)
        traj = run(cfg, x_star)
        assert traj.error(3001) < 1e-2, kind


def test_run_detects_divergence():
    # a scale this close to the float ceiling overflows some normal draws
    bad_seed = int(derive_key(0, 5))
    cfg = make_cfg("stochastic_mann", noise=gaussian(scale=1e308), horizon=20,
                   seed=bad_seed)
    with np.errstate(over="ignore"), pytest.raises(DivergedError) as exc_info:
        run(cfg)
    assert exc_info.value.last_finite_index == 1


def test_config_validation():
    with pytest.raises(ValidationError):
        make_cfg("stochastic_mann")  # noise required
    with pytest.raises(ValidationError):
        make_cfg("mann", noise=gaussian(scale=1.0))  # noise forbidden
    with pytest.raises(ValidationError):
        make_cfg("nope")
    with pytest.raises(ValidationError):
        make_cfg("mann", horizon=0)
    with pytest.raises(ValidationError):
        SchemeConfig(kind="stochastic_mann", map_spec=inverse_quadratic(),
                     x0=np.array([0.5]), noise=gaussian(scale=1.0, dim=2),
                     horizon=10)  # noise dim disagrees with the map


def test_interleaved_generators_keep_their_own_tiles():
    # each advance call owns its tile buffers: two generators stepped in
    # turn, across several tiles, yield the bits each yields alone
    affine_d2 = SchemeConfig(
        kind="stochastic_mann",
        map_spec=affine([[0.3, 0.1], [-0.2, 0.4]], [0.5, -1.0]),
        x0=np.array([0.0, 2.0]), noise=gaussian(0.5, dim=2), horizon=300)
    for cfg, R in ((make_cfg("stochastic_mann", horizon=200,
                             noise=gaussian(2.0)), 300), (affine_d2, 100)):
        d = cfg.x0.shape[0]
        assert TILE_ELEMENTS // (R * d) * 3 < cfg.horizon
        seeds = [derive_key(s, np.arange(R, dtype=np.uint64)) for s in (1, 2)]

        def copies(steps):
            return [(n, X.copy(), xi.copy()) for n, X, xi in steps]

        alone = [copies(advance(cfg, s, cfg.horizon)) for s in seeds]
        pair = copies(item for items in zip(*(advance(cfg, s, cfg.horizon)
                                              for s in seeds))
                      for item in items)
        for k in range(2):
            for (n, X, xi), (m, Y, eta) in zip(pair[k::2], alone[k]):
                assert n == m
                assert np.array_equal(X, Y) and np.array_equal(xi, eta)
