"""The stochastic Mann update rule against exact rational arithmetic.

The map x -> 1/(1+x^2) keeps rationals rational, so a Fraction-based
replica of the recursion is an exact oracle; the float path must track it
to a few ulp per step.
"""

from fractions import Fraction

import numpy as np
import pytest

from stochmann import schemes
from stochmann.errors import DivergedError, ValidationError
from stochmann.noise import gaussian, sample_block, zero
from stochmann.schemes import (SCHEME_KINDS, TILE_ELEMENTS, SchemeConfig,
                               StepSequences, advance, run, step)
from stochmann.spaces import (affine, inverse_quadratic, map_function,
                              reference_fixed_point)
from stochmann.streams import derive_key


def make_cfg(kind="stochastic_mann", horizon=50, noise=zero(), seed=0, a=0.5,
             x0=0.5):
    return SchemeConfig(kind=kind, map_spec=inverse_quadratic(),
                        x0=np.array([float(x0)]), steps=StepSequences(a=a),
                        noise=noise, horizon=horizon, seed=seed)


def test_step_sizes_harmonic():
    # from x = 0, the constant map F = 1 with xi = 0 leaves a_n alone in
    # the update, and F = 0 with xi = 1 leaves b_n alone
    steps = StepSequences(a=0.25)
    for offset, xi, gain in ((1.0, 0.0, lambda n: 0.25 / n),
                             (0.0, 1.0, lambda n: 0.25 / (n * n))):
        cfg = SchemeConfig(kind="stochastic_mann",
                           map_spec=affine([[0.0]], [offset]), x0=np.zeros(1),
                           noise=zero(), steps=steps)
        for n in (1, 2, 10, 999):
            x = step("stochastic_mann", np.zeros(1), n, cfg, np.array([xi]))
            assert x[0] == gain(n)


def test_step_sizes_validation():
    with pytest.raises(ValidationError):
        StepSequences(a=0.0)
    with pytest.raises(ValidationError):
        StepSequences(a=1.0)
    with pytest.raises(ValidationError, match="scheme.a"):
        StepSequences(a=None)  # not a numpy TypeError


def exact_inverse_quadratic(x):
    return 1 / (1 + x * x)


def test_stochastic_mann_step_tracks_fraction_oracle():
    # one exact step from the current float state per n; this pins the
    # update formula without letting rational denominators compound
    a = Fraction(1, 2)
    cfg = make_cfg(noise=gaussian(scale=2.0), horizon=50, seed=11)
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
    # with a zero draw the step is the plain Mann update
    a = Fraction(1, 2)
    cfg = make_cfg()
    x_float = np.array([0.5])
    for n in range(1, 41):
        x = Fraction(float(x_float[0]))
        exact = (1 - a / n) * x + (a / n) * exact_inverse_quadratic(x)
        x_float = step("stochastic_mann", x_float, n, cfg, np.zeros(1))
        assert abs(float(exact) - float(x_float[0])) <= 1e-15


def test_zero_noise_stochastic_mann_equals_mann_bitwise():
    # zero noise runs the plain Mann iteration, written out here
    cfg = make_cfg(horizon=200, noise=zero())
    a, x = cfg.steps.a, 0.5
    mann = [x]
    for n in range(1, 201):
        x = (1.0 - a / n) * x + (a / n) * (1.0 / (1.0 + x * x))
        mann.append(x)
    traj = run(cfg)
    assert np.array_equal(traj.iterates[:, 0], mann)
    assert traj.noise_norms.shape == (200,) and not traj.noise_norms.any()


def test_trajectory_indexing():
    x_star = reference_fixed_point(inverse_quadratic())
    cfg = make_cfg(noise=gaussian(scale=1.0), horizon=30, seed=5)
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
    cfg = make_cfg(noise=gaussian(scale=2.0), horizon=25, seed=9)
    traj = run(cfg)
    draws = sample_block(cfg.noise, 1, 9, np.arange(1, 26))
    assert np.array_equal(traj.noise_norms, np.abs(draws[:, 0]))


def test_all_kinds_converge_on_catalog_map():
    x_star = reference_fixed_point(inverse_quadratic())
    for kind in SCHEME_KINDS:
        cfg = make_cfg(kind, horizon=3000, noise=zero())
        traj = run(cfg, x_star)
        assert traj.error(3001) < 1e-2, kind


def test_run_detects_divergence():
    # a scale this close to the float ceiling overflows some normal draws
    bad_seed = int(derive_key(0, 5))
    cfg = make_cfg(noise=gaussian(scale=1e308), horizon=20, seed=bad_seed)
    with np.errstate(over="ignore"), pytest.raises(DivergedError) as exc_info:
        run(cfg)
    assert exc_info.value.last_finite_index == 1


def test_config_validation():
    with pytest.raises(ValidationError):
        make_cfg(noise=None)  # noise required; zero() for plain Mann
    for kind in ("mann", "nope"):  # stochastic Mann is the one kind
        with pytest.raises(ValidationError):
            make_cfg(kind)
    with pytest.raises(ValidationError):
        make_cfg(horizon=0)
    with pytest.raises(ValidationError, match="scheme.horizon"):
        make_cfg(horizon=True)
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
    for cfg, R in ((make_cfg(horizon=200, noise=gaussian(2.0)), 300),
                   (affine_d2, 100)):
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


def test_advance_keeps_replicas_innermost():
    # a (R, d) state stored (d, R) makes every ufunc pass loop over the R
    # replicas; stored (R, d), the inner loops are d = 8 elements long
    d, R = 8, 2000
    cfg = SchemeConfig(
        kind="stochastic_mann", map_spec=affine(0.5 * np.eye(d), np.ones(d)),
        x0=np.zeros(d), noise=gaussian(0.5, dim=d), horizon=5)
    assert TILE_ELEMENTS // (R * d) < cfg.horizon
    steps = list(advance(cfg, np.arange(R), cfg.horizon))
    assert len(steps) == cfg.horizon
    for n, X, xi in steps:
        assert X.shape == xi.shape == (R, d)
        assert X.strides[0] == xi.strides[0] == 8, n


def written_out(x, n, cfg, xi, F):
    """The update rule in its documented operation order."""
    a = cfg.steps.a
    return (1.0 - a / n) * x + (a / n) * F(x) + a / (n * n) * xi


def test_resolved_update_rule_matches_step_bitwise():
    # n = 10**8 + 1: n * n exceeds 2**53, so b_n = a/(n*n) is rounded; the
    # zero rows of X under the linear maps step to b_n * xi exactly, so that
    # rounding shows in the result
    rng = np.random.default_rng(3)
    maps = [(inverse_quadratic(), 1), (affine([[0.6]], [0.0]), 1),
            (affine([[0.3, -0.2], [0.1, 0.4]], [0.0, 0.0]), 2)]
    for kind in SCHEME_KINDS:
        for m, d in maps:
            cfg = SchemeConfig(kind=kind, map_spec=m, x0=np.zeros(d),
                               noise=gaussian(2.0, dim=d),
                               steps=StepSequences(a=0.3))
            F = map_function(m)
            update = schemes._update(cfg, F)
            X = rng.normal(size=(d, 64)).T  # (R, d), replica-innermost
            X[::2] = 0.0
            XI = rng.normal(size=(64, d))
            for n in (1, 2, 10**8 + 1):
                got = update(X, n, XI)
                assert np.array_equal(got, step(kind, X, n, cfg, XI)), (kind, d, n)
                assert np.array_equal(got, written_out(X, n, cfg, XI, F))
                if d == 1:
                    for r in range(X.shape[0]):
                        x, xi = float(X[r, 0]), float(XI[r, 0])
                        y = update(x, n, xi)
                        assert isinstance(y, float)
                        assert y == step(kind, x, n, cfg, xi, F) == got[r, 0]
                        assert y == written_out(x, n, cfg, xi, F)
            with pytest.raises(ValidationError):
                step(kind, X, 0, cfg, XI)
            with pytest.raises(ValidationError):
                step("mann", X, 1, cfg, XI)


def test_step_requires_the_noise_draw():
    # every step adds b_n * xi_n; a missing draw fails at the call, where it
    # used to fail inside the update rule on a None operand
    cfg = make_cfg()
    with pytest.raises(TypeError, match="missing 1 required positional "
                                        "argument: 'noise_draw'"):
        step("stochastic_mann", np.array([0.5]), 1, cfg)
    x, xi = np.array([0.5]), np.zeros(1)
    assert step("stochastic_mann", x, 1, cfg, xi) \
        == step("stochastic_mann", x, 1, cfg, noise_draw=xi) \
        == 0.5 * 0.5 + 0.5 * (1 / 1.25)


def test_advance_resolves_the_rule_once(monkeypatch):
    # the time loop must not go back through step() or _update per step
    calls = []
    resolve = schemes._update

    def refuse(*args, **kwargs):
        raise AssertionError("per-step call")

    def count(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(schemes, "step", refuse)
    monkeypatch.setattr(schemes, "_update", count)
    for noise in (gaussian(scale=1.0), zero()):
        cfg = make_cfg(horizon=20, noise=noise)
        assert np.all(np.isfinite(run(cfg).iterates))
        assert len(list(advance(cfg, [1, 2], 20))) == 20
    assert len(calls) == 4
