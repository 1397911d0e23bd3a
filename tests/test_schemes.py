"""The stochastic Mann update rule against exact rational arithmetic.

The map x -> 1/(1+x^2) keeps rationals rational, so a Fraction-based
replica of the recursion is an exact oracle; the float path must track it
to a few ulp per step.  advance's compiled tiles must equal its numpy body
bit for bit, and the numpy body is what the Python update rule runs in.
"""

import sys
import threading
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from stochmann import schemes
from stochmann.errors import DivergedError, ValidationError
from stochmann.noise import (bounded_uniform, gaussian, sample_block,
                             sample_keyed, zero)
from stochmann.schemes import (SCHEME_KINDS, TILE_ELEMENTS, SchemeConfig,
                               StepSequences, advance, rows_at, run, step)
from stochmann.spaces import (affine, dimension, inverse_quadratic,
                              map_function, norm, reference_fixed_point,
                              scaled_cosine)
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


def test_trajectory_without_a_reference_point_has_no_errors():
    traj = run(make_cfg(horizon=3))
    assert traj.errors_to_ref is None
    with pytest.raises(ValidationError, match="no reference errors"):
        traj.error(1)


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


def test_run_detects_divergence_on_the_numpy_path(numpy_streams):
    test_run_detects_divergence()


@pytest.mark.parametrize("numpy_body", [False, True])
def test_run_reports_a_late_divergence_at_its_step(numpy_body, monkeypatch):
    # one replica on the line: the numpy body steps its tile in sub-chunks
    # of _SCALAR_CHUNK steps, and this stream's first draw to overflow is
    # at step 2592, inside the third
    if numpy_body:
        monkeypatch.setattr(schemes, "tile_library", lambda: None)
    cfg = make_cfg(noise=gaussian(scale=5e307), horizon=5000, seed=0)
    with np.errstate(over="ignore"):
        xi = sample_block(cfg.noise, 1, cfg.seed, np.arange(1, cfg.horizon + 1))
        with pytest.raises(DivergedError) as exc_info:
            run(cfg)
    first = 1 + int(np.flatnonzero(~np.isfinite(xi[:, 0]))[0])
    assert first == 2592 > 2 * schemes._SCALAR_CHUNK
    assert exc_info.value.last_finite_index == first


@pytest.mark.parametrize("seed, first", [(32, 6), (25, 43)])
def test_one_replica_diverges_at_the_numpy_bodys_step(seed, first):
    # one replica on the line for 50 steps: on AVX-512 the kernel draws
    # steps 1-32 as one 32-step Philox block and 33-50 in scalar code, and
    # this stream's first draw to overflow is in the block (seed 32) or past
    # it (seed 25)
    cfg = make_cfg(noise=gaussian(scale=5e307), horizon=50, seed=seed)
    with np.errstate(over="ignore"):
        xi = sample_block(cfg.noise, 1, seed, np.arange(1, cfg.horizon + 1))
    assert 1 + int(np.flatnonzero(~np.isfinite(xi[:, 0]))[0]) == first
    found = []
    for numpy_body in (False, True):
        with pytest.MonkeyPatch.context() as mp, \
                np.errstate(over="ignore"), \
                pytest.raises(DivergedError) as exc_info:
            if numpy_body:
                mp.setattr(schemes, "tile_library", lambda: None)
            run(cfg)
        found.append((exc_info.value.last_finite_index,
                      exc_info.value.replicas))
    assert found[0] == found[1] == (first, [0])


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


def test_config_refuses_map_spec_that_is_not_a_map_spec():
    # a family name or a bare callable would fail in dimension(), as an
    # AttributeError
    for bad in ("affine", None, inverse_quadratic):
        with pytest.raises(ValidationError, match="scheme.map_spec"):
            replace(make_cfg(), map_spec=bad)


def test_config_refuses_unknown_norm_kind():
    # refused on construction, not at the first norm() of a run
    for kind in ("bogus", "Euclidean", None):
        with pytest.raises(ValidationError, match="scheme.norm_kind"):
            replace(make_cfg(), norm_kind=kind)


def test_config_refuses_steps_that_are_not_step_sequences():
    # a bare gain would fail only inside advance, as an AttributeError
    for bad in (0.5, None, {"a": 0.5}):
        with pytest.raises(ValidationError, match="scheme.steps"):
            replace(make_cfg(), steps=bad)


def steps(tiles):
    """advance's tiles as (n, x_{n+1}, xi_n) per step, views of the tiles."""
    return [(start + k, X[k], xi[k]) for start, X, xi in tiles
            for k in range(X.shape[0])]


def test_tiles_cover_every_step_once():
    # T = max(1, TILE_ELEMENTS // (R*d)) steps per tile, only the last shorter
    d8 = SchemeConfig(kind="stochastic_mann",
                      map_spec=affine(0.5 * np.eye(8), np.ones(8)),
                      x0=np.zeros(8), noise=gaussian(0.5, dim=8))
    line = make_cfg(noise=gaussian(1.0))
    for cfg, R, horizon in ((line, 1, 2 * TILE_ELEMENTS + 3),
                            (line, 3, TILE_ELEMENTS), (line, 3, 5),
                            (d8, 2000, 7), (d8, 5000, 3), (d8, 100, 61)):
        d = cfg.x0.shape[0]
        T = max(1, TILE_ELEMENTS // (R * d))
        tiles = [(start, X.shape, xi.shape)
                 for start, X, xi in advance(cfg, np.arange(R), horizon)]
        starts = [start for start, _, _ in tiles]
        assert starts == list(range(1, horizon + 1, T)), (R, d)
        lengths = [shape[0] for _, shape, _ in tiles]
        assert sum(lengths) == horizon
        assert all(t == T for t in lengths[:-1]) and 1 <= lengths[-1] <= T
        for _, X_shape, xi_shape in tiles:
            assert X_shape == xi_shape == (X_shape[0], R, d)


def test_run_matches_the_written_out_rule_across_tiles():
    # one replica on the line steps floats tile by tile; every iterate and
    # noise norm over three tiles is the documented rule applied in turn
    horizon = 2 * TILE_ELEMENTS + 3
    maps = (inverse_quadratic(), scaled_cosine(0.8), affine([[0.3]], [0.7]))
    for m in maps:
        for noise in (gaussian(2.0), zero()):
            cfg = SchemeConfig(kind="stochastic_mann", map_spec=m,
                               x0=np.array([0.5]), noise=noise,
                               steps=StepSequences(a=0.7), horizon=horizon,
                               seed=11)
            traj = run(cfg)
            F = map_function(m)
            draws = sample_block(noise, 1, cfg.seed,
                                 np.arange(1, horizon + 1, dtype=np.uint64))
            xs, x = [0.5], 0.5
            for n, xi in enumerate(draws[:, 0].tolist(), start=1):
                x = written_out(x, n, cfg, xi, F)
                xs.append(x)
            assert traj.iterates[:, 0].tolist() == xs, (m.family, noise.family)
            assert traj.noise_norms.tolist() == np.abs(draws[:, 0]).tolist()


def test_noise_norms_per_tile_equal_the_whole_draw_array():
    # norm() of each tile's draws, stored by slice, equals norm() of every
    # draw at once; d = 9 reaches numpy's pairwise summation
    for d in (1, 9):
        T = TILE_ELEMENTS // d
        for kind in ("euclidean", "max", "one"):
            cfg = SchemeConfig(kind="stochastic_mann",
                               map_spec=affine(0.5 * np.eye(d), np.ones(d)),
                               x0=np.zeros(d), noise=gaussian(0.5, dim=d),
                               horizon=2 * T + 3, seed=5, norm_kind=kind)
            draws = sample_block(cfg.noise, d, cfg.seed,
                                 np.arange(1, cfg.horizon + 1, dtype=np.uint64))
            expected = norm(draws, kind)
            assert run(cfg).noise_norms.tobytes() == expected.tobytes(), (d, kind)


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

        def copies(tiles):
            return [(start, X.copy(), xi.copy()) for start, X, xi in tiles]

        alone = [steps(copies(advance(cfg, s, cfg.horizon))) for s in seeds]
        pair = copies(item for items in zip(*(advance(cfg, s, cfg.horizon)
                                              for s in seeds))
                      for item in items)
        for k in range(2):
            mine = steps(pair[k::2])
            assert len(mine) == len(alone[k]) == cfg.horizon
            for (n, X, xi), (m, Y, eta) in zip(mine, alone[k]):
                assert n == m
                assert np.array_equal(X, Y) and np.array_equal(xi, eta)


def test_advance_checks_its_arguments_on_the_call():
    # not at the first tile: a generator would return without error here
    cfg = make_cfg()
    for seeds, horizon in (([], 5), ([1.5], 5), ([1], 0), ([1], 2.5)):
        with pytest.raises(ValidationError, match="seeds|horizon"):
            advance(cfg, seeds, horizon)


def test_advance_keeps_replicas_innermost():
    # a (R, d) state stored (d, R) makes every ufunc pass loop over the R
    # replicas; stored (R, d), the inner loops are d = 8 elements long
    d, R = 8, 2000
    cfg = SchemeConfig(
        kind="stochastic_mann", map_spec=affine(0.5 * np.eye(d), np.ones(d)),
        x0=np.zeros(d), noise=gaussian(0.5, dim=d), horizon=5)
    assert TILE_ELEMENTS // (R * d) < cfg.horizon
    stepped = steps(advance(cfg, np.arange(R), cfg.horizon))
    assert len(stepped) == cfg.horizon
    for n, X, xi in stepped:
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
                        assert y == step(kind, X[r], n, cfg, XI[r])[0] \
                            == got[r, 0]
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


def test_advance_resolves_the_rule_once(numpy_streams, monkeypatch):
    # advance's numpy body must not go back through step() or _update per
    # step
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
        assert len(steps(advance(cfg, [1, 2], 20))) == 20
    assert len(calls) == 4


# The compiled tile kernel against advance's numpy body.

def affine_nd(d):
    i, j = np.indices((d, d))
    return affine(0.4 * np.eye(d) + 0.3 / d * np.sin(i + 2 * j),
                  np.linspace(-1.0, 1.0, d))


@pytest.mark.parametrize("m", [inverse_quadratic()] + [affine_nd(d)
                                                        for d in (1, 8, 9)],
                         ids=["inverse_quadratic", "affine1", "affine8",
                              "affine9"])
def test_rows_at_equals_run_bitwise(m):
    # the rows at iterate indices 1, 2, around the first tile boundary and
    # at horizon + 1, and run's whole path and norms, on both paths, each
    # against advance's own tiles, as run is built on rows_at; d >= 8 pins
    # the norm's summation order
    d = dimension(m)
    T = TILE_ELEMENTS // d
    cfg = SchemeConfig(kind="stochastic_mann", map_spec=m,
                       x0=np.linspace(-1.0, 2.0, d), noise=gaussian(2.0, dim=d),
                       steps=StepSequences(a=0.7), horizon=T + 2, seed=5)
    x_star = reference_fixed_point(m)
    cps = [1, 2, T - 1, T, T + 1, T + 2, T + 3]
    noisy = [n for n in cps if n <= cfg.horizon]
    for numpy_body in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if numpy_body:
                mp.setattr(schemes, "tile_library", lambda: None)
            walked = tiles(cfg, [cfg.seed], cfg.horizon)
            traj = run(cfg, x_star)
            states, noises = rows_at(cfg, [cfg.seed], [n - 1 for n in cps],
                                     noisy)
        assert [start for start, _, _ in walked] == [1, T + 1]
        X = np.concatenate([cfg.x0[None, None]] + [X for _, X, _ in walked])
        xi = np.concatenate([xi for _, _, xi in walked])
        want = (X[np.array(cps) - 1], xi[np.array(noisy) - 1], X[:, 0],
                norm(xi[:, 0], cfg.norm_kind), norm(X[:, 0] - x_star,
                                                     cfg.norm_kind))
        got = (states, noises, traj.iterates, traj.noise_norms,
               traj.errors_to_ref)
        for g, w in zip(got, want):
            assert g.flags.c_contiguous, d
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), d
    # with several replicas, row r is the run under seeds[r]
    seeds = [cfg.seed, 11, 12]
    states, _ = rows_at(cfg, seeds, [0, cfg.horizon])
    for r, seed in enumerate(seeds):
        path = run(replace(cfg, seed=seed)).iterates
        assert states[:, r].tobytes() == path[[0, -1]].tobytes()


def test_rows_at_split_equals_the_serial_walk_bitwise(kernel, cores):
    # 7 replicas cut 4 + 3 on 2 cores, 3 + 2 + 2 on 3 and one each on 8,
    # whose tiles end at other steps than the serial walk's; the noise rows
    # are split too, and the threads switch as often as the interpreter
    # lets them
    seeds = derive_key(3, np.arange(7, dtype=np.uint64))
    steps = [0, 0, 1, 291, 292, 2339, 2340, 2341, 4096, 4097, 5000]
    noise_steps = [1, 292, 293, 2340, 2341, 4096, 4097, 5000, 5000]
    for m in (inverse_quadratic(), affine_nd(8)):
        d = dimension(m)
        cfg = SchemeConfig(kind="stochastic_mann", map_spec=m,
                           x0=np.linspace(-1.0, 2.0, d),
                           noise=gaussian(2.0, dim=d), steps=StepSequences(a=0.7))
        pools = cores(1)
        serial = rows_at(cfg, seeds, steps, noise_steps)
        assert pools == []
        for k in (2, 3, 8):
            pools = cores(k)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                split = rows_at(cfg, seeds, steps, noise_steps)
            finally:
                sys.setswitchinterval(interval)
            assert pools == [min(k, 7) - 1], (d, k)
            for got, want in zip(split, serial):
                assert got.flags.c_contiguous and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (d, k)


def test_a_workers_error_is_raised_once_every_worker_joined(kernel, cores,
                                                            monkeypatch):
    # 7 replicas on 3 cores walk as 0:3 here and 3:5, 5:7 in two workers;
    # an error other than DivergedError in a worker's chunk is raised by
    # rows_at itself, not replaced by a serial walk, and only after both
    # workers have joined
    cfg = SchemeConfig(kind="stochastic_mann", map_spec=inverse_quadratic(),
                       x0=np.array([0.5]), noise=gaussian(2.0))
    walk = schemes._walk

    def failing(*args):
        if args[-1].start == 3:
            raise RuntimeError("chunk 3:5 failed")
        return walk(*args)
    monkeypatch.setattr(schemes, "_walk", failing)
    pools = cores(3)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 3:5 failed"):
        rows_at(cfg, np.arange(7), [5000])
    assert threading.active_count() == threads and pools == [2]


def test_rows_at_checks_its_steps():
    cfg = make_cfg()
    for steps, noise_steps, name in (([2, 1], (), "steps"),
                                     ([-1], (), "steps"),
                                     ([1.5], (), "steps"),
                                     ([1], [0], "noise_steps"),
                                     ([1], [3, 2], "noise_steps")):
        with pytest.raises(ValidationError, match=f"^{name}:"):
            rows_at(cfg, [0], steps, noise_steps)
    states, noises = rows_at(cfg, [0], [], [4])
    assert states.shape == (0, 1, 1) and noises.shape == (1, 1, 1)
    # a step asked for twice gives the same row twice, step 0 the x_1
    states, _ = rows_at(cfg, [0, 1], [0, 3, 3])
    assert states.shape == (3, 2, 1) and (states[0] == cfg.x0).all()
    assert states[1].tobytes() == states[2].tobytes()


def tiles(cfg, seeds, horizon):
    return [(start, X.copy(), xi.copy())
            for start, X, xi in advance(cfg, seeds, horizon)]


def tiles_on_both_paths(cfg, seeds, horizon):
    """advance's tiles on the kernel path and on the numpy path, copied."""
    compiled = tiles(cfg, seeds, horizon)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(schemes, "tile_library", lambda: None)
        return compiled, tiles(cfg, seeds, horizon)


def assert_same_tiles(got, want):
    assert [start for start, _, _ in got] == [start for start, _, _ in want]
    for (_, X, xi), (_, Y, eta) in zip(got, want):
        assert X.shape == Y.shape and X.tobytes() == Y.tobytes()
        assert xi.shape == eta.shape and xi.tobytes() == eta.tobytes()


@pytest.mark.parametrize("R", [1, 7, 31, 33, 45, 200])
def test_kernel_tiles_equal_the_numpy_body_bitwise(kernel, R):
    # over two tiles, the second one short; R = 200 at d = 9 gives tiles of
    # 9 steps, d = 8 and 9 reach the affine map's longest column sums,
    # R = 31 and 33 lie on either side of the 32-replica Philox block, and
    # R = 45 leaves a remainder past the 8- and 32-replica vector blocks
    seeds = derive_key(3, np.arange(R, dtype=np.uint64))
    for m in [inverse_quadratic()] + [affine_nd(d) for d in (1, 2, 8, 9)]:
        d = dimension(m)
        T = max(1, TILE_ELEMENTS // (R * d))
        for noise in (zero(d), gaussian(2.0, dim=d), bounded_uniform(1.5, dim=d)):
            cfg = SchemeConfig(kind="stochastic_mann", map_spec=m,
                               x0=np.linspace(-1.0, 2.0, d), noise=noise,
                               steps=StepSequences(a=0.7))
            assert schemes.tile_kernel(cfg) is not None
            got, want = tiles_on_both_paths(cfg, seeds, T + 3)
            assert len(got) == 2 and got[1][1].shape[0] == 3
            assert_same_tiles(got, want)


def test_every_batch_shares_one_known_answer_check(kernel):
    # tiles of 2 to 2000 replicas at d = 1, and one replica at d = 3,
    # resolve one check per family: its 41-replica tile runs every
    # function of philox.c that a narrower batch runs
    schemes._checked_kernel.cache_clear()
    for m in (inverse_quadratic(), scaled_cosine(0.8), affine_nd(1)):
        for noise in (zero, partial(gaussian, 2.0),
                      partial(bounded_uniform, 1.5)):
            before = schemes._checked_kernel.cache_info().currsize
            cfgs = [(SchemeConfig(kind="stochastic_mann", map_spec=m,
                                  x0=np.array([0.5]), noise=noise()), R)
                    for R in (2, 7, 31, 32, 2000)]
            if m.family == "affine":
                cfgs.append((SchemeConfig(
                    kind="stochastic_mann", map_spec=affine_nd(3),
                    x0=np.zeros(3), noise=noise(dim=3)), 1))
            for cfg, R in cfgs:
                assert schemes.tile_kernel(cfg, R) is not None
            after = schemes._checked_kernel.cache_info().currsize
            assert after == before + 1, (m.family, noise().family)


@pytest.mark.parametrize("m", [inverse_quadratic(), affine_nd(2)],
                         ids=["inverse_quadratic", "affine2"])
@pytest.mark.parametrize("bad", [3, 42])
def test_divergence_in_a_lane_block_or_the_remainder(kernel, m, bad):
    # 45 replicas, of which the kernel updates r < 40 in 8-lane blocks and
    # the rest one by one: replica `bad`, in a block or past them, draws a
    # normal beyond 2.6 at step 2, which the scale overflows to inf, and
    # every other draw of the first two steps stays below 1
    d = dimension(m)
    z = sample_keyed(gaussian(1.0, dim=d), derive_key(np.arange(2000)),
                     np.arange(1, 3)[:, None])
    quiet = (np.abs(z) < 1.0).all(axis=(0, 2))
    loud = (np.abs(z[0]) < 1.0).all(axis=1) & (np.abs(z[1]) > 2.6).any(axis=1)
    seeds = np.flatnonzero(quiet)[:44]
    seeds = np.insert(seeds, bad, np.flatnonzero(loud)[0])
    cfg = SchemeConfig(kind="stochastic_mann", map_spec=m,
                       x0=np.linspace(-1.0, 2.0, d),
                       noise=gaussian(np.finfo(float).max / 2.5, dim=d),
                       steps=StepSequences(a=0.7))
    assert schemes.tile_kernel(cfg, 45) is not None
    errors = []
    for numpy_body in (False, True):
        with pytest.MonkeyPatch.context() as mp, \
                np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergedError) as exc_info:
            if numpy_body:
                mp.setattr(schemes, "tile_library", lambda: None)
            next(advance(cfg, seeds, 5))
        errors.append((exc_info.value.last_finite_index,
                       exc_info.value.replicas))
    assert errors[0] == errors[1] == (2, [bad])


def test_scaled_cosine_steps_in_the_kernel(kernel):
    # libm's cos in mann_tile, numpy's in the numpy body: the same bits over
    # three tiles of 7 replicas in every noise family
    for noise in (zero(), gaussian(2.0), bounded_uniform(1.5)):
        cfg = SchemeConfig(kind="stochastic_mann", map_spec=scaled_cosine(0.8),
                           x0=np.array([0.5]), noise=noise)
        assert schemes.tile_kernel(cfg) is not None, noise.family
        assert_same_tiles(*tiles_on_both_paths(cfg, np.arange(7), 5000))


def test_mann_tile_steps_past_two_to_the_32(kernel):
    # a uint64 n*n wraps to 0 at n = 2**32, and n*n >= 2**53 is rounded: the
    # kernel's b_n must round n*n once, as a/(n*n) does in Python.  From
    # x = 0 the linear map's first step is b_n * xi exactly.
    start, T, R = 2**32 - 2, 4, 3
    keys = derive_key(np.arange(R, dtype=np.uint64))
    steps = np.arange(start, start + T, dtype=np.uint64)
    for m in (inverse_quadratic(), affine([[0.3, -0.2], [0.1, 0.4]], [0.0, 0.0])):
        d = dimension(m)
        cfg = SchemeConfig(kind="stochastic_mann", map_spec=m, x0=np.zeros(d),
                           noise=gaussian(2.0, dim=d), steps=StepSequences(a=0.3))
        states = np.empty((d, T, R))
        step_tile = schemes._kernel_tiles(cfg, keys, states,
                                          schemes.tile_kernel(cfg))
        xi = step_tile(start, T)
        draws = sample_keyed(cfg.noise, keys, steps[:, None])
        assert xi.tobytes() == draws.tobytes()
        update = schemes._update(cfg, map_function(m))
        x = np.zeros((R, d))
        for k in range(T):
            x = update(x, start + k, draws[k])
            assert states[:, k].T.tobytes() == x.tobytes(), (m.family, k)
