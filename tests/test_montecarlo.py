import dataclasses
import multiprocessing
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta, binomtest

from stochmann import config, montecarlo, schemes, streams
from stochmann.bounds import BoundParams, certificate
from stochmann.errors import (CoverageError, DivergedError,
                              InfeasibleExperimentError, ValidationError)
from stochmann.montecarlo import (ExperimentPlan, TailEstimate,
                                  clopper_pearson, coverage_experiment,
                                  dominance_failures, empirical_tail,
                                  error_table, rate_diagnostic,
                                  replica_errors, replica_seeds)
from stochmann.noise import (bounded_uniform, gaussian, sample_block,
                             sample_many, zero)
from stochmann.schemes import (TILE_ELEMENTS, SchemeConfig, StepSequences,
                               advance, run)
from stochmann.spaces import (INVERSE_QUADRATIC_C, affine, inverse_quadratic,
                              reference_fixed_point, scaled_cosine)
from stochmann.streams import derive_key

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def ref_cfg(horizon=1000, seed=0, a=0.5, scale=2.0):
    return SchemeConfig(kind="stochastic_mann", map_spec=inverse_quadratic(),
                        x0=np.array([0.5]), steps=StepSequences(a=a),
                        noise=gaussian(scale=scale), horizon=horizon,
                        seed=seed)


ART_PARAMS = BoundParams(N=0.7, a=0.9, c=0.0, sigma=0.1, L=0.1,
                         mean_norm_bound=0.1, rho=0.9)


def affine_nd(d):
    i, j = np.indices((d, d))
    return affine(0.3 * np.eye(d) + 0.02 * ((3 * i + 5 * j) % 7 - 3),
                  np.linspace(-1.0, 1.0, d))


def art_cfg(horizon=10**4):
    return SchemeConfig(
        kind="stochastic_mann",
        map_spec=affine(np.array([[0.0]]), np.array([0.7]), declared_c=0.0),
        x0=np.array([0.0]), steps=StepSequences(a=0.9),
        noise=bounded_uniform(half_width=0.1), horizon=horizon, seed=0)


def test_clopper_pearson_matches_scipy_exact_ci():
    for n in (1, 7, 50, 400):
        for k in {0, 1, n // 3, n - 1, n}:
            if not 0 <= k <= n:
                continue
            lo, hi = clopper_pearson(k, n, confidence=0.99)
            ref = binomtest(k, n).proportion_ci(confidence_level=0.99,
                                                method="exact")
            # scipy inverts the test by root finding, agreement ~1e-11
            assert np.isclose(lo, ref.low, rtol=1e-9, atol=1e-12)
            assert np.isclose(hi, ref.high, rtol=1e-9, atol=1e-12)


def test_clopper_pearson_bitwise_equal_to_beta_ppf():
    # 640 k per n, both limits per cell
    tail = 0.5 * (1.0 - 0.99)
    for n in (100, 200, 1000, 2000, 10000):
        for k in np.unique(np.linspace(0, n, 640).astype(int)).tolist():
            lo, hi = clopper_pearson(k, n, confidence=0.99)
            assert lo == (0.0 if k == 0 else
                          float(beta.ppf(tail, k, n - k + 1)))
            assert hi == (1.0 if k == n else
                          float(beta.ppf(1.0 - tail, k + 1, n - k)))


@given(st.integers(1, 500), st.data())
@settings(max_examples=100, deadline=None)
def test_clopper_pearson_brackets_point_estimate(n, data):
    k = data.draw(st.integers(0, n))
    lo, hi = clopper_pearson(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_clopper_pearson_validation():
    with pytest.raises(ValidationError):
        clopper_pearson(5, 4)
    with pytest.raises(ValidationError):
        clopper_pearson(-1, 4)
    with pytest.raises(ValidationError):
        clopper_pearson(1, 4, confidence=1.0)
    with pytest.raises(ValidationError, match="successes"):
        clopper_pearson(2.5, 10)  # not rounded to an interval


def test_replica_seeds_are_derived_keys():
    seeds = replica_seeds(20240814, 100)
    expected = derive_key(20240814, np.arange(100, dtype=np.uint64))
    assert np.array_equal(seeds, expected)
    assert np.unique(seeds).size == 100


def test_replica_counts_numpy_cannot_hold_are_refused():
    # 10**20 seeds exceed numpy's largest array before anything is allocated
    with pytest.raises(ValidationError, match="^replicas: numpy cannot hold"):
        replica_seeds(1, 10**20)


def test_seeds_outside_the_key_range_are_refused():
    # derive_key reduces seeds mod 2**64, so each of these would rerun the
    # streams of a seed inside the range
    for seed in (2**64 + 5, -1, 1.5, True):
        with pytest.raises(ValidationError, match="scheme.seed"):
            ref_cfg(seed=seed)
    for seed, replicas in ((2**64 + 3, 4), (-1, 2)):
        with pytest.raises(ValidationError, match="base_seed"):
            replica_seeds(seed, replicas)
    top = 2**64 - 1
    assert ref_cfg(seed=np.uint64(top)).seed == top
    assert np.array_equal(replica_seeds(top, 2),
                          derive_key(top, np.arange(2, dtype=np.uint64)))


def test_draws_and_steps_refuse_seeds_outside_the_key_range(monkeypatch):
    cfg = ref_cfg(horizon=5)
    one = sample_block(gaussian(1.0), 1, 1, 3)
    for seed in (2**64 + 1, 1.7, -1, [1, -2], True, "1", [[1], [2, 3]]):
        with pytest.raises(ValidationError, match="seeds"):
            sample_block(gaussian(1.0), 1, seed, 3)
    for index in (2**64, -3, 2.5):
        with pytest.raises(ValidationError, match="indices"):
            sample_block(gaussian(1.0), 1, 1, index)
        with pytest.raises(ValidationError, match="indices"):
            sample_many(gaussian(1.0), 1, [1, 2], index)
    for seeds in ([1.5], [-1], [2**64], [], [[1, 2]], 3, np.array([-1, 2])):
        with pytest.raises(ValidationError, match="seeds"):
            advance(cfg, seeds, 5)
    x_star = reference_fixed_point(cfg.map_spec)
    for seeds in (replica_seeds(1, 0), [-1, -2]):
        with pytest.raises(ValidationError, match="seeds"):
            replica_errors(cfg, x_star, seeds, (5,))
    # every form of an in-range seed draws the same; an integer ndarray is
    # checked without a loop over its seeds
    top = 2**64 - 1
    for seed in (1, 1.0, np.uint64(1), np.array([1]), [1]):
        assert sample_block(gaussian(1.0), 1, seed, 3).reshape(-1) == one
    monkeypatch.setattr(streams, "check_seed", None)
    seeds = np.array([0, 2**63, top], dtype=np.uint64)
    for form in (seeds, np.array([0, 2**62]), np.array([7], dtype=np.uint32)):
        steps = list(advance(cfg, form, 5))
        assert steps[0][1].shape == (5, form.size, 1)


def test_batched_replicas_equal_serial_runs_bitwise():
    # a serial run has R = d = 1 (on the numpy path it steps floats); a
    # batch steps arrays
    ref = ref_cfg(horizon=300)
    d2 = dataclasses.replace(
        ref, map_spec=affine(np.array([[0.3, 0.1], [-0.2, 0.4]]),
                             np.array([0.5, -1.0])),
        x0=np.array([0.0, 2.0]), noise=gaussian(scale=0.5, dim=2))
    cosine = dataclasses.replace(ref, map_spec=scaled_cosine(0.8),
                                 x0=np.array([1.0]))
    d1 = dataclasses.replace(art_cfg(horizon=300),
                             map_spec=affine(np.array([[0.3]]), np.array([0.7])))
    # d >= 8 reaches numpy's pairwise summation in the norm's reduction
    d8, d9 = (dataclasses.replace(
        ref, map_spec=affine_nd(d), x0=np.linspace(2.0, -2.0, d),
        noise=gaussian(scale=0.5, dim=d)) for d in (8, 9))
    # 200 replicas give noise tiles shorter than the horizon, so the batch
    # crosses tile boundaries that the serial runs place elsewhere.
    assert TILE_ELEMENTS // 200 < ref.horizon
    cases = [(ref, 6, range(6)), (ref, 200, (0, 117, 199)), (d2, 6, range(6)),
             (cosine, 6, range(6)), (d1, 6, range(6)), (ref, 1, (0,)),
             (d8, 200, (0, 117, 199)), (d9, 7, range(7))]
    cps = (10, 100, 300)
    for cfg, replicas, rows in cases:
        x_star = reference_fixed_point(cfg.map_spec)
        seeds = replica_seeds(42, replicas)
        batch = replica_errors(cfg, x_star, seeds, cps)
        for r in rows:
            traj = run(dataclasses.replace(cfg, seed=int(seeds[r])), x_star)
            for j, n in enumerate(cps):
                # checkpoint n records the error of x_{n+1}
                assert batch[r, j] == traj.error(n + 1)


def test_batched_replicas_equal_serial_runs_bitwise_on_the_numpy_path(
        numpy_streams):
    test_batched_replicas_equal_serial_runs_bitwise()


def zero_noise_cases():
    ref = ref_cfg(horizon=300, scale=2.0)
    return [dataclasses.replace(cfg, noise=zero()) for cfg in (
        ref, dataclasses.replace(ref, map_spec=scaled_cosine(0.8),
                                 x0=np.array([1.0])),
        dataclasses.replace(art_cfg(horizon=300),
                            map_spec=affine(np.array([[0.3]]), np.array([0.7]))))]


def single_and_pair(cfg):
    """x_{n+1} for n = 1..50 under seed 0 alone and under seeds 0 and 1."""
    single, pair = ([X[k].copy() for _, X, _ in advance(cfg, seeds, 50)
                     for k in range(X.shape[0])] for seeds in ([0], [0, 1]))
    assert len(single) == len(pair) == 50, cfg.map_spec
    return single, pair


def test_zero_noise_single_replica_and_pair_step_the_same_rule(numpy_streams,
                                                               monkeypatch):
    # zero noise (plain Mann) on the numpy path: one replica steps floats,
    # two step arrays, and every replica runs the same path; advance yields
    # tiles, so the states as stepped are read from the update rule it
    # resolves
    resolve = schemes._update
    stepped = []  # per advance call, the states its update rule returned

    def recording(cfg, F):
        rule, states = resolve(cfg, F), []
        stepped.append(states)

        def step_and_record(x, n, xi):
            states.append(rule(x, n, xi))
            return states[-1]
        return step_and_record

    monkeypatch.setattr(schemes, "_update", recording)
    for cfg in zero_noise_cases():
        stepped.clear()
        single, pair = single_and_pair(cfg)
        assert all(isinstance(x, float) for x in stepped[0]), cfg.map_spec
        assert stepped[0] == [X[0, 0] for X in single], cfg.map_spec
        assert all(isinstance(X, np.ndarray) for X in stepped[1])
        assert np.array_equal(np.array(pair), np.tile(
            np.array(single), (1, 2, 1))), cfg.map_spec


def test_zero_noise_single_replica_and_pair_agree_on_the_kernel_path(
        kernel, monkeypatch):
    # the same check where mann_tile steps both: every replica runs the one
    # path, and the numpy body's rule is never resolved, for every map
    calls = []
    resolve = schemes._update
    monkeypatch.setattr(schemes, "_update",
                        lambda *args: calls.append(args) or resolve(*args))
    for cfg in zero_noise_cases():
        # both classes resolved first, one replica on the line and a pair:
        # each load-time check runs the numpy body once
        assert schemes.tile_kernel(cfg) is not None
        assert schemes.tile_kernel(cfg, 2) is not None
        calls.clear()
        single, pair = single_and_pair(cfg)
        assert calls == [], cfg.map_spec
        assert np.array_equal(np.array(pair), np.tile(
            np.array(single), (1, 2, 1))), cfg.map_spec


def test_replica_divergence_reported_with_indices():
    cfg = ref_cfg(horizon=20, scale=1e308)
    x_star = reference_fixed_point(inverse_quadratic())
    seeds = replica_seeds(0, 16)
    with np.errstate(over="ignore"), pytest.raises(DivergedError) as info:
        replica_errors(cfg, x_star, seeds, (20,))
    assert info.value.replicas == [5]
    assert info.value.last_finite_index == 1


def test_late_divergence_reported_at_its_step():
    # replica 0 of base seed 0 first leaves the floats at step 14; replica 2
    # stays finite over the horizon
    cfg = ref_cfg(horizon=20, scale=1e308)
    x_star = reference_fixed_point(inverse_quadratic())
    seeds = replica_seeds(0, 3)
    k = 14
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedError) as info:
            run(dataclasses.replace(cfg, seed=int(seeds[0])))
        assert info.value.last_finite_index == k
        assert info.value.replicas == [0]
        with pytest.raises(DivergedError) as info:
            replica_errors(cfg, x_star, seeds[[2, 0]], (20,))
        assert info.value.last_finite_index == k
        assert info.value.replicas == [1]


def test_divergence_reported_on_the_numpy_path(numpy_streams):
    test_replica_divergence_reported_with_indices()
    test_late_divergence_reported_at_its_step()


def test_split_replicas_equal_serial_pass_bitwise(kernel, cores):
    # 7 replicas give uneven chunks: 4 + 3 on 2 cores, 3 + 2 + 2 on 3, one
    # each on 8; the threads switch as often as the interpreter lets them
    shipped = config.build_scheme(config.load_config(CONFIGS / "reference.json"))
    cases = {
        "reference.json": dataclasses.replace(shipped, horizon=300),
        "affine d=8": dataclasses.replace(
            ref_cfg(horizon=300), map_spec=affine_nd(8),
            x0=np.linspace(2.0, -2.0, 8), noise=gaussian(scale=0.5, dim=8)),
        "zero noise": dataclasses.replace(ref_cfg(horizon=300), noise=zero()),
    }
    seeds = replica_seeds(42, 7)
    cps = (10, 100, 300)
    for name, cfg in cases.items():
        x_star = reference_fixed_point(cfg.map_spec)
        pools = cores(1)
        serial = replica_errors(cfg, x_star, seeds, cps)
        assert pools == [], name
        for k in (2, 3, 8):
            pools = cores(k)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                split = replica_errors(cfg, x_star, seeds, cps)
            finally:
                sys.setswitchinterval(interval)
            assert pools == [min(k, 7) - 1], (name, k)
            assert split.dtype == serial.dtype and split.shape == serial.shape
            assert split.tobytes() == serial.tobytes(), (name, k)


def test_split_stays_within_the_cores_and_the_replicas(kernel, cores):
    cfg = ref_cfg(horizon=50)
    x_star = reference_fixed_point(cfg.map_spec)
    pools = cores(3)
    split = [replica_errors(cfg, x_star, replica_seeds(1, R), (50,))
             for R in (1, 2)]
    assert pools == [1]  # one replica never splits; two fill two threads
    cores(1)
    assert [replica_errors(cfg, x_star, replica_seeds(1, R), (50,)).tobytes()
            for R in (1, 2)] == [e.tobytes() for e in split]


def test_daemonic_process_splits_too(kernel, cores):
    # a pool's worker may not have children, but it may start threads
    cfg = ref_cfg(horizon=50)
    x_star = reference_fixed_point(cfg.map_spec)
    seeds = replica_seeds(1, 4)
    cores(1)
    serial = replica_errors(cfg, x_star, seeds, (50,))
    pools = cores(2)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()

    def target():
        try:
            got = replica_errors(cfg, x_star, seeds, (50,))
            queue.put((got.tobytes(), pools))
        except BaseException as exc:
            queue.put(repr(exc))

    child = ctx.Process(target=target, daemon=True)
    child.start()
    got = queue.get()
    child.join(timeout=60)
    assert not child.is_alive()
    assert got == (serial.tobytes(), [1])


def test_split_while_other_threads_run(kernel, cores):
    # threads, unlike a fork, do not copy the locks another thread holds
    cfg = ref_cfg(horizon=50)
    x_star = reference_fixed_point(cfg.map_spec)
    seeds = replica_seeds(1, 4)
    cores(1)
    serial = replica_errors(cfg, x_star, seeds, (50,))
    pools = cores(2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        got = replica_errors(cfg, x_star, seeds, (50,))
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert pools == [1] and got.tobytes() == serial.tobytes()


def test_split_threads_keep_the_callers_errstate(kernel, cores, monkeypatch):
    # every walk, each worker's too, runs under the caller's np.errstate,
    # and the states near 1e200 give the same finite errors either way
    cfg = dataclasses.replace(
        ref_cfg(horizon=20), map_spec=affine(np.array([[0.5]]), np.array([0.0])),
        x0=np.array([1e200]), noise=zero())
    seeds = replica_seeds(1, 4)
    seen, walk = [], schemes._walk

    def recording(*args):
        seen.append(np.geterr()["over"])
        return walk(*args)

    monkeypatch.setattr(schemes, "_walk", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            cores(1)
            serial = replica_errors(cfg, np.zeros(1), seeds, (10, 20))
            pools = cores(2)
            split = replica_errors(cfg, np.zeros(1), seeds, (10, 20))
    assert np.geterr()["over"] != "ignore" and seen == ["ignore"] * 3
    assert np.isfinite(serial).all()
    assert pools == [1] and split.tobytes() == serial.tobytes()


def test_experiments_agree_on_both_paths(kernel, cores):
    coverage = ExperimentPlan(scheme=art_cfg(), checkpoints=(10,),
                              eps_grid=(0.1,), replicas=400, base_seed=7)
    rate = ExperimentPlan(scheme=ref_cfg(horizon=1000),
                          checkpoints=(10, 100, 1000), eps_grid=(0.1,),
                          replicas=100, base_seed=5)
    params = BoundParams(N=0.18232780382804766, a=0.5, c=INVERSE_QUADRATIC_C,
                         sigma=4.0, L=4.0, mean_norm_bound=1.5957691216057308,
                         rho=0.5 * 0.5 * (1 - INVERSE_QUADRATIC_C))
    results = {}
    for k in (1, 2):
        pools = cores(k)
        results[k] = (
            coverage_experiment(coverage, eps=0.1, alpha=0.05,
                                params=ART_PARAMS, n_cap=10**6),
            rate_diagnostic(rate, params, eps0=1.0))
        assert pools == ([1, 1] if k == 2 else [])
    assert results[1] == results[2]


def test_divergence_under_the_split(kernel, cores):
    # the late divergence of test_late_divergence_reported_at_its_step, with
    # the replicas split over two threads
    cfg = ref_cfg(horizon=20, scale=1e308)
    x_star = reference_fixed_point(inverse_quadratic())
    seeds = replica_seeds(0, 14)
    # serial runs of base seed 0 leave the floats at step 14 (replica 0),
    # 5 (replicas 1 and 13) and 1 (replica 5); replica 2 stays finite
    cases = {(2, 0): (14, [1]), (0, 2, 1): (5, [2]), (1, 2, 13): (5, [0, 2]),
             (0, 2, 1, 5): (1, [3])}
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, (step, bad) in cases.items():
            errors = []
            for k in (1, 2):
                pools = cores(k)
                threads = threading.active_count()
                with pytest.raises(DivergedError) as info:
                    replica_errors(cfg, x_star, seeds[list(rows)], (20,))
                # every worker thread has joined by the time it raises
                assert threading.active_count() == threads, (rows, k)
                assert pools == ([1] if k == 2 else []), rows
                assert info.value.last_finite_index == step, (rows, k)
                assert info.value.replicas == bad, (rows, k)
                errors.append(str(info.value))
            assert errors[0] == errors[1] \
                == f"{len(bad)} replica(s) diverged at step {step}"


def test_empirical_tail_cells_and_bounds():
    cfg = ref_cfg(horizon=200)
    x_star = reference_fixed_point(cfg.map_spec)
    plan = ExperimentPlan(scheme=cfg, checkpoints=(50, 200),
                          eps_grid=(0.05, 0.2), replicas=300, base_seed=9)
    params = BoundParams(N=0.18232780382804766, a=0.5, c=INVERSE_QUADRATIC_C,
                         sigma=4.0, L=4.0, mean_norm_bound=1.5957691216057308,
                         rho=0.5 * 2 * 0.5 * (1 - INVERSE_QUADRATIC_C))
    cells = empirical_tail(plan, x_star, params)
    assert [(c.n, c.eps) for c in cells] \
        == [(50, 0.05), (50, 0.2), (200, 0.05), (200, 0.2)]
    errs = replica_errors(cfg, x_star, replica_seeds(9, 300), (50, 200))
    cert = certificate(params)
    for cell in cells:
        j = (50, 200).index(cell.n)
        k = int(np.sum(errs[:, j] > cell.eps))
        assert cell.p_hat == k / 300
        assert cell.ci_low <= cell.p_hat <= cell.ci_high
        ref = cert.report(cell.n, cell.eps)
        assert cell.bound_clipped == ref.clipped_bound


def test_dominance_failures_and_vacuous_flags():
    good = TailEstimate(n=10, eps=0.1, p_hat=0.2, ci_low=0.15, ci_high=0.25,
                        bound_clipped=0.3)
    vac = TailEstimate(n=10, eps=0.1, p_hat=0.9, ci_low=0.85, ci_high=0.95,
                       bound_clipped=1.0)
    bad = TailEstimate(n=10, eps=0.1, p_hat=0.5, ci_low=0.45, ci_high=0.55,
                       bound_clipped=0.4)
    assert good.dominated and not good.vacuous
    assert vac.dominated and vac.vacuous
    assert not bad.dominated
    assert dominance_failures([good, vac, bad]) == [bad]


def test_coverage_experiment_feasible_case():
    plan = ExperimentPlan(scheme=art_cfg(), checkpoints=(10,), eps_grid=(0.1,),
                          replicas=400, base_seed=7)
    cov = coverage_experiment(plan, eps=0.1, alpha=0.05, params=ART_PARAMS,
                              n_cap=10**6)
    assert cov >= 1.0 - 0.05 - 3.0 * np.sqrt(0.05 * 0.95 / 400)


def test_coverage_gate_is_the_clopper_pearson_upper_limit(monkeypatch):
    # at 400 replicas, where three binomial standard errors and the 99%
    # Clopper-Pearson interval disagree: 390 covered at alpha = 0.01 has
    # upper limit 0.9906 >= 0.99, 367 covered at alpha = 0.05 has 0.9490 <
    # 0.95
    plan = ExperimentPlan(scheme=art_cfg(), checkpoints=(10,), eps_grid=(0.1,),
                          replicas=400, base_seed=7)
    for covered, alpha, passes in ((390, 0.01, True), (367, 0.05, False)):
        errs = np.where(np.arange(400) < covered, 0.0, 1.0)[:, None]
        monkeypatch.setattr(montecarlo, "replica_errors", lambda *a: errs)
        if passes:
            assert coverage_experiment(plan, eps=0.1, alpha=alpha,
                                       params=ART_PARAMS, n_cap=10**6) \
                == covered / 400
        else:
            with pytest.raises(CoverageError, match="upper limit 0.9490 < "):
                coverage_experiment(plan, eps=0.1, alpha=alpha,
                                    params=ART_PARAMS, n_cap=10**6)


def test_coverage_experiment_infeasible_raises_with_report():
    plan = ExperimentPlan(scheme=ref_cfg(horizon=1000), checkpoints=(10,),
                          eps_grid=(0.1,), replicas=50, base_seed=1)
    params = BoundParams(N=0.18232780382804766, a=0.5, c=INVERSE_QUADRATIC_C,
                         sigma=4.0, L=4.0, mean_norm_bound=1.5957691216057308,
                         rho=0.5 * 2 * 0.5 * (1 - INVERSE_QUADRATIC_C))
    with pytest.raises(InfeasibleExperimentError) as info:
        coverage_experiment(plan, eps=0.1, alpha=0.05, params=params,
                            n_cap=10**6)
    assert info.value.report is not None
    assert info.value.report.clipped_bound == 1.0


def test_coverage_experiment_detects_dishonest_parameters():
    # noise is actually uniform on [-5, 5] but the claimed moments are tiny,
    # so the certified n_alpha is far too small and coverage collapses
    cfg = SchemeConfig(
        kind="stochastic_mann",
        map_spec=affine(np.array([[0.0]]), np.array([0.0]), declared_c=0.0),
        x0=np.array([0.0]), steps=StepSequences(a=0.9),
        noise=bounded_uniform(half_width=5.0), horizon=100, seed=0)
    lying = BoundParams(N=0.0, a=0.9, c=0.0, sigma=1e-12, L=1e-12,
                        mean_norm_bound=0.0, rho=0.9)
    plan = ExperimentPlan(scheme=cfg, checkpoints=(10,), eps_grid=(1.0,),
                          replicas=400, base_seed=3)
    with pytest.raises(CoverageError):
        coverage_experiment(plan, eps=1.0, alpha=0.5, params=lying,
                            n_cap=10**4)


def test_error_table_matches_single_trajectory():
    cfg = ref_cfg(horizon=500, seed=12)
    x_star = reference_fixed_point(cfg.map_spec)
    rows = error_table(cfg, (1, 10, 100, 501), x_star)
    traj = run(cfg, x_star)
    assert [r.n for r in rows] == [1, 10, 100, 501]
    for r in rows:
        assert r.value == float(traj.iterate(r.n)[0])
        assert r.absolute_error == traj.error(r.n)
        assert np.isclose(r.relative_error,
                          r.absolute_error / abs(float(x_star[0])),
                          rtol=1e-15)


def test_error_table_sizes_run_to_last_checkpoint():
    cfg = ref_cfg(horizon=10, seed=12)  # shorter than the checkpoints need
    x_star = reference_fixed_point(cfg.map_spec)
    rows = error_table(cfg, (1, 50), x_star)
    assert rows[-1].n == 50


def test_error_table_rejects_vector_maps():
    m = affine(np.eye(2) * 0.5, np.zeros(2))
    cfg = SchemeConfig(kind="stochastic_mann", map_spec=m, x0=np.zeros(2),
                       noise=zero(dim=2), horizon=10)
    with pytest.raises(ValidationError):
        error_table(cfg, (1, 5), np.zeros(2))


def test_error_table_refuses_a_zero_fixed_point():
    # the relative error |x_n - x*| / |x*| is undefined at x* = 0
    cfg = SchemeConfig(kind="stochastic_mann", map_spec=affine([[0.5]], [0.0]),
                       x0=[1.0], noise=gaussian(0.1), horizon=100)
    with pytest.raises(ValidationError, match="^x_star: "):
        error_table(cfg, (1, 10), [0.0])


def test_median_error_nonincreasing_over_spaced_checkpoints():
    cfg = ref_cfg(horizon=1000)
    x_star = reference_fixed_point(cfg.map_spec)
    errs = replica_errors(cfg, x_star, replica_seeds(11, 300),
                          (10, 100, 1000))
    med = np.median(errs, axis=0)
    assert np.all(np.diff(med) <= 0.0)


def test_rate_diagnostic_is_reproducible_supremum():
    from stochmann.bounds import rate_envelope
    cfg = ref_cfg(horizon=1000)
    params = BoundParams(N=0.18232780382804766, a=0.5, c=INVERSE_QUADRATIC_C,
                         sigma=4.0, L=4.0, mean_norm_bound=1.5957691216057308,
                         rho=0.5 * 0.5 * (1 - INVERSE_QUADRATIC_C))
    plan = ExperimentPlan(scheme=cfg, checkpoints=(10, 100, 1000),
                          eps_grid=(0.1,), replicas=100, base_seed=5)
    diag = rate_diagnostic(plan, params, eps0=1.0)
    x_star = reference_fixed_point(cfg.map_spec)
    errs = replica_errors(cfg, x_star, replica_seeds(5, 100), (10, 100, 1000))
    env = np.array([rate_envelope(n, 1.0, params) for n in (10, 100, 1000)])
    assert diag.sup_ratio == float(np.max(errs / env))
    assert set(diag.exceedance) == {10, 100, 1000}
    assert all(0.0 <= v <= 1.0 for v in diag.exceedance.values())


def test_rate_diagnostic_validation():
    cfg = ref_cfg(horizon=100)
    params = ART_PARAMS
    plan2 = ExperimentPlan(scheme=cfg, checkpoints=(10, 100), eps_grid=(0.1,),
                           replicas=10, base_seed=0)
    with pytest.raises(ValidationError):
        rate_diagnostic(plan2, params, eps0=1.0)
    plan_low = ExperimentPlan(scheme=cfg, checkpoints=(1, 10, 100),
                              eps_grid=(0.1,), replicas=10, base_seed=0)
    with pytest.raises(ValidationError):
        rate_diagnostic(plan_low, params, eps0=1.0)
    plan = ExperimentPlan(scheme=cfg, checkpoints=(10, 50, 100),
                          eps_grid=(0.1,), replicas=10, base_seed=0)
    for eps0 in (0.0, -1.0, "x", None, float("nan"), True):
        with pytest.raises(ValidationError, match="eps0"):
            rate_diagnostic(plan, params, eps0=eps0)


def test_experiment_plan_validation():
    cfg = ref_cfg(horizon=100)
    with pytest.raises(ValidationError):
        ExperimentPlan(scheme=cfg, checkpoints=(), eps_grid=(0.1,),
                       replicas=10, base_seed=0)
    with pytest.raises(ValidationError):
        ExperimentPlan(scheme=cfg, checkpoints=(20, 10), eps_grid=(0.1,),
                       replicas=10, base_seed=0)
    with pytest.raises(ValidationError):
        ExperimentPlan(scheme=cfg, checkpoints=(10, 200), eps_grid=(0.1,),
                       replicas=10, base_seed=0)  # beyond horizon
    with pytest.raises(ValidationError):
        ExperimentPlan(scheme=cfg, checkpoints=(10,), eps_grid=(0.0,),
                       replicas=10, base_seed=0)
    with pytest.raises(ValidationError):
        ExperimentPlan(scheme=cfg, checkpoints=(10,), eps_grid=(0.1,),
                       replicas=0, base_seed=0)
    # counts are refused, not truncated: 1.9 is not iterate 1, 2.5 not 3
    # replicas; and the plan checks its seed when it is made
    with pytest.raises(ValidationError, match=r"experiment\.checkpoints\[0\]"):
        ExperimentPlan(scheme=cfg, checkpoints=(1.9, 50.5), eps_grid=(0.1,),
                       replicas=10, base_seed=0)
    with pytest.raises(ValidationError, match=r"^checkpoints\[0\]"):
        error_table(cfg, (1.5, 3), reference_fixed_point(cfg.map_spec))
    with pytest.raises(ValidationError, match="replicas"):
        replica_seeds(0, 2.5)
    with pytest.raises(ValidationError, match="base_seed"):
        ExperimentPlan(scheme=cfg, checkpoints=(10,), eps_grid=(0.1,),
                       replicas=10, base_seed="x")


def test_replica_errors_checks_its_checkpoints():
    # (0,) returned uninitialised rows, (5, 5) left a column unwritten, 2.5
    # and True were truncated to 2 and 1, and () raised from max()
    cfg = ref_cfg(horizon=5)
    x_star = reference_fixed_point(cfg.map_spec)
    seeds = replica_seeds(1, 3)
    for cps in ((0,), (5, 5), (4, 2), (2.5,), (True,), (), 5, None):
        with pytest.raises(ValidationError, match="^checkpoints"):
            replica_errors(cfg, x_star, seeds, cps)
