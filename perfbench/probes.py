"""Kernel probes: each layer's public functions timed at a workload's shape.

Every probe reports the median time of one call divided by the units the
call works on (blocks, draws, replica-steps, rows, cells). Counts are
computed from the workload's shape and labelled as computed.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from stochmann import bounds, config, montecarlo, noise, schemes, spaces, streams

PROBE_STEPS = 100       # horizon of the replica_errors probe
RUN_PROBE_STEPS = 1000  # horizon of the schemes.run probe
MIN_SECONDS = 0.25      # least time spent on each kernel probe
BOUNDS_MIN_SECONDS = 0.02
MIN_CALLS = 3


def per_unit(fn, units, min_seconds=MIN_SECONDS, min_calls=MIN_CALLS):
    """Median seconds of one fn() call, divided by units."""
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_seconds:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) / units


def load(spec):
    cfg = config.load_config(spec["config"])
    scheme = config.build_scheme(cfg)
    params = config.build_bound_params(cfg, map_spec=scheme.map_spec)
    return cfg, scheme, params


def kernel_probes(spec, sample_block_rows):
    """Streams, noise, spaces, schemes and montecarlo at the workload's
    (R, d); sample_block draws sample_block_rows rows of one trajectory."""
    _, scheme, _ = load(spec)
    R, d = spec["replicas"], spec["dim"]
    model, m = scheme.noise, scheme.map_spec
    seeds = montecarlo.replica_seeds(spec["seed"], R)
    keys = streams.derive_key(seeds)
    n = 7  # any step index; draws cost the same at every index
    blocks = (d + 1) // 2
    c0 = np.arange(blocks, dtype=np.uint64).reshape(1, blocks)
    c1 = np.full((R, 1), n, dtype=np.uint64)
    X = np.tile(scheme.x0, (R, 1))
    draws = noise.sample_many(model, d, seeds, n)
    x_star = spaces.reference_fixed_point(m)
    rows = np.arange(1, sample_block_rows + 1, dtype=np.uint64)
    out = {
        "streams.philox_ns_per_block": per_unit(
            lambda: streams.philox2x64(c0, c1, keys[:, None]), R * blocks),
        "streams.normals_ns_per_draw": per_unit(
            lambda: streams.substream_normals(keys, n, d), R * d),
        "noise.sample_many_ns_per_draw": per_unit(
            lambda: noise.sample_many(model, d, seeds, n), R * d),
        "noise.sample_block_ns_per_draw": per_unit(
            lambda: noise.sample_block(model, d, spec["seed"], rows),
            sample_block_rows * d),
        "spaces.eval_map_ns_per_replica_step": per_unit(
            lambda: spaces.eval_map(m, X), R),
        "spaces.norm_ns_per_row": per_unit(
            lambda: spaces.norm(X, scheme.norm_kind), R),
        "schemes.step_ns_per_replica_step": per_unit(
            lambda: schemes.step(scheme.kind, X, n, scheme, draws), R),
        "montecarlo.replica_errors_ns_per_replica_step": per_unit(
            lambda: montecarlo.replica_errors(scheme, x_star, seeds,
                                              (PROBE_STEPS,)),
            R * PROBE_STEPS),
    }
    out = {k: v * 1e9 for k, v in out.items()}
    out["montecarlo.loop_overhead_share"] = loop_overhead_share(
        scheme, x_star, seeds)
    out["spaces.reference_fixed_point_ms"] = 1e3 * per_unit(
        lambda: spaces.reference_fixed_point(m), 1)
    short = dataclasses.replace(scheme, horizon=RUN_PROBE_STEPS)
    out["schemes.run_us_per_step"] = 1e6 * per_unit(
        lambda: schemes.run(short, x_star), RUN_PROBE_STEPS)
    out["config.load_build_ms"] = 1e3 * per_unit(lambda: load(spec), 1)
    return out


def loop_overhead_share(scheme, x_star, seeds):
    """1 - (time in the calls replica_errors makes) / (replica_errors time).

    replica_errors calls sample_many and step once per step and norm once
    per checkpoint; streams run inside sample_many and eval_map inside step.
    Each round times replica_errors, then the same calls one by one, so both
    sides see the machine in the same state.
    """
    d = spaces.dimension(scheme.map_spec)
    clock = time.perf_counter
    whole, parts = [], []
    start = clock()
    while len(whole) < MIN_CALLS or clock() - start < MIN_SECONDS:
        t = clock()
        montecarlo.replica_errors(scheme, x_star, seeds, (PROBE_STEPS,))
        whole.append(clock() - t)
        X = np.tile(scheme.x0, (seeds.shape[0], 1))
        busy = 0.0
        for n in range(1, PROBE_STEPS + 1):
            t = clock()
            draws = noise.sample_many(scheme.noise, d, seeds, n)
            X = schemes.step(scheme.kind, X, n, scheme, draws)
            busy += clock() - t
        t = clock()
        spaces.norm(X - x_star, scheme.norm_kind)
        parts.append(busy + clock() - t)
    return 1.0 - statistics.median(parts) / statistics.median(whole)


def bounds_probes(param_sets, eps, alpha, trials, k_grid):
    """Series, tail bound and n_alpha in their default form, averaged over
    param_sets, and Clopper-Pearson per cell over k_grid."""
    totals = dict.fromkeys(("bounds.series_S1_ms", "bounds.series_S2_ms",
                            "bounds.tail_bound_us",
                            "bounds.min_iterations_us"), 0.0)

    def timed(fn):
        return per_unit(fn, 1, min_seconds=BOUNDS_MIN_SECONDS)

    for p in param_sets:
        totals["bounds.series_S1_ms"] += 1e3 * timed(
            lambda: bounds.series_S1_detail(p.a, p.c))
        totals["bounds.series_S2_ms"] += 1e3 * timed(
            lambda: bounds.series_S2_detail(p.a, p.c, p.sigma))
        totals["bounds.tail_bound_us"] += 1e6 * timed(
            lambda: bounds.tail_bound(1000, eps, p))
        totals["bounds.min_iterations_us"] += 1e6 * timed(
            lambda: bounds.min_iterations_for_confidence(eps, alpha, p))
    out = {k: v / len(param_sets) for k, v in totals.items()}
    out["montecarlo.clopper_pearson_us_per_cell"] = 1e6 * per_unit(
        lambda: [montecarlo.clopper_pearson(k, trials) for k in k_grid],
        len(k_grid))
    return out


def series_terms(params):
    """Terms summed by one S1 and one S2 evaluation (computed)."""
    return (bounds.series_S1_detail(params.a, params.c).terms
            + bounds.series_S2_detail(params.a, params.c, params.sigma).terms)
