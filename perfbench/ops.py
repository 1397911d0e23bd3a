"""The workloads' operations as calls into the stochmann library.

``sweep`` is certify_sweep's timed operation. The ``rebuild_*`` functions
redo a CLI command from the same public calls the CLI makes, with a span
around each call, for the traced run; they write no files.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager, nullcontext

from stochmann import bounds, config, montecarlo, schemes, spaces
from checks import center_digest, p_hat_digest


class Tracer:
    """Spans kept in memory: name, start, end and parent span id."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            self._open.pop()
            span["end"] = time.perf_counter()


class NoTrace:
    """The untraced stand-in: spans cost one empty context manager."""

    @staticmethod
    def span(name):
        return nullcontext()


def sweep(inputs, tr):
    """Certify every parameter set of the grid with the public bounds API.

    Each function is called in its default form, so each call recomputes
    its series, as a library user's call does.
    """
    certs = []
    for p in inputs["grid"]:
        params = bounds.BoundParams(**p)
        n_alpha = {}
        for eps in inputs["eps"]:
            for alpha in inputs["alpha"]:
                with tr.span("bounds.min_iterations_for_confidence"):
                    n_alpha[eps, alpha] = bounds.min_iterations_for_confidence(
                        eps, alpha, params)
        tail = {}
        for n in inputs["checkpoints"]:
            for eps in inputs["eps"]:
                with tr.span("bounds.tail_bound"):
                    tail[n, eps] = bounds.tail_bound(n, eps, params).clipped_bound
        with tr.span("bounds.canonical_eps0"):
            eps0 = bounds.canonical_eps0(params)
        cp = []
        for k in inputs["k_grid"]:
            with tr.span("montecarlo.clopper_pearson"):
                cp.append((k, inputs["trials"],
                           montecarlo.clopper_pearson(k, inputs["trials"])))
        certs.append({"params": p, "n_alpha": n_alpha, "tail": tail,
                      "eps0": eps0, "cp": cp})
    return certs


def rebuild_montecarlo(spec, tr):
    """`stochmann montecarlo` without its file output."""
    with tr.span("config.load_config"):
        cfg = config.load_config(spec["config"])
    with tr.span("config.build_scheme"):
        scheme = config.build_scheme(cfg)
    with tr.span("config.build_plan"):
        plan = config.build_plan(cfg, scheme=scheme,
                                 replicas=spec["replicas"])
    with tr.span("config.build_bound_params"):
        params = config.build_bound_params(cfg, map_spec=scheme.map_spec)
    with tr.span("spaces.reference_fixed_point"):
        x_star = spaces.reference_fixed_point(scheme.map_spec)
    with tr.span("bounds.series_S1_detail"):
        s1 = bounds.series_S1_detail(params.a, params.c)
    with tr.span("bounds.series_S2_detail"):
        s2 = bounds.series_S2_detail(params.a, params.c, params.sigma)
    with tr.span("montecarlo.replica_seeds"):
        seeds = montecarlo.replica_seeds(plan.base_seed, plan.replicas)
    with tr.span("montecarlo.replica_errors"):
        errs = montecarlo.replica_errors(plan.scheme, x_star, seeds,
                                         plan.checkpoints)
    rows, informative = [], 0
    for j, n in enumerate(plan.checkpoints):
        for eps in plan.eps_grid:
            k = int((errs[:, j] > eps).sum())
            with tr.span("montecarlo.clopper_pearson"):
                montecarlo.clopper_pearson(k, plan.replicas)
            with tr.span("bounds.tail_bound"):
                rep = bounds.tail_bound(n, eps, params, s1=s1.value,
                                        s2=s2.value)
            informative += rep.clipped_bound < 1.0
            rows.append((n, format(eps, ".17g"),
                         format(k / plan.replicas, ".17g")))
    return {"sim_digest": p_hat_digest(rows), "cells": len(rows),
            "informative_cells": informative,
            "series_terms": s1.terms + s2.terms,
            "scheme": scheme, "x_star": x_star, "seeds": seeds,
            "checkpoints": plan.checkpoints, "errors": errs}


def rebuild_confidence(spec, tr):
    """`stochmann confidence --eps EPS` without its file output."""
    with tr.span("config.load_config"):
        cfg = config.load_config(spec["config"])
    settings = config.experiment_settings(cfg)
    with tr.span("config.build_bound_params"):
        params = config.build_bound_params(cfg)
    with tr.span("bounds.min_iterations_for_confidence"):
        n_alpha = bounds.min_iterations_for_confidence(
            spec["eps"], settings["alpha"], params, n_cap=settings["n_cap"])
    with tr.span("config.build_scheme"):
        scheme = dataclasses.replace(config.build_scheme(cfg),
                                     horizon=int(n_alpha))
    with tr.span("spaces.reference_fixed_point"):
        x_star = spaces.reference_fixed_point(scheme.map_spec)
    with tr.span("schemes.run"):
        traj = schemes.run(scheme, x_star)
    return {"sim_digest": center_digest(traj.iterate(n_alpha + 1)),
            "n_alpha": n_alpha, "scheme": scheme, "x_star": x_star,
            "params": params}


def rebuild_sweep(spec, tr):
    certs = sweep(spec["sweep"], tr)
    return {"informative": sum(bound < 1.0 for cert in certs
                               for bound in cert["tail"].values())}


REBUILD = {"mc_reference": rebuild_montecarlo,
           "mc_affine_d8": rebuild_montecarlo,
           "confidence_long": rebuild_confidence,
           "certify_sweep": rebuild_sweep}


def spot_check(rebuilt, replicas):
    """Batched vs serial: schemes.run under replica r's seed must equal row r
    of replica_errors bit for bit at every checkpoint. Returns mismatches."""
    scheme, x_star = rebuilt["scheme"], rebuilt["x_star"]
    cps, errs = rebuilt["checkpoints"], rebuilt["errors"]
    horizon = max(cps)
    mismatches = []
    for r in replicas:
        serial = dataclasses.replace(scheme, seed=int(rebuilt["seeds"][r]),
                                     horizon=horizon)
        traj = schemes.run(serial, x_star)
        for j, n in enumerate(cps):
            # errors_to_ref row n holds x_{n+1}, as does column j after step n.
            if traj.errors_to_ref[n].tobytes() != errs[r, j].tobytes():
                mismatches.append(f"replica {r}, checkpoint {n}: serial "
                                  f"{traj.errors_to_ref[n]!r} != batched "
                                  f"{errs[r, j]!r}")
    return mismatches
