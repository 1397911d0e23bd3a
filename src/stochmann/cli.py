"""Command line front end.

Outputs are a function of (config file, base_seed) alone: file names embed
the base seed and a content hash of the config, floats are written with 17
significant digits, and nothing records wall-clock state, so rerunning a
command produces byte-identical files.

main builds the scheme (map, noise, steps) once, right after loading the
config, and hands it to the command, so every command applies the same
checks to the same fields.

Exit codes: 0 success, 2 invalid config or arguments, 3 a verification
failed (dominance, coverage, moment check, divergence), 4 experiment
infeasible at the requested scale.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .bounds import certificate
from .config import (RANGES, build_bound_params, build_plan, build_scheme,
                     config_hash, dumps17, experiment_settings, load_config)
from .errors import (CoverageError, DivergedError, DominanceError,
                     InfeasibleExperimentError, StochmannError,
                     ValidationError, check_number)
from .noise import cramer_check
from .schemes import rows_at
from .spaces import norm, reference_fixed_point
from .streams import check_seed

__all__ = ["main", "build_parser"]


def _out_dir(args, settings):
    field, path = ("--out", args.out) if args.out else ("out_dir", settings["out_dir"])
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"{field}: cannot create {path}: {exc}") from exc
    return Path(path)


def _stem(command, settings, digest):
    return f"{command}_seed{settings['base_seed']}_cfg{digest}"


def _write_json(path, payload):
    Path(path).write_text(dumps17(payload) + "\n", encoding="utf-8")


def _write_csv(path, header, rows):
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                             for v in row])


def _apply_overrides(settings, args):
    if getattr(args, "seed", None) is not None:
        settings["base_seed"] = check_seed(args.seed, "--seed")
    if getattr(args, "replicas", None) is not None:
        settings["replicas"] = check_number(args.replicas, "--replicas",
                                            **RANGES["experiment.replicas"])
    if getattr(args, "alpha", None) is not None:
        settings["alpha"] = check_number(args.alpha, "--alpha",
                                         **RANGES["experiment.alpha"])
    return settings


def cmd_iterate(args, cfg, scheme, digest, settings):
    horizon = scheme.horizon
    if horizon > settings["run_cap"]:
        raise InfeasibleExperimentError(
            f"scheme.horizon = {horizon} exceeds run cap {settings['run_cap']}; "
            "raise experiment.run_cap to execute")
    cps = settings["checkpoints"] or tuple(
        10**k for k in range(12) if 10**k <= horizon) + (horizon + 1,)
    if cps[-1] > horizon + 1:
        raise ValidationError(
            "experiment.checkpoints: exceed horizon + 1 iterate indices")
    x_star = reference_fixed_point(scheme.map_spec)
    out = _out_dir(args, settings)
    # x_n is the state after step n - 1; the last row is x_{horizon+1}
    states, noises = rows_at(scheme, [scheme.seed],
                             [n - 1 for n in cps] + [horizon],
                             [n for n in cps if n <= horizon])
    applied = [float(norm(xi, scheme.norm_kind)[0]) for xi in noises]
    errors = [float(norm(x - x_star, scheme.norm_kind)[0]) for x in states]
    header = ["n"] + [f"x{j + 1}" for j in range(len(x_star))] + [
        "noise_norm_at_step", "error"]
    rows = [[n] + x[0].tolist() + [a, e] for n, x, a, e in zip(
        cps, states, applied + [""], errors)]
    stem = _stem("iterate", settings, digest)
    csv_path = out / f"{stem}.csv"
    _write_csv(csv_path, header, rows)
    final_error = errors[-1]
    _write_json(out / f"{stem}.json", {
        "command": "iterate",
        "config_hash": digest,
        "base_seed": settings["base_seed"],
        "scheme_seed": scheme.seed,
        "kind": scheme.kind,
        "horizon": horizon,
        "fixed_point": [float(v) for v in x_star],
        "final_error": final_error,
        "csv": csv_path.name,
    })
    print(f"final error {final_error:.6e} at iterate {horizon + 1}")
    print(f"wrote {csv_path}")
    return 0


def cmd_bound(args, cfg, scheme, digest, settings):
    params = build_bound_params(cfg, map_spec=scheme.map_spec,
                                noise=scheme.noise)
    report = certificate(params).report(args.n, args.eps)
    payload = {
        "command": "bound",
        "config_hash": digest,
        "base_seed": settings["base_seed"],
        "params": dataclasses.asdict(params),
        "report": dataclasses.asdict(report),
    }
    text = dumps17(payload)
    print(text)
    if args.out:
        out = _out_dir(args, settings)
        stem = _stem(f"bound_n{args.n}", settings, digest)
        _write_json(out / f"{stem}.json", payload)
    return 0


def cmd_confidence(args, cfg, scheme, digest, settings):
    x_star = reference_fixed_point(scheme.map_spec)
    params = build_bound_params(cfg, map_spec=scheme.map_spec, x_star=x_star,
                                noise=scheme.noise)
    eps = args.eps if args.eps is not None else (
        settings["eps_grid"][0] if settings["eps_grid"] else None)
    if eps is None:
        raise ValidationError("confidence: provide --eps or experiment.eps_grid")
    alpha = settings["alpha"]
    cert = certificate(params)
    n_alpha = cert.min_iterations(eps, alpha, settings["n_cap"])
    if n_alpha is None:
        raise InfeasibleExperimentError(
            f"no n <= {settings['n_cap']} certifies P(error > {eps:g}) <= "
            f"{alpha:g}",
            report=cert.report(settings["n_cap"], eps))
    if n_alpha > settings["run_cap"]:
        raise InfeasibleExperimentError(
            f"certified n_alpha = {n_alpha} exceeds run cap "
            f"{settings['run_cap']}; raise experiment.run_cap to execute")
    out = _out_dir(args, settings)
    (x,), _ = rows_at(scheme, [scheme.seed], [int(n_alpha)])
    center = x[0]
    contains = bool(norm(x - x_star, scheme.norm_kind)[0] <= eps)
    stem = _stem("confidence", settings, digest)
    payload = {
        "command": "confidence",
        "config_hash": digest,
        "base_seed": settings["base_seed"],
        "scheme_seed": scheme.seed,
        "eps": float(eps),
        "alpha": float(alpha),
        "n_alpha": int(n_alpha),
        "center": [float(v) for v in center],
        "radius": float(eps),
        "contains_reference": contains,
        "params": dataclasses.asdict(params),
    }
    _write_json(out / f"{stem}.json", payload)
    lo = float(center[0]) - eps
    hi = float(center[0]) + eps
    print(f"n_alpha = {n_alpha}")
    if center.shape[0] == 1:
        print(f"confidence interval [{lo:.10g}, {hi:.10g}] at level "
              f"{1 - alpha:g}")
    else:
        print(f"confidence ball radius {eps:g} at level {1 - alpha:g}")
    print(f"wrote {out / (stem + '.json')}")
    return 0


def cmd_montecarlo(args, cfg, scheme, digest, settings):
    # montecarlo and its thread pool load for this command alone
    from .montecarlo import dominance_failures, empirical_tail
    plan = build_plan(cfg, scheme=scheme, base_seed=settings["base_seed"],
                      replicas=settings["replicas"])
    x_star = reference_fixed_point(scheme.map_spec)
    params = build_bound_params(cfg, map_spec=scheme.map_spec, x_star=x_star,
                                noise=scheme.noise)
    out = _out_dir(args, settings)
    cells = empirical_tail(plan, x_star, params)
    failures = dominance_failures(cells)
    vacuous = sum(1 for c in cells if c.vacuous)
    stem = _stem("montecarlo", settings, digest)
    header = ["n", "eps", "p_hat", "ci_low", "ci_high", "bound_clipped",
              "vacuous", "dominated"]
    rows = [[c.n, c.eps, c.p_hat, c.ci_low, c.ci_high, c.bound_clipped,
             int(c.vacuous), int(c.dominated)] for c in cells]
    csv_path = out / f"{stem}.csv"
    _write_csv(csv_path, header, rows)
    payload = {
        "command": "montecarlo",
        "config_hash": digest,
        "base_seed": settings["base_seed"],
        "replicas": plan.replicas,
        "cells": len(cells),
        "vacuous_cells": vacuous,
        "failures": [{"n": c.n, "eps": c.eps, "ci_low": c.ci_low,
                      "bound_clipped": c.bound_clipped} for c in failures],
        "verdict": "pass" if not failures else "fail",
        "params": dataclasses.asdict(params),
        "csv": csv_path.name,
    }
    _write_json(out / f"{stem}.json", payload)
    print(f"{len(cells)} cells, {vacuous} vacuous, {len(failures)} dominance "
          f"failures")
    print(f"wrote {csv_path}")
    if vacuous == len(cells):
        print(f"warning: all {vacuous} cells are vacuous (bound clipped to 1), "
              "so the dominance check could not fail", file=sys.stderr)
    if failures:
        worst = failures[0]
        raise DominanceError(
            f"empirical lower confidence limit {worst.ci_low:.6g} exceeds "
            f"bound {worst.bound_clipped:.6g} at n={worst.n}, eps={worst.eps:g}")
    return 0


def cmd_cramer_check(args, cfg, scheme, digest, settings):
    report = cramer_check(scheme.noise, m_max=args.m_max, draws=args.draws,
                          seed=settings["base_seed"],
                          norm_kind=scheme.norm_kind)
    print(f"family={report.family} dim={report.dim} draws={report.draws} "
          f"sigma={report.sigma:.6g} L={report.L:.6g}")
    for label, rows in (("mean", (report.mean,)), ("raw", report.raw),
                        ("centered", report.centered)):
        for row in rows:
            mark = "ok" if row.ok else "FLAG"
            print(f"  {label:8s} m={row.m:2d} empirical={row.empirical:.6e} "
                  f"bound={row.bound:.6e} {mark}")
    if args.out:
        out = _out_dir(args, settings)
        stem = _stem("cramer_check", settings, digest)
        _write_json(out / f"{stem}.json", {
            "command": "cramer-check",
            "config_hash": digest,
            "base_seed": settings["base_seed"],
            "ok": report.ok,
            **dataclasses.asdict(report),
        })
    if not report.ok:
        print("moment bound flagged; see rows above", file=sys.stderr)
        return 3
    print("all moment bounds hold")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stochmann",
        description="Inexact fixed-point iterations with certified error "
                    "tail bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, replicas=False):
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help=(
            "override base_seed, which names the output files and seeds "
            "montecarlo and cramer-check; iterate and confidence draw from "
            "scheme.seed"))
        if replicas:
            p.add_argument("--replicas", type=int, default=None,
                           help="override experiment.replicas")

    p = sub.add_parser("iterate", help="run one trajectory, write checkpoints")
    common(p)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("bound", help="evaluate the tail bound at (n, eps)")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("confidence",
                       help="size n_alpha and report the confidence set")
    common(p)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=cmd_confidence)

    p = sub.add_parser("montecarlo",
                       help="empirical tail grid against the bound")
    common(p, replicas=True)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("cramer-check",
                       help="empirical moment check for the noise model")
    common(p)
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--draws", type=int, default=10**5)
    p.set_defaults(func=cmd_cramer_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        scheme = build_scheme(cfg)
        settings = _apply_overrides(experiment_settings(cfg), args)
        return args.func(args, cfg, scheme, config_hash(cfg), settings)
    except InfeasibleExperimentError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(f"  bound at cap: {exc.report.clipped_bound:.6g} "
                  f"(log raw {exc.report.log_raw_bound:.6g})", file=sys.stderr)
        return 4
    except (DominanceError, CoverageError, DivergedError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except StochmannError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
