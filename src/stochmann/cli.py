"""Command line front end.

Outputs are a function of (config file, base_seed) alone: file names embed
the base seed and a content hash of the config, floats are written with 17
significant digits, and nothing records wall-clock state, so rerunning a
command produces byte-identical files.  _save holds that record contract
for every command: the file stem <name>_seed<base_seed>_cfg<hash>, the
command, config_hash and base_seed keys, and the CSV written beside the
JSON, which the csv key names.

main builds the scheme (map, noise, steps) once, right after loading the
config, and hands it to the command, so every command applies the same
checks to the same fields.  Each command resolves its output directory
after its own checks and before it prints or steps; bound and
cramer-check write files only when --out is given.

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


def _save(out, command, digest, settings, record, table=None, name=None):
    """Add the command, config_hash and base_seed keys to record, and write
    it under out as <name>_seed<base_seed>_cfg<digest>.json, name defaulting
    to command.  table, a header row and then the rows, goes beside it as
    the .csv that the record's csv key names, with floats to 17 digits.
    With out None only the keys are added.  Returns the path a command
    reports: the CSV's when there is a table, else the JSON's."""
    record.update(command=command, config_hash=digest,
                  base_seed=settings["base_seed"])
    if out is None:
        return None
    stem = f"{name or command}_seed{settings['base_seed']}_cfg{digest}"
    path = out / f"{stem}.json"
    if table is not None:
        import csv
        path = out / f"{stem}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [format(v, ".17g") if isinstance(v, float) else v
                 for v in row] for row in table)
        record["csv"] = path.name
    (out / f"{stem}.json").write_text(dumps17(record) + "\n", encoding="utf-8")
    return path


def _certificate_inputs(cfg, scheme):
    """The reference fixed point x_star and the bound parameters built on
    it, from the scheme's map and noise model."""
    x_star = reference_fixed_point(scheme.map_spec)
    return x_star, build_bound_params(cfg, map_spec=scheme.map_spec,
                                      x_star=x_star, noise=scheme.noise)


def _apply_overrides(settings, args):
    # each flag that sets a library argument meets that argument's limits
    for flag, limits in (("n", {"integer": True, "minimum": 1}),
                         ("eps", {"exclusive_min": 0}),
                         ("m_max", {"integer": True, "minimum": 2}),
                         ("draws", {"integer": True, "minimum": 2})):
        if getattr(args, flag, None) is not None:
            setattr(args, flag, check_number(
                getattr(args, flag), "--" + flag.replace("_", "-"), **limits))
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
    final_error = errors[-1]
    path = _save(out, "iterate", digest, settings, {
        "scheme_seed": scheme.seed,
        "kind": scheme.kind,
        "horizon": horizon,
        "fixed_point": [float(v) for v in x_star],
        "final_error": final_error,
    }, [header] + rows)
    print(f"final error {final_error:.6e} at iterate {horizon + 1}")
    print(f"wrote {path}")
    return 0


def cmd_bound(args, cfg, scheme, digest, settings):
    _, params = _certificate_inputs(cfg, scheme)
    report = certificate(params).report(args.n, args.eps)
    out = _out_dir(args, settings) if args.out else None
    record = {"params": dataclasses.asdict(params),
              "report": dataclasses.asdict(report)}
    _save(out, "bound", digest, settings, record, name=f"bound_n{args.n}")
    print(dumps17(record))
    return 0


def cmd_confidence(args, cfg, scheme, digest, settings):
    x_star, params = _certificate_inputs(cfg, scheme)
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
    path = _save(out, "confidence", digest, settings, {
        "scheme_seed": scheme.seed,
        "eps": float(eps),
        "alpha": float(alpha),
        "n_alpha": int(n_alpha),
        "center": [float(v) for v in center],
        "radius": float(eps),
        "contains_reference": contains,
        "params": dataclasses.asdict(params),
    })
    lo = float(center[0]) - eps
    hi = float(center[0]) + eps
    print(f"n_alpha = {n_alpha}")
    if center.shape[0] == 1:
        print(f"confidence interval [{lo:.10g}, {hi:.10g}] at level "
              f"{1 - alpha:g}")
    else:
        print(f"confidence ball radius {eps:g} at level {1 - alpha:g}")
    print(f"wrote {path}")
    return 0


def cmd_montecarlo(args, cfg, scheme, digest, settings):
    # montecarlo and its thread pool load for this command alone
    from .montecarlo import dominance_failures, empirical_tail
    plan = build_plan(cfg, scheme=scheme, base_seed=settings["base_seed"],
                      replicas=settings["replicas"])
    x_star, params = _certificate_inputs(cfg, scheme)
    out = _out_dir(args, settings)
    cells = empirical_tail(plan, x_star, params)
    failures = dominance_failures(cells)
    vacuous = sum(1 for c in cells if c.vacuous)
    header = ["n", "eps", "p_hat", "ci_low", "ci_high", "bound_clipped",
              "vacuous", "dominated"]
    rows = [[c.n, c.eps, c.p_hat, c.ci_low, c.ci_high, c.bound_clipped,
             int(c.vacuous), int(c.dominated)] for c in cells]
    path = _save(out, "montecarlo", digest, settings, {
        "replicas": plan.replicas,
        "cells": len(cells),
        "vacuous_cells": vacuous,
        "failures": [{"n": c.n, "eps": c.eps, "ci_low": c.ci_low,
                      "bound_clipped": c.bound_clipped} for c in failures],
        "verdict": "pass" if not failures else "fail",
        "params": dataclasses.asdict(params),
    }, [header] + rows)
    print(f"{len(cells)} cells, {vacuous} vacuous, {len(failures)} dominance "
          f"failures")
    print(f"wrote {path}")
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
    out = _out_dir(args, settings) if args.out else None
    print(f"family={report.family} dim={report.dim} draws={report.draws} "
          f"sigma={report.sigma:.6g} L={report.L:.6g}")
    for label, rows in (("mean", (report.mean,)), ("raw", report.raw),
                        ("centered", report.centered)):
        for row in rows:
            mark = "ok" if row.ok else "FLAG"
            print(f"  {label:8s} m={row.m:2d} empirical={row.empirical:.6e} "
                  f"bound={row.bound:.6e} {mark}")
    _save(out, "cramer-check", digest, settings,
          {"ok": report.ok, **dataclasses.asdict(report)}, name="cramer_check")
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
