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
from .config import (RANGES, build_plan, build_scheme, certificate_inputs,
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


def _apply_overrides(settings, args):
    """Check the invoked command's flags against their limits, then --seed.
    A flag that names a setting (--replicas, --alpha) overrides it; the
    others (--n, --eps, --m-max, --draws) set the command's argument."""
    for flag, _, limits in _COMMANDS[args.command][2]:
        key = flag[2:].replace("-", "_")
        if getattr(args, key) is not None:
            (settings if key in settings else vars(args))[key] = check_number(
                getattr(args, key), flag, **limits)
    if args.seed is not None:
        settings["base_seed"] = check_seed(args.seed, "--seed")
    return settings


def _run_cap(what, n, settings):
    """Refuse to step n times, named what, past experiment.run_cap."""
    if n > settings["run_cap"]:
        raise InfeasibleExperimentError(
            f"{what} = {n} exceeds run cap {settings['run_cap']}; "
            "raise experiment.run_cap to execute")


def cmd_iterate(args, cfg, scheme, digest, settings):
    horizon = scheme.horizon
    _run_cap("scheme.horizon", horizon, settings)
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
    applied = norm(noises[:, 0], scheme.norm_kind).tolist()
    errors = norm(states[:, 0] - x_star, scheme.norm_kind).tolist()
    header = ["n"] + [f"x{j + 1}" for j in range(len(x_star))] + [
        "noise_norm_at_step", "error"]
    rows = [[n] + x[0] + [a, e] for n, x, a, e in zip(
        cps, states.tolist(), applied + [""], errors)]
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
    _, params = certificate_inputs(cfg, scheme)
    report = certificate(params).report(args.n, args.eps)
    out = _out_dir(args, settings) if args.out else None
    record = {"params": dataclasses.asdict(params),
              "report": dataclasses.asdict(report)}
    _save(out, "bound", digest, settings, record, name=f"bound_n{args.n}")
    print(dumps17(record))
    return 0


def cmd_confidence(args, cfg, scheme, digest, settings):
    x_star, params = certificate_inputs(cfg, scheme)
    eps = args.eps if args.eps is not None else (
        settings["eps_grid"][0] if settings["eps_grid"] else None)
    if eps is None:
        raise ValidationError("confidence: provide --eps or experiment.eps_grid")
    alpha = settings["alpha"]
    n_alpha = certificate(params).n_alpha(eps, alpha, settings["n_cap"])
    _run_cap("certified n_alpha", n_alpha, settings)
    out = _out_dir(args, settings)
    x = rows_at(scheme, [scheme.seed], [int(n_alpha)])[0][0]
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
    print(f"n_alpha = {n_alpha}")
    if center.shape[0] == 1:
        print(f"confidence interval [{center[0] - eps:.10g}, "
              f"{center[0] + eps:.10g}] at level {1 - alpha:g}")
    else:
        print(f"confidence ball radius {eps:g} at level {1 - alpha:g}")
    print(f"wrote {path}")
    return 0


def cmd_montecarlo(args, cfg, scheme, digest, settings):
    # montecarlo loads for this command alone
    from .montecarlo import TailEstimate, dominance_failures, empirical_tail
    plan = build_plan(cfg, scheme=scheme, base_seed=settings["base_seed"],
                      replicas=settings["replicas"])
    x_star, params = certificate_inputs(cfg, scheme)
    out = _out_dir(args, settings)
    cells = empirical_tail(plan, x_star, params)
    failures = dominance_failures(cells)
    vacuous = sum(1 for c in cells if c.vacuous)
    header = ([f.name for f in dataclasses.fields(TailEstimate)]
              + ["vacuous", "dominated"])
    rows = [[*dataclasses.astuple(c), int(c.vacuous), int(c.dominated)]
            for c in cells]
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


# Each command's help, function and own flags, which follow _COMMON's; a
# flag is (flag, argparse keywords, the limits _apply_overrides checks)
_COMMON = (
    ("--config", {"required": True, "help": "path to JSON config"}, None),
    ("--out", {"help": "output directory"}, None),
    ("--seed", {"type": int, "help": (
        "override base_seed, which names the output files and seeds "
        "montecarlo and cramer-check; iterate and confidence draw from "
        "scheme.seed")}, None),
)
_COMMANDS = {
    "iterate": ("run one trajectory, write checkpoints", cmd_iterate, ()),
    "bound": ("evaluate the tail bound at (n, eps)", cmd_bound, (
        ("--n", {"type": int, "required": True}, {"integer": True, "minimum": 1}),
        ("--eps", {"type": float, "required": True}, {"exclusive_min": 0}))),
    "confidence": ("size n_alpha and report the confidence set", cmd_confidence, (
        ("--eps", {"type": float}, {"exclusive_min": 0}),
        ("--alpha", {"type": float}, RANGES["experiment.alpha"]))),
    "montecarlo": ("empirical tail grid against the bound", cmd_montecarlo, (
        ("--replicas", {"type": int, "help": "override experiment.replicas"},
         RANGES["experiment.replicas"]),)),
    "cramer-check": ("empirical moment check for the noise model",
                     cmd_cramer_check, (
        ("--m-max", {"type": int, "default": 10}, {"integer": True, "minimum": 2}),
        ("--draws", {"type": int, "default": 10**5}, {"integer": True, "minimum": 2}))),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stochmann",
        description="Inexact fixed-point iterations with certified error "
                    "tail bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs, _ in _COMMON + flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        scheme = build_scheme(cfg)
        settings = _apply_overrides(experiment_settings(cfg), args)
        return _COMMANDS[args.command][1](args, cfg, scheme,
                                          config_hash(cfg), settings)
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
