"""Run configuration: one strict JSON file per experiment.

Strict means unknown keys, and keys the builders would ignore (map.lam on
an affine map, noise.scale on uniform noise, bounds.rho_scale next to
bounds.rho), are rejected with their field path, so a typo fails loudly
instead of silently running a default experiment.  The parsed structure is
kept verbatim (defaults are applied by the builders, not written back), which
makes serialize-then-parse the identity and lets the content hash commit to
exactly what the user wrote.  The map, scheme and noise blocks are
required; zero noise ({"family": "zero"}) runs the plain Mann iteration.

Each value has one owner, and every number meets one rule,
errors.check_number.  validate_config checks the structure that no object
sees (key sets, required blocks and keys, JSON null) and the fields that no
object takes; its docstring lists them.  One reader, build_scheme, hands
the raw values to the objects that own the rest: MapSpec the map fields
(which of them a family takes, and their values), NoiseModel the noise
fields, StepSequences and SchemeConfig the scheme fields and the norm, with
their defaults.  certificate_inputs reads a, x0, the noise model and the
norm from that scheme; its c comes from map.declared_c (or the map family)
and its moment parameters from the noise model.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .bounds import N_CAP, BoundParams
from .errors import (ValidationError, check_checkpoints, check_number,
                     check_numbers)
from .noise import NoiseModel
from .schemes import SchemeConfig, StepSequences
from .spaces import (FIXED_POINT_TOL, NORM_KINDS, MapSpec, contraction_constant,
                     dimension, norm, reference_fixed_point)
from .streams import check_seed, sha256

__all__ = [
    "load_config",
    "validate_config",
    "config_hash",
    "dumps17",
    "build_scheme",
    "certificate_inputs",
    "build_bound_params",
    "build_plan",
    "RANGES",
    "experiment_settings",
]

_TOP_KEYS = {"map", "norm", "scheme", "noise", "bounds", "experiment",
             "out_dir", "base_seed"}
_MAP_KEYS = {"family", "matrix", "offset", "lam", "declared_c"}
_SCHEME_KEYS = {"kind", "x0", "a", "horizon", "seed"}
_NOISE_KEYS = {"family", "scale", "half_width", "sigma", "L", "mean_norm_bound"}
_BOUNDS_KEYS = {"N", "rho", "rho_scale", "n_cap"}
_EXPERIMENT_KEYS = {"checkpoints", "eps_grid", "replicas", "alpha", "run_cap"}

# The ranges of the scalars that no object takes; --alpha has alpha's.
RANGES = {
    "bounds.N": {"minimum": 0},
    "bounds.rho": {"exclusive_min": 0},
    "bounds.rho_scale": {"exclusive_min": 0, "maximum": 1.0 - 1e-12},
    "bounds.n_cap": {"integer": True, "minimum": 1},
    "experiment.replicas": {"integer": True, "minimum": 1},
    "experiment.alpha": {"exclusive_min": 0, "maximum": 0.5},
    "experiment.run_cap": {"integer": True, "minimum": 1},
}

DEFAULT_ALPHA = 0.05
DEFAULT_RHO_SCALE = 0.5
DEFAULT_RUN_CAP = 10**7


def _object(block, allowed, path):
    if not isinstance(block, dict):
        raise ValidationError(f"{path}: must be a JSON object")
    for key in block:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}: unknown key")


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config: invalid JSON in {path}: {exc}") from exc
    return validate_config(raw)


def validate_config(raw):
    """Check what no object owns, and return the config unchanged: the key
    sets; the map, scheme and noise blocks and their keys map.family,
    scheme.kind, scheme.x0 and noise.family; JSON null in those blocks,
    which the objects would read as "not given"; the norm;
    bounds.rho_scale next to bounds.rho; the RANGES; experiment.checkpoints
    and eps_grid; out_dir and base_seed.  The rest, and cross-field
    constraints (dimension agreement, contractivity, rho feasibility),
    surface from build_scheme and certificate_inputs, with the same
    exception type."""
    _object(raw, _TOP_KEYS, "config")
    for block, keys, required in (("map", _MAP_KEYS, ("family",)),
                                  ("scheme", _SCHEME_KEYS, ("kind", "x0")),
                                  ("noise", _NOISE_KEYS, ("family",))):
        if block not in raw:
            raise ValidationError(f"config.{block}: required block is missing")
        _object(raw[block], keys, block)
        for key in required:
            if key not in raw[block]:
                raise ValidationError(f"{block}.{key}: required")
        # the objects would read None as "not given"
        for key, value in raw[block].items():
            if value is None:
                raise ValidationError(f"{block}.{key}: must not be null")
    if "norm" in raw and raw["norm"] not in NORM_KINDS:
        raise ValidationError(f"norm: must be one of {sorted(NORM_KINDS)}")

    if "bounds" in raw:
        bd = raw["bounds"]
        _object(bd, _BOUNDS_KEYS, "bounds")
        if "rho" in bd and "rho_scale" in bd:
            raise ValidationError("bounds.rho_scale: not allowed next to bounds.rho")

    if "experiment" in raw:
        ex = raw["experiment"]
        _object(ex, _EXPERIMENT_KEYS, "experiment")
        if "checkpoints" in ex:
            check_checkpoints(ex["checkpoints"], "experiment.checkpoints")
        if "eps_grid" in ex:
            check_numbers(ex["eps_grid"], "experiment.eps_grid", exclusive_min=0)
    for path, limits in RANGES.items():
        block, key = path.split(".")
        if key in raw.get(block, {}):
            check_number(raw[block][key], path, **limits)

    if "out_dir" in raw and not isinstance(raw["out_dir"], str):
        raise ValidationError("out_dir: must be a string")
    if "base_seed" in raw:
        check_seed(raw["base_seed"], "base_seed")
    return raw


def config_hash(cfg):
    """First 12 hex digits of sha256 over the canonical serialization."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode("utf-8")).hexdigest()[:12]


def dumps17(obj, indent=0):
    """Deterministic JSON with floats at 17 significant digits.

    Key order is sorted, so equal structures serialize to equal bytes.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {dumps17(obj[k], indent + 2)}'
                 for k in sorted(obj, key=str)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{inner}{dumps17(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps17(obj.tolist(), indent)
    raise ValidationError(f"dumps17: cannot serialize {type(obj).__name__}")


def build_scheme(cfg):
    """cfg's SchemeConfig, given only the fields cfg sets."""
    sc, map_spec = cfg["scheme"], MapSpec(**cfg["map"])
    given = {key: sc[key] for key in ("horizon", "seed") if key in sc}
    if "norm" in cfg:
        given["norm_kind"] = cfg["norm"]
    return SchemeConfig(
        kind=sc["kind"], map_spec=map_spec, x0=sc["x0"],
        steps=StepSequences(**{key: sc[key] for key in ("a",) if key in sc}),
        noise=NoiseModel(dim=dimension(map_spec), **cfg["noise"]), **given)


def certificate_inputs(cfg, scheme, x_star=None):
    """x_star, the reference fixed point unless passed, and the analytic
    parameter set of cfg's run on scheme, its build_scheme(cfg).

    a, x0, the map, the noise and the norm are the scheme's.  Each
    constant has one source.  c is map.declared_c, else the analytic
    contraction constant; sigma, L and mean_norm_bound are the noise
    model's (noise.* where given, else the family's certified values).  N
    defaults to the initial distance ||x0 - x_star|| in the scheme's norm,
    and rho to rho_scale times 2a(1-c).  The one-norm at d >= 2 has no
    certified moment defaults: with nonzero noise there, noise.sigma,
    noise.L and noise.mean_norm_bound must all be given.

    A bounds.N below that distance is refuted and refused.  x_star is off
    the true fixed point by at most FIXED_POINT_TOL / (1 - c) in the
    Euclidean norm (the Banach estimate at reference_fixed_point's
    residual), so by sqrt(d) times that in any of the three norms; N may
    fall short of the distance by this much, plus the distance's rounding.
    """
    map_spec, model, norm_kind = scheme.map_spec, scheme.noise, scheme.norm_kind
    d, a, bd = dimension(map_spec), scheme.steps.a, cfg.get("bounds", {})
    c = contraction_constant(map_spec, norm_kind)
    if norm_kind == "one" and model.family != "zero" and d >= 2:
        # default_cramer_params certifies the Euclidean and max norms only
        for key in ("sigma", "L", "mean_norm_bound"):
            if key not in cfg["noise"]:
                raise ValidationError(
                    f"noise.{key}: the one-norm at d = {d} has no "
                    "certified default; set it under noise")
    if x_star is None:
        x_star = reference_fixed_point(map_spec)
    distance = float(norm(scheme.x0 - x_star, norm_kind))
    N = float(bd.get("N", distance))
    rho = bd.get("rho", bd.get("rho_scale", DEFAULT_RHO_SCALE) * 2.0 * a * (1.0 - c))
    params = BoundParams(N=N, a=a, c=c, sigma=model.sigma, L=model.L,
                         mean_norm_bound=model.mean_norm_bound, rho=rho)
    slack = (math.sqrt(d) * FIXED_POINT_TOL / (1.0 - contraction_constant(map_spec))
             + 4.0 * d * np.finfo(np.float64).eps * distance)
    if N < distance - slack:
        raise ValidationError(
            f"bounds.N: {N!r} is below the initial distance "
            f"||x0 - x*|| = {distance!r} in the {norm_kind} norm")
    return x_star, params


def build_bound_params(cfg, map_spec=None, x_star=None):
    """certificate_inputs' parameter set on build_scheme(cfg), with its map
    replaced by map_spec where one is passed.  Nothing in src/ or scripts/
    calls it; it keeps the call form perfbench/ uses, and ROADMAP item 15
    can delete it."""
    scheme = build_scheme(cfg)
    if map_spec is not None:
        scheme = dataclasses.replace(scheme, map_spec=map_spec)
    return certificate_inputs(cfg, scheme, x_star)[1]


def experiment_settings(cfg):
    ex = cfg.get("experiment", {})
    return {
        "checkpoints": tuple(int(n) for n in ex.get("checkpoints", ())),
        "eps_grid": tuple(float(e) for e in ex.get("eps_grid", ())),
        "replicas": int(ex.get("replicas", 1000)),
        "alpha": float(ex.get("alpha", DEFAULT_ALPHA)),
        "run_cap": int(ex.get("run_cap", DEFAULT_RUN_CAP)),
        "n_cap": int(cfg.get("bounds", {}).get("n_cap", N_CAP)),
        "base_seed": int(cfg.get("base_seed", 0)),
        "out_dir": cfg.get("out_dir", "out"),
    }


def build_plan(cfg, scheme=None, base_seed=None, replicas=None):
    """The montecarlo.ExperimentPlan of cfg; montecarlo loads on this call,
    so the commands that build no plan never load it."""
    from .montecarlo import ExperimentPlan
    if scheme is None:
        scheme = build_scheme(cfg)
    ex = experiment_settings(cfg)
    for key in ("checkpoints", "eps_grid"):
        if not ex[key]:
            raise ValidationError(f"experiment.{key}: required for this command")
    return ExperimentPlan(
        scheme=scheme,
        checkpoints=ex["checkpoints"],
        eps_grid=ex["eps_grid"],
        replicas=replicas if replicas is not None else ex["replicas"],
        base_seed=base_seed if base_seed is not None else ex["base_seed"],
    )
