"""Run configuration: one strict JSON file per experiment.

Strict means unknown keys, and keys the builders would ignore (map.lam on
an affine map, bounds.rho_scale next to bounds.rho), are rejected with
their field path, so a typo fails loudly instead of silently running a
default experiment.  The parsed structure is kept verbatim (defaults are
applied by the builders, not written back), which makes serialize-then-parse
the identity and lets the content hash commit to exactly what the user wrote.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .bounds import BoundParams
from .errors import ValidationError
from .montecarlo import ExperimentPlan
from .noise import NoiseModel, bounded_uniform, gaussian, zero
from .schemes import SCHEME_KINDS, SchemeConfig, StepSequences
from .spaces import (MAP_FAMILIES, NORM_KINDS, affine, as_point,
                     contraction_constant, dimension, inverse_quadratic, norm,
                     reference_fixed_point, scaled_cosine)

__all__ = [
    "load_config",
    "validate_config",
    "config_hash",
    "dumps17",
    "build_map",
    "build_noise",
    "build_scheme",
    "build_bound_params",
    "build_plan",
    "experiment_settings",
]

_TOP_KEYS = {"map", "norm", "scheme", "noise", "bounds", "experiment",
             "out_dir", "base_seed"}
_MAP_KEYS = {"family", "matrix", "offset", "lam", "declared_c", "domain_box"}
_SCHEME_KEYS = {"kind", "x0", "a", "horizon", "seed", "ishikawa_b"}
_NOISE_KEYS = {"family", "scale", "half_width", "sigma", "L", "mean_norm_bound"}
_BOUNDS_KEYS = {"N", "rho", "rho_scale", "c", "sigma", "L",
                "mean_norm_bound", "n_cap"}
_EXPERIMENT_KEYS = {"checkpoints", "eps_grid", "replicas", "alpha", "run_cap"}

DEFAULT_ALPHA = 0.05
DEFAULT_RHO_SCALE = 0.5
DEFAULT_RUN_CAP = 10**7
DEFAULT_N_CAP = 10**12


def _object(block, allowed, path):
    if not isinstance(block, dict):
        raise ValidationError(f"{path}: must be a JSON object")
    for key in block:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}: unknown key")


def _number(value, path, integer=False, minimum=None, maximum=None,
            exclusive_min=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: must be a number")
    if integer and not (isinstance(value, int) or float(value).is_integer()):
        raise ValidationError(f"{path}: must be an integer")
    if not math.isfinite(value):
        raise ValidationError(f"{path}: must be finite")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}")
    if exclusive_min is not None and value <= exclusive_min:
        raise ValidationError(f"{path}: must be > {exclusive_min}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{path}: must be <= {maximum}")
    return int(value) if integer else float(value)


def _numbers(value, path, depth=1, **limits):
    """A nonempty list (depth 1) or rectangular list of lists (depth 2) of
    numbers, each checked by _number; a bad entry is named by its indexed
    path."""
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{path}: must be a nonempty list")
    for i, v in enumerate(value):
        if depth == 1:
            _number(v, f"{path}[{i}]", **limits)
        else:
            _numbers(v, f"{path}[{i}]", depth - 1, **limits)
            if len(v) != len(value[0]):
                raise ValidationError(f"{path}[{i}]: rows must have equal length")


def _choice(value, options, path):
    if value not in options:
        raise ValidationError(f"{path}: must be one of {sorted(options)}")
    return value


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
    """Validate structure and value ranges; returns the config unchanged.

    Cross-field constraints that depend on constructed objects (dimension
    agreement, contractivity, rho feasibility) surface from the builders,
    with the same exception type.
    """
    _object(raw, _TOP_KEYS, "config")
    for key in ("map", "scheme"):
        if key not in raw:
            raise ValidationError(f"config.{key}: required block is missing")

    mp = raw["map"]
    _object(mp, _MAP_KEYS, "map")
    family = _choice(mp.get("family"), MAP_FAMILIES, "map.family")
    if family == "affine":
        for key in ("matrix", "offset"):
            if key not in mp:
                raise ValidationError(f"map.{key}: required for affine maps")
    if family == "scaled_cosine" and "lam" not in mp:
        raise ValidationError("map.lam: required for scaled_cosine maps")
    for key, owner in (("matrix", "affine"), ("offset", "affine"),
                       ("lam", "scaled_cosine")):
        if key in mp and family != owner:
            raise ValidationError(f"map.{key}: only {owner} maps take it")
    for key, depth in (("matrix", 2), ("offset", 1), ("domain_box", 2)):
        if key in mp:
            _numbers(mp[key], f"map.{key}", depth)
    if "declared_c" in mp:
        _number(mp["declared_c"], "map.declared_c", minimum=0.0)
    if "lam" in mp:
        _number(mp["lam"], "map.lam")

    if "norm" in raw:
        _choice(raw["norm"], NORM_KINDS, "norm")

    sc = raw["scheme"]
    _object(sc, _SCHEME_KEYS, "scheme")
    kind = _choice(sc.get("kind"), SCHEME_KINDS, "scheme.kind")
    if "ishikawa_b" in sc and kind != "ishikawa":
        raise ValidationError("scheme.ishikawa_b: only ishikawa schemes take it")
    if "x0" not in sc:
        raise ValidationError("scheme.x0: required")
    _numbers(sc["x0"], "scheme.x0")
    if "a" in sc:
        _number(sc["a"], "scheme.a", exclusive_min=0.0)
    if "horizon" in sc:
        _number(sc["horizon"], "scheme.horizon", integer=True, minimum=1)
    if "seed" in sc:
        _number(sc["seed"], "scheme.seed", integer=True, minimum=0)
    if "ishikawa_b" in sc:
        _number(sc["ishikawa_b"], "scheme.ishikawa_b", exclusive_min=0.0,
                maximum=1.0)

    if "noise" in raw:
        nz = raw["noise"]
        _object(nz, _NOISE_KEYS, "noise")
        fam = _choice(nz.get("family"), ("zero", "gaussian", "bounded_uniform"),
                      "noise.family")
        if fam == "gaussian" and "scale" not in nz:
            raise ValidationError("noise.scale: required for gaussian noise")
        if fam == "bounded_uniform" and "half_width" not in nz:
            raise ValidationError("noise.half_width: required for bounded_uniform")
        for key in ("scale", "half_width"):
            if key in nz:
                _number(nz[key], f"noise.{key}", minimum=0.0)
        for key in ("sigma", "L", "mean_norm_bound"):
            if key in nz:
                if fam == "zero":
                    raise ValidationError(
                        f"noise.{key}: not allowed for zero noise")
                _number(nz[key], f"noise.{key}", minimum=0.0)

    if "bounds" in raw:
        bd = raw["bounds"]
        _object(bd, _BOUNDS_KEYS, "bounds")
        if "rho" in bd and "rho_scale" in bd:
            raise ValidationError("bounds.rho_scale: not allowed next to bounds.rho")
        for key in ("N", "sigma", "mean_norm_bound"):
            if key in bd:
                _number(bd[key], f"bounds.{key}", minimum=0.0)
        for key in ("rho", "rho_scale", "L"):
            if key in bd:
                _number(bd[key], f"bounds.{key}", exclusive_min=0.0)
        if "rho_scale" in bd:
            _number(bd["rho_scale"], "bounds.rho_scale", exclusive_min=0.0,
                    maximum=1.0 - 1e-12)
        if "c" in bd:
            _number(bd["c"], "bounds.c", minimum=0.0)
        if "n_cap" in bd:
            _number(bd["n_cap"], "bounds.n_cap", integer=True, minimum=1)

    if "experiment" in raw:
        ex = raw["experiment"]
        _object(ex, _EXPERIMENT_KEYS, "experiment")
        if "checkpoints" in ex:
            _numbers(ex["checkpoints"], "experiment.checkpoints", integer=True,
                     minimum=1)
        if "eps_grid" in ex:
            _numbers(ex["eps_grid"], "experiment.eps_grid", exclusive_min=0.0)
        if "replicas" in ex:
            _number(ex["replicas"], "experiment.replicas", integer=True, minimum=1)
        if "alpha" in ex:
            _number(ex["alpha"], "experiment.alpha", exclusive_min=0.0,
                    maximum=0.5)
        if "run_cap" in ex:
            _number(ex["run_cap"], "experiment.run_cap", integer=True, minimum=1)

    if "out_dir" in raw and not isinstance(raw["out_dir"], str):
        raise ValidationError("out_dir: must be a string")
    if "base_seed" in raw:
        _number(raw["base_seed"], "base_seed", integer=True, minimum=0)
    return raw


def config_hash(cfg):
    """First 12 hex digits of sha256 over the canonical serialization."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _f17(x):
    return format(float(x), ".17g")


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
        return _f17(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps17(obj.tolist(), indent)
    raise ValidationError(f"dumps17: cannot serialize {type(obj).__name__}")


def build_map(cfg):
    mp = cfg["map"]
    declared_c = mp.get("declared_c")
    box = None
    if "domain_box" in mp:
        box = np.asarray(mp["domain_box"], dtype=np.float64)
    family = mp["family"]
    if family == "inverse_quadratic":
        return inverse_quadratic(declared_c=declared_c, domain_box=box)
    if family == "affine":
        return affine(np.asarray(mp["matrix"], dtype=np.float64),
                      np.asarray(mp["offset"], dtype=np.float64),
                      declared_c=declared_c, domain_box=box)
    return scaled_cosine(float(mp["lam"]), declared_c=declared_c,
                         domain_box=box)


def build_noise(cfg, dim):
    nz = cfg.get("noise")
    if nz is None:
        return None
    over = {k: float(nz[k]) for k in ("sigma", "L", "mean_norm_bound") if k in nz}
    family = nz["family"]
    if family == "zero":
        return zero(dim=dim, **over)
    if family == "gaussian":
        return gaussian(scale=float(nz["scale"]), dim=dim, **over)
    return bounded_uniform(half_width=float(nz["half_width"]), dim=dim, **over)


def build_scheme(cfg):
    map_spec = build_map(cfg)
    d = dimension(map_spec)
    sc = cfg["scheme"]
    x0 = as_point(sc["x0"], d, name="scheme.x0")
    return SchemeConfig(
        kind=sc["kind"],
        map_spec=map_spec,
        x0=x0,
        steps=StepSequences(a=float(sc.get("a", 0.5))),
        noise=build_noise(cfg, d),
        horizon=int(sc.get("horizon", 1000)),
        seed=int(sc.get("seed", 0)),
        norm_kind=cfg.get("norm", "euclidean"),
        ishikawa_b=float(sc.get("ishikawa_b", 1.0)),
    )


def build_bound_params(cfg, map_spec=None, x_star=None):
    """Assemble the analytic parameter set, filling gaps from the run.

    N defaults to the initial error against the reference fixed point, c to
    the analytic contraction constant, the moment parameters to the noise
    family's certified values, and rho to rho_scale times 2a(1-c).
    """
    if map_spec is None:
        map_spec = build_map(cfg)
    bd = cfg.get("bounds", {})
    norm_kind = cfg.get("norm", "euclidean")
    a = float(cfg["scheme"].get("a", 0.5))
    c = float(bd["c"]) if "c" in bd else contraction_constant(map_spec, norm_kind)
    model = build_noise(cfg, dimension(map_spec))
    sigma = model.sigma if model is not None else 0.0
    L = model.L if model is not None else 1.0
    mnb = model.mean_norm_bound if model is not None else 0.0
    sigma = float(bd.get("sigma", sigma))
    L = float(bd.get("L", L))
    mnb = float(bd.get("mean_norm_bound", mnb))
    if "N" in bd:
        N = float(bd["N"])
    else:
        if x_star is None:
            x_star = reference_fixed_point(map_spec)
        x0 = as_point(cfg["scheme"]["x0"], dimension(map_spec), name="scheme.x0")
        N = float(norm(x0 - x_star, norm_kind))
    if "rho" in bd:
        rho = float(bd["rho"])
    else:
        rho = float(bd.get("rho_scale", DEFAULT_RHO_SCALE)) * 2.0 * a * (1.0 - c)
    return BoundParams(N=N, a=a, c=c, sigma=sigma, L=L, mean_norm_bound=mnb,
                       rho=rho)


def experiment_settings(cfg):
    ex = cfg.get("experiment", {})
    return {
        "checkpoints": tuple(int(n) for n in ex.get("checkpoints", ())),
        "eps_grid": tuple(float(e) for e in ex.get("eps_grid", ())),
        "replicas": int(ex.get("replicas", 1000)),
        "alpha": float(ex.get("alpha", DEFAULT_ALPHA)),
        "run_cap": int(ex.get("run_cap", DEFAULT_RUN_CAP)),
        "n_cap": int(cfg.get("bounds", {}).get("n_cap", DEFAULT_N_CAP)),
        "base_seed": int(cfg.get("base_seed", 0)),
        "out_dir": cfg.get("out_dir", "out"),
    }


def build_plan(cfg, scheme=None, base_seed=None, replicas=None):
    if scheme is None:
        scheme = build_scheme(cfg)
    ex = experiment_settings(cfg)
    if not ex["checkpoints"]:
        raise ValidationError("experiment.checkpoints: required for this command")
    if not ex["eps_grid"]:
        raise ValidationError("experiment.eps_grid: required for this command")
    return ExperimentPlan(
        scheme=scheme,
        checkpoints=ex["checkpoints"],
        eps_grid=ex["eps_grid"],
        replicas=int(replicas if replicas is not None else ex["replicas"]),
        base_seed=int(base_seed if base_seed is not None else ex["base_seed"]),
    )
