import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochmann.bounds import certificate
from stochmann.config import (build_bound_params, build_plan, build_scheme,
                              config_hash, dumps17, experiment_settings,
                              load_config, validate_config)
from stochmann.errors import ValidationError
from stochmann.noise import zero
from stochmann.spaces import INVERSE_QUADRATIC_C, reference_fixed_point

BASE = {
    "map": {"family": "inverse_quadratic"},
    "norm": "euclidean",
    "scheme": {"kind": "stochastic_mann", "x0": [0.5], "a": 0.5,
               "horizon": 100, "seed": 3},
    "noise": {"family": "gaussian", "scale": 2.0},
    "bounds": {"rho_scale": 0.5},
    "experiment": {"checkpoints": [10, 100], "eps_grid": [0.1],
                   "replicas": 50, "alpha": 0.05},
    "out_dir": "out",
    "base_seed": 7,
}


def test_validate_returns_structure_unchanged():
    cfg = copy.deepcopy(BASE)
    out = validate_config(cfg)
    assert out == BASE


def test_serialize_then_parse_is_identity():
    cfg = validate_config(copy.deepcopy(BASE))
    text = json.dumps(cfg)
    again = validate_config(json.loads(text))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_unknown_keys_rejected_with_paths():
    for path, mutate in [
        ("config.bogus", lambda c: c.update(bogus=1)),
        ("map.extra", lambda c: c["map"].update(extra=1)),
        ("scheme.gain", lambda c: c["scheme"].update(gain=1)),
        ("noise.mean", lambda c: c["noise"].update(mean=0)),
        ("bounds.kappa", lambda c: c["bounds"].update(kappa=1)),
        ("experiment.grid", lambda c: c["experiment"].update(grid=[])),
    ]:
        cfg = copy.deepcopy(BASE)
        mutate(cfg)
        with pytest.raises(ValidationError) as info:
            validate_config(cfg)
        assert path.split(".")[-1] in str(info.value)


def test_missing_required_pieces():
    for block in ("map", "scheme", "noise"):
        cfg = copy.deepcopy(BASE)
        del cfg[block]
        with pytest.raises(ValidationError, match=f"config.{block}"):
            validate_config(cfg)
    cfg = copy.deepcopy(BASE)
    del cfg["scheme"]["x0"]
    with pytest.raises(ValidationError):
        validate_config(cfg)
    # the map and noise models own their families' required fields
    cfg = copy.deepcopy(BASE)
    cfg["map"] = {"family": "affine", "matrix": [[0.5]]}  # offset missing
    with pytest.raises(ValidationError, match="map.offset"):
        build_scheme(validate_config(cfg))
    cfg = copy.deepcopy(BASE)
    cfg["noise"] = {"family": "gaussian"}  # scale missing
    with pytest.raises(ValidationError, match="noise.scale"):
        build_scheme(validate_config(cfg))


def test_value_range_checks():
    bad = [
        (lambda c: c["scheme"].update(a=0.0), "scheme.a"),
        (lambda c: c["scheme"].update(horizon=0), "scheme.horizon"),
        (lambda c: c["scheme"].update(horizon=2.5), "scheme.horizon"),
        (lambda c: c["experiment"].update(alpha=0.7), "experiment.alpha"),
        (lambda c: c["experiment"].update(replicas=0), "experiment.replicas"),
        (lambda c: c["experiment"].update(eps_grid=[0.0]), "eps_grid"),
        (lambda c: c["noise"].update(scale=True), "noise.scale"),
        (lambda c: c.update(base_seed=-1), "base_seed"),
        (lambda c: c.update(norm="l7"), "norm"),
    ]
    # validate_config owns the experiment, seed and type checks; the objects
    # build_scheme constructs own the scheme's ranges (scheme.a, horizon >= 1)
    for mutate, path in bad:
        cfg = copy.deepcopy(BASE)
        mutate(cfg)
        with pytest.raises(ValidationError, match=path):
            build_scheme(validate_config(cfg))


def test_config_hash_properties():
    h = config_hash(BASE)
    assert len(h) == 12 and int(h, 16) >= 0
    reordered = json.loads(json.dumps(BASE, sort_keys=True))
    assert config_hash(reordered) == h
    changed = copy.deepcopy(BASE)
    changed["base_seed"] = 8
    assert config_hash(changed) != h


def test_load_config_errors(tmp_path):
    with pytest.raises(ValidationError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_config(bad)


def test_build_map_families():
    assert build_scheme(BASE).map_spec.family == "inverse_quadratic"
    cfg = {**BASE, "map": {"family": "affine", "matrix": [[0.2]], "offset": [1.0]}}
    m = build_scheme(cfg).map_spec
    assert m.family == "affine" and m.matrix[0, 0] == 0.2
    cfg = {**BASE, "map": {"family": "scaled_cosine", "lam": 0.5}}
    assert build_scheme(cfg).map_spec.lam == 0.5


def test_build_noise_defaults_and_overrides():
    model = build_scheme(BASE).noise
    assert model.family == "gaussian" and model.sigma == 4.0 and model.L == 4.0
    assert np.isclose(model.mean_norm_bound, 2.0 * np.sqrt(2.0 / np.pi))
    assert model.certified
    cfg = copy.deepcopy(BASE)
    cfg["noise"]["sigma"] = 1.0
    model = build_scheme(cfg).noise
    assert model.sigma == 1.0 and not model.certified


def test_build_scheme_defaults():
    cfg = {"map": {"family": "inverse_quadratic"},
           "scheme": {"kind": "stochastic_mann", "x0": [0.3]},
           "noise": {"family": "zero"}}
    sc = build_scheme(cfg)
    assert sc.steps.a == 0.5 and sc.horizon == 1000 and sc.seed == 0
    assert sc.norm_kind == "euclidean" and sc.noise == zero()


def test_build_bound_params_fills_gaps_from_run():
    p = build_bound_params(BASE)
    x_star = reference_fixed_point(build_scheme(BASE).map_spec)
    assert np.isclose(p.N, abs(0.5 - float(x_star[0])), rtol=1e-12)
    assert p.c == INVERSE_QUADRATIC_C
    assert p.sigma == 4.0 and p.L == 4.0
    assert np.isclose(p.rho, 0.5 * 2 * 0.5 * (1 - INVERSE_QUADRATIC_C))


def test_build_bound_params_takes_the_built_map_and_noise():
    scheme = build_scheme(BASE)
    assert build_bound_params(BASE, map_spec=scheme.map_spec) \
        == build_bound_params(BASE)


def test_build_bound_params_honours_declared_c():
    maps = [{"family": "inverse_quadratic"},
            {"family": "scaled_cosine", "lam": 0.5},
            {"family": "affine", "matrix": [[0.2]], "offset": [1.0]}]
    for mp in maps:
        cfg = copy.deepcopy(BASE)
        cfg["map"] = dict(mp, declared_c=0.9)
        assert build_bound_params(validate_config(cfg)).c == 0.9


def test_build_bound_params_overrides_win():
    cfg = copy.deepcopy(BASE)
    cfg["map"]["declared_c"] = 0.1
    cfg["noise"].update(sigma=0.5, L=0.5, mean_norm_bound=0.0)
    cfg["bounds"] = {"N": 0.25, "rho": 0.3}
    p = build_bound_params(cfg)
    assert (p.N, p.c, p.sigma, p.L, p.mean_norm_bound, p.rho) \
        == (0.25, 0.1, 0.5, 0.5, 0.0, 0.3)


def test_build_bound_params_refuses_a_refuted_N():
    distance = build_bound_params(BASE).N
    for norm_kind, x0, offset in (("euclidean", [0.5], [0.7]),
                                  ("one", [0.0, 0.0], [0.3, 0.4]),
                                  ("max", [1.0, -1.0], [0.3, 0.4])):
        cfg = copy.deepcopy(BASE)
        cfg["norm"] = norm_kind
        d = len(x0)
        cfg["map"] = {"family": "affine", "offset": offset,
                      "matrix": np.diag([0.5] * d).tolist()}
        cfg["scheme"]["x0"] = x0
        cfg["noise"] = {"family": "zero"}
        exact = build_bound_params(cfg).N
        # N equal to the distance, or short of it by the fixed point's own
        # error, still passes; any further short is refused
        for N in (exact, exact * (1.0 - 1e-15), exact - 1e-14, exact + 1.0):
            cfg["bounds"] = {"N": N, "rho_scale": 0.5}
            assert build_bound_params(cfg).N == N
        for N in (0.0, exact * 0.99, exact - 1e-9):
            cfg["bounds"] = {"N": N, "rho_scale": 0.5}
            with pytest.raises(ValidationError, match=r"^bounds\.N: .*below"):
                build_bound_params(cfg)
    cfg = copy.deepcopy(BASE)
    cfg["bounds"] = {"N": 0.5 * distance}
    with pytest.raises(ValidationError, match=r"^bounds\.N"):
        build_bound_params(cfg)
    # out of range is reported as before, not as a refutation
    cfg["bounds"] = {"N": -1.0}
    with pytest.raises(ValidationError, match="finite real >= 0"):
        build_bound_params(cfg)


def test_build_plan_and_overrides():
    plan = build_plan(BASE)
    assert plan.checkpoints == (10, 100) and plan.replicas == 50
    assert plan.base_seed == 7
    plan = build_plan(BASE, base_seed=99, replicas=5)
    assert plan.base_seed == 99 and plan.replicas == 5
    cfg = copy.deepcopy(BASE)
    del cfg["experiment"]
    with pytest.raises(ValidationError):
        build_plan(cfg)


def test_experiment_settings_defaults():
    s = experiment_settings({"map": {}, "scheme": {}})
    assert s["alpha"] == 0.05 and s["base_seed"] == 0
    assert s["out_dir"] == "out" and s["run_cap"] == 10**7


def test_dumps17_sorted_and_parseable():
    text = dumps17({"b": [1, 2.5], "a": {"x": True, "y": None}})
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": {"x": True, "y": None}, "b": [1, 2.5]}
    assert json.loads(dumps17(float("inf"))) == float("inf")
    with pytest.raises(ValidationError):
        dumps17(object())


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_dumps17_floats_round_trip_exactly(x):
    assert json.loads(dumps17(x)) == x


def test_dumps17_empty_dict_and_non_finite_floats():
    assert dumps17({}) == "{}"
    assert dumps17(math.nan) == "NaN"
    assert dumps17(-math.inf) == "-Infinity"


def test_dumps17_numpy_scalars():
    assert dumps17(np.float64(0.1)) == format(0.1, ".17g")
    assert dumps17(np.int64(7)) == "7"
    assert json.loads(dumps17(np.array([1.5, 2.0]))) == [1.5, 2.0]


def test_sigma_zero_consistency():
    # a config with zero noise must imply S2 = 0 downstream
    cfg = {"map": {"family": "inverse_quadratic"},
           "scheme": {"kind": "stochastic_mann", "x0": [0.5]},
           "noise": {"family": "zero"}}
    p = build_bound_params(cfg)
    assert p.sigma == 0.0
    assert certificate(p).S2 == 0.0
