import argparse
import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmann import bounds, cli, config, montecarlo
from stochmann.bounds import tail_bound
from stochmann.cli import build_parser, main
from stochmann.config import (build_bound_params, build_plan, build_scheme,
                              config_hash)
from stochmann.errors import InfeasibleExperimentError
from stochmann.montecarlo import coverage_experiment

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

REFERENCE = {
    "map": {"family": "inverse_quadratic"},
    "scheme": {"kind": "stochastic_mann", "x0": [0.5], "a": 0.5,
               "horizon": 200, "seed": 3},
    "noise": {"family": "gaussian", "scale": 2.0},
    "experiment": {"checkpoints": [10, 100, 200], "eps_grid": [0.1, 0.2],
                   "replicas": 100, "alpha": 0.05},
    "base_seed": 11,
}

DEMO = {
    "map": {"family": "affine", "matrix": [[0.0]], "offset": [0.7],
            "declared_c": 0.0},
    "scheme": {"kind": "stochastic_mann", "x0": [0.0], "a": 0.9,
               "horizon": 10000, "seed": 1},
    "noise": {"family": "bounded_uniform", "half_width": 0.1},
    "bounds": {"rho": 0.9},
    "base_seed": 7,
}


def write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_iterate_writes_named_outputs(tmp_path):
    cfg_path = write(tmp_path, REFERENCE)
    out = tmp_path / "out"
    assert main(["iterate", "--config", cfg_path, "--out", str(out)]) == 0
    digest = config_hash(REFERENCE)
    csv_path = out / f"iterate_seed11_cfg{digest}.csv"
    json_path = out / f"iterate_seed11_cfg{digest}.json"
    assert csv_path.exists() and json_path.exists()
    rows = list(csv.DictReader(csv_path.open()))
    assert [int(r["n"]) for r in rows] == [10, 100, 200]
    meta = json.loads(json_path.read_text())
    assert meta["config_hash"] == digest and meta["base_seed"] == 11
    # last checkpoint of the csv agrees with a direct api run
    from stochmann.config import build_scheme
    from stochmann.schemes import run
    from stochmann.spaces import reference_fixed_point
    scheme = build_scheme(REFERENCE)
    traj = run(scheme, reference_fixed_point(scheme.map_spec))
    assert float(rows[-1]["error"]) == traj.error(200)


def test_iterate_default_checkpoints_are_decades(tmp_path):
    cfg = {k: v for k, v in REFERENCE.items() if k != "experiment"}
    cfg_path = write(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["iterate", "--config", cfg_path, "--out", str(out)]) == 0
    csv_file = next(out.glob("iterate_*.csv"))
    ns = [int(r["n"]) for r in csv.DictReader(csv_file.open())]
    assert ns == [1, 10, 100, 201]


def test_bound_stdout_matches_api(tmp_path, capsys):
    cfg_path = write(tmp_path, REFERENCE)
    assert main(["bound", "--config", cfg_path, "--n", "500",
                 "--eps", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    params = build_bound_params(REFERENCE)
    report = tail_bound(500, 0.1, params)
    assert payload["report"]["raw_bound"] == report.raw_bound
    assert payload["report"]["clipped_bound"] == report.clipped_bound
    assert payload["params"]["N"] == params.N


def test_confidence_feasible(tmp_path):
    cfg_path = write(tmp_path, DEMO)
    out = tmp_path / "out"
    assert main(["confidence", "--config", cfg_path, "--eps", "0.1",
                 "--alpha", "0.05", "--out", str(out)]) == 0
    payload = json.loads(next(out.glob("confidence_*.json")).read_text())
    assert payload["n_alpha"] == 3154
    assert payload["radius"] == 0.1
    assert len(payload["center"]) == 1
    # the reported interval is a real 95% set; this realization covers
    assert abs(payload["center"][0] - 0.7) <= 0.1
    assert payload["contains_reference"] is True


def test_single_replica_commands_never_fork(tmp_path, monkeypatch, cores):
    # even with the split allowed from one replica-step on, the R = 1 paths
    # start no process and build no pool
    def refuse(*args):
        raise AssertionError("a process was started")

    cores(2)
    monkeypatch.setattr(montecarlo, "_pool", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    demo, out = str(CONFIGS / "confidence_demo.json"), str(tmp_path)
    assert main(["confidence", "--config", demo, "--out", out]) == 0
    for name in ("confidence_demo.json", "reference.json"):
        assert main(["iterate", "--config", str(CONFIGS / name),
                     "--out", out]) == 0


def test_confidence_infeasible_exits_4(tmp_path, capsys):
    cfg_path = write(tmp_path, REFERENCE)
    assert main(["confidence", "--config", cfg_path, "--eps", "0.1",
                 "--alpha", "0.05"]) == 4
    assert "infeasible" in capsys.readouterr().err


def test_confidence_run_cap_exits_4(tmp_path, capsys):
    cfg = json.loads(json.dumps(DEMO))
    cfg["experiment"] = {"run_cap": 100}
    cfg_path = write(tmp_path, cfg)
    assert main(["confidence", "--config", cfg_path, "--eps", "0.1",
                 "--alpha", "0.05"]) == 4
    assert "run cap" in capsys.readouterr().err
    # iterate caps its horizon the same way, before it allocates the path
    assert main(["iterate", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 4
    assert "scheme.horizon = 10000 exceeds run cap 100" \
        in capsys.readouterr().err
    cfg = dict(DEMO, scheme=dict(DEMO["scheme"], horizon=10**13))
    assert main(["iterate", "--config", write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 4
    assert "run cap 10000000" in capsys.readouterr().err


def test_confidence_alpha_outside_unit_interval_exits_2(tmp_path, capsys):
    cfg_path = write(tmp_path, DEMO)
    assert main(["confidence", "--config", cfg_path, "--eps", "0.1",
                 "--alpha", "1.5"]) == 2
    assert "alpha" in capsys.readouterr().err
    # --alpha takes experiment.alpha's range, 0 < alpha <= 0.5
    assert main(["confidence", "--config", cfg_path, "--eps", "0.1",
                 "--alpha", "0.7", "--out", str(tmp_path / "o")]) == 2
    assert "--alpha" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_one_norm_without_moment_overrides_exits_2(tmp_path, capsys):
    # the shipped defaults undercut E||xi||_1 at d = 2: for Gaussian scale 1
    # mean_norm_bound would be sqrt(2) = 1.414 < 2 sqrt(2/pi) = 1.596
    base = {"map": {"family": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]],
                    "offset": [0.1, 0.2]},
            "norm": "one",
            "scheme": {"kind": "stochastic_mann", "x0": [0.0, 0.0],
                       "a": 0.5, "horizon": 20, "seed": 1},
            "experiment": {"checkpoints": [10], "eps_grid": [0.5],
                           "replicas": 10},
            "base_seed": 3}
    commands = (["bound", "--n", "10", "--eps", "0.5"],
                ["confidence", "--out", str(tmp_path / "o")],
                ["montecarlo", "--out", str(tmp_path / "o")])
    for noise in ({"family": "gaussian", "scale": 1.0},
                  {"family": "bounded_uniform", "half_width": 1.0}):
        cfg_path = write(tmp_path, dict(base, noise=noise))
        for argv in commands:
            assert main(argv[:1] + ["--config", cfg_path] + argv[1:]) == 2
            assert "noise.sigma" in capsys.readouterr().err
        assert main(["iterate", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 0
        given = dict(base, noise=dict(noise, sigma=3.0, L=3.0,
                                      mean_norm_bound=2.0))
        assert main(["bound", "--config", write(tmp_path, given),
                     "--n", "10", "--eps", "0.5"]) == 0
    capsys.readouterr()
    missing_mnb = dict(base, noise={"family": "gaussian", "scale": 1.0,
                                    "sigma": 3.0, "L": 3.0})
    assert main(["bound", "--config", write(tmp_path, missing_mnb),
                 "--n", "10", "--eps", "0.5"]) == 2
    assert "noise.mean_norm_bound" in capsys.readouterr().err
    zero = dict(base, noise={"family": "zero"})
    assert main(["bound", "--config", write(tmp_path, zero),
                 "--n", "10", "--eps", "0.5"]) == 0


def test_montecarlo_pass_and_byte_identical_outputs(tmp_path):
    cfg_path = write(tmp_path, REFERENCE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["montecarlo", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["montecarlo", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in (f"montecarlo_seed11_cfg{config_hash(REFERENCE)}.csv",
                 f"montecarlo_seed11_cfg{config_hash(REFERENCE)}.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads(
        (out1 / f"montecarlo_seed11_cfg{config_hash(REFERENCE)}.json")
        .read_text())
    assert summary["verdict"] == "pass"
    assert summary["cells"] == 6
    rows = list(csv.DictReader(
        (out1 / f"montecarlo_seed11_cfg{config_hash(REFERENCE)}.csv").open()))
    assert len(rows) == 6
    for r in rows:
        assert float(r["ci_low"]) <= float(r["bound_clipped"])


def test_montecarlo_seed_and_replicas_flags(tmp_path):
    cfg_path = write(tmp_path, REFERENCE)
    out = tmp_path / "o"
    assert main(["montecarlo", "--config", cfg_path, "--out", str(out),
                 "--seed", "99", "--replicas", "20"]) == 0
    named = list(out.glob("montecarlo_seed99_*.json"))
    assert len(named) == 1
    assert json.loads(named[0].read_text())["replicas"] == 20


def test_montecarlo_warns_when_every_cell_is_vacuous(tmp_path, capsys):
    # honest constants clip every REFERENCE cell to 1: the gate cannot fail
    assert main(["montecarlo", "--config", write(tmp_path, REFERENCE),
                 "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err
    assert err == ("warning: all 6 cells are vacuous (bound clipped to 1), "
                   "so the dominance check could not fail\n")
    # at n = 5000 the DEMO bound is informative, so no warning
    informative = dict(DEMO, scheme=dict(DEMO["scheme"], horizon=5000),
                       experiment={"checkpoints": [100, 5000],
                                   "eps_grid": [0.1], "replicas": 50})
    assert main(["montecarlo", "--config", write(tmp_path, informative, "d.json"),
                 "--out", str(tmp_path / "o")]) == 0
    captured = capsys.readouterr()
    assert "1 vacuous" in captured.out and captured.err == ""


def test_montecarlo_dominance_failure_exits_3(tmp_path, capsys):
    # claimed moment parameters far below the real noise force a refutation
    cfg = {
        "map": {"family": "affine", "matrix": [[0.0]], "offset": [0.0],
                "declared_c": 0.0},
        "scheme": {"kind": "stochastic_mann", "x0": [0.0], "a": 0.9,
                   "horizon": 10, "seed": 0},
        "noise": {"family": "bounded_uniform", "half_width": 5.0,
                  "sigma": 1e-12, "L": 1e-12, "mean_norm_bound": 0.0},
        "bounds": {"N": 0.0, "rho": 0.9},
        "experiment": {"checkpoints": [1], "eps_grid": [1.0],
                       "replicas": 100},
        "base_seed": 3,
    }
    cfg_path = write(tmp_path, cfg)
    assert main(["montecarlo", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 3
    assert "verification failed" in capsys.readouterr().err


def test_refuted_N_exits_2(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "reference.json").read_text())
    cfg["bounds"]["N"] = 0
    path = write(tmp_path, cfg)
    out = ["--out", str(tmp_path / "o")]
    for argv in (["bound", "--config", path, "--n", "1000", "--eps", "0.1"],
                 ["confidence", "--config", path, "--eps", "0.1"] + out,
                 ["montecarlo", "--config", path, "--replicas", "10"] + out):
        assert main(argv) == 2, argv
        assert "bounds.N: 0.0 is below the initial distance" \
            in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cramer_check_pass_and_flag(tmp_path, capsys):
    cfg_path = write(tmp_path, REFERENCE)
    assert main(["cramer-check", "--config", cfg_path,
                 "--draws", "5000", "--m-max", "6"]) == 0
    dishonest = json.loads(json.dumps(REFERENCE))
    dishonest["noise"]["sigma"] = 0.01
    dishonest["noise"]["L"] = 0.01
    cfg_path = write(tmp_path, dishonest, "lie.json")
    assert main(["cramer-check", "--config", cfg_path,
                 "--draws", "5000", "--m-max", "6"]) == 3
    assert "flagged" in capsys.readouterr().err


def test_cramer_check_audits_the_mean_norm_bound(tmp_path, capsys):
    # E|xi| = 0.798 for N(0, 1): a declared mean norm bound of 0.5 is refuted
    low = json.loads(json.dumps(REFERENCE))
    low["noise"] = {"family": "gaussian", "scale": 1.0, "mean_norm_bound": 0.5}
    out = tmp_path / "o"
    assert main(["cramer-check", "--config", write(tmp_path, low),
                 "--draws", "5000", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "mean     m= 1" in captured.out and "flagged" in captured.err
    (path,) = out.iterdir()
    payload = json.loads(path.read_text())
    assert payload["mean"]["bound"] == 0.5 and not payload["mean"]["ok"]
    assert not payload["ok"] and payload["certified"] is False
    # the shipped defaults pass the mean row at the default draw count
    for name in ("reference.json", "confidence_demo.json"):
        assert main(["cramer-check", "--config", str(CONFIGS / name),
                     "--out", str(tmp_path / name)]) == 0, name


def test_cramer_check_audits_the_bounds_overrides(tmp_path, capsys):
    # the bound is certified with the moment constants declared under noise;
    # against E|xi| = 1.596 for N(0, 4), a declared 0.1 must be refuted
    low = json.loads((CONFIGS / "reference.json").read_text())
    low["noise"]["mean_norm_bound"] = 0.1
    out = tmp_path / "o"
    assert main(["cramer-check", "--config", write(tmp_path, low),
                 "--draws", "10000", "--out", str(out)]) == 3
    assert "flagged" in capsys.readouterr().err
    (path,) = out.iterdir()
    payload = json.loads(path.read_text())
    assert payload["mean"]["bound"] == 0.1 and not payload["mean"]["ok"]
    assert payload["certified"] is False
    # sigma and L declared under noise are audited too
    small = json.loads((CONFIGS / "reference.json").read_text())
    small["noise"].update(sigma=0.01, L=0.01)
    assert main(["cramer-check", "--config", write(tmp_path, small, "s.json"),
                 "--draws", "5000", "--m-max", "6"]) == 3
    # the removed bounds.* spelling is refused, not silently left unaudited
    for key in ("sigma", "L", "mean_norm_bound"):
        old = json.loads((CONFIGS / "reference.json").read_text())
        old["bounds"][key] = 0.1
        assert main(["cramer-check", "--config",
                     write(tmp_path, old, f"{key}.json"),
                     "--draws", "5000"]) == 2, key
        assert f"bounds.{key}" in capsys.readouterr().err, key


def test_cramer_check_does_not_flag_the_exact_default_mean(tmp_path, capsys):
    # at d = 1 the certified Gaussian mean_norm_bound is E|xi| exactly; on
    # seed 780 the sample mean lies 3.7 standard errors above it
    assert main(["cramer-check", "--config", str(CONFIGS / "reference.json"),
                 "--seed", "780", "--draws", "10000",
                 "--out", str(tmp_path / "o")]) == 0
    assert "mean     m= 1 empirical=1.640176e+00 bound=1.595769e+00 ok" \
        in capsys.readouterr().out


def test_invalid_config_exits_2(tmp_path, capsys):
    cases = [({"typo": 1}, "typo")]
    # zero noise takes no parameters, and each other family only its own
    cases += [({"noise": {"family": "zero", key: 1.0}}, f"noise.{key}")
              for key in ("scale", "half_width", "sigma", "L",
                          "mean_norm_bound")]
    cases += [({"noise": {"family": "gaussian", "scale": 2.0,
                          "half_width": 1.0}}, "noise.half_width"),
              ({"noise": {"family": "bounded_uniform", "half_width": 1.0,
                          "scale": 2.0}}, "noise.scale")]
    # ranges and combinations that the scheme's own objects check
    scheme = REFERENCE["scheme"]
    cases += [({"scheme": dict(scheme, a=1.5)}, "scheme.a")]
    # stochastic Mann is the one kind, and the noise block is required (a
    # None value drops the block); zero noise runs plain Mann
    cases += [({"scheme": dict(scheme, kind="mann")}, "scheme.kind"),
              ({"noise": None}, "config.noise")]
    # removed knobs: c and the moment parameters are set under map and noise
    cases += [({"bounds": {key: 0.1}}, f"bounds.{key}")
              for key in ("c", "sigma", "L", "mean_norm_bound")]
    cases += [({"map": {"family": "inverse_quadratic",
                        "domain_box": [[-10.0, 10.0]]}}, "map.domain_box"),
              ({"scheme": dict(scheme, ishikawa_b=1.0)}, "scheme.ishikawa_b")]
    # malformed array fields, each named by its path
    cases += [({"scheme": dict(scheme, x0=x0)}, "scheme.x0")
              for x0 in ("abc", ["a"])]
    cases += [({"map": {"family": "affine", "matrix": matrix,
                        "offset": [0.0, 0.0]}}, "map.matrix")
              for matrix in ([["a"]], [[0.1, 0.2], [0.3]])]
    # fields that the chosen family or a sibling field makes inapplicable
    cases += [({"map": {"family": "inverse_quadratic", key: value}},
               f"map.{key}")
              for key, value in (("matrix", [[0.5]]), ("offset", [0.1]),
                                 ("lam", 0.5))]
    cases += [({"map": {"family": "affine", "matrix": [[0.5]],
                        "offset": [0.1], "lam": 0.5}}, "map.lam"),
              ({"bounds": {"rho": 0.1, "rho_scale": 0.5}}, "bounds.rho_scale")]
    # a noise block names its family; seeds lie in [0, 2**64), which the
    # 64-bit stream keys tell apart; integers beyond float64 are refused
    cases += [({"noise": {"scale": 2.0}}, "noise.family"),
              ({"base_seed": 2**64}, "base_seed"),
              ({"scheme": dict(scheme, seed=2**64)}, "scheme.seed"),
              ({"base_seed": 10**400}, "base_seed"),
              ({"scheme": dict(scheme, horizon=10**400)}, "scheme.horizon")]
    # checkpoints strictly increase, as every command that reads them needs
    experiment = REFERENCE["experiment"]
    cases += [({"experiment": dict(experiment, checkpoints=cps)},
               "experiment.checkpoints") for cps in ([10, 10], [20000, 5])]
    # every subcommand builds the same scheme, so each refuses each case
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    extra = {"bound": ["--n", "10", "--eps", "0.1"]}
    for change, field in cases:
        cfg = dict(json.loads(json.dumps(REFERENCE)), **change)
        cfg_path = write(tmp_path, {k: v for k, v in cfg.items()
                                    if v is not None})
        for command in commands:
            argv = [command, "--config", cfg_path,
                    "--out", str(tmp_path / "o")] + extra.get(command, [])
            assert main(argv) == 2, (command, field)
            assert field in capsys.readouterr().err, (command, field)
    # --seed goes through the same check as base_seed
    cfg_path = write(tmp_path, REFERENCE)
    for seed in ("-1", str(2**64)):
        for command in commands:
            argv = [command, "--config", cfg_path, "--seed", seed,
                    "--out", str(tmp_path / "o")] + extra.get(command, [])
            assert main(argv) == 2, (command, seed)
            assert "--seed" in capsys.readouterr().err, (command, seed)


def test_each_command_sums_each_series_once(tmp_path, monkeypatch):
    calls = []
    series_power_sum = bounds._series_power_sum

    def counted(p, q, tol):
        calls.append((p, q))
        return series_power_sum(p, q, tol)

    monkeypatch.setattr(bounds, "_series_power_sum", counted)
    ref, demo = str(CONFIGS / "reference.json"), \
        str(CONFIGS / "confidence_demo.json")
    out = ["--out", str(tmp_path)]
    for argv, code in ((["confidence", "--config", ref] + out, 4),
                       (["bound", "--config", ref, "--n", "1000",
                         "--eps", "0.1"], 0),
                       (["montecarlo", "--config", demo, "--replicas", "50"]
                        + out, 0)):
        calls.clear()
        assert main(argv) == code
        assert len(calls) == 2, argv
    calls.clear()
    plan = build_plan(REFERENCE, scheme=build_scheme(REFERENCE))
    with pytest.raises(InfeasibleExperimentError):
        coverage_experiment(plan, eps=0.1, alpha=0.05,
                            params=build_bound_params(REFERENCE))
    assert len(calls) == 2
    # the coverage block sizes n_alpha and runs 4 experiments on one set
    spec = importlib.util.spec_from_file_location(
        "reproduce_tables", ROOT / "scripts" / "reproduce_tables.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls.clear()
    script.block_coverage(argparse.Namespace(fast=True, seed=0))
    assert len(calls) == 2


def test_each_command_builds_the_map_and_fixed_point_once(tmp_path,
                                                          monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(config, "build_map", counted("map", config.build_map))
    for module in (cli, config):
        monkeypatch.setattr(module, "reference_fixed_point",
                            counted("x_star", module.reference_fixed_point))
    demo, out = str(CONFIGS / "confidence_demo.json"), ["--out", str(tmp_path)]
    for argv, x_stars in ((["iterate", "--config", demo] + out, 1),
                          (["bound", "--config", demo, "--n", "1000",
                            "--eps", "0.1"], 1),
                          (["confidence", "--config", demo, "--eps", "0.1"]
                           + out, 1),
                          (["montecarlo", "--config", demo, "--replicas", "50"]
                           + out, 1),
                          (["cramer-check", "--config", demo,
                            "--draws", "1000"], 0)):
        calls.clear()
        assert main(argv) == 0
        assert calls.count("map") == 1, argv
        assert calls.count("x_star") == x_stars, argv


# every numeric or array field, each in a base config that takes it: the
# second carries those that the first's families or bounds.rho exclude
FULL = {
    "map": {"family": "affine", "matrix": [[0.0]], "offset": [0.7],
            "declared_c": 0.0},
    "scheme": {"kind": "stochastic_mann", "x0": [0.0], "a": 0.9,
               "horizon": 20, "seed": 1},
    "noise": {"family": "bounded_uniform", "half_width": 0.1, "sigma": 0.1,
              "L": 0.1, "mean_norm_bound": 0.1},
    "bounds": {"N": 0.7, "rho": 0.9, "n_cap": 1000},
    "experiment": {"checkpoints": [10], "eps_grid": [0.1], "replicas": 10,
                   "alpha": 0.05, "run_cap": 100},
    "base_seed": 7,
}
FULL_COSINE = {
    "map": {"family": "scaled_cosine", "lam": 0.5, "declared_c": 0.5},
    "scheme": {"kind": "stochastic_mann", "x0": [0.0], "a": 0.9,
               "horizon": 20, "seed": 1},
    "noise": {"family": "zero"},
    "bounds": {"N": 0.7, "rho_scale": 0.5, "n_cap": 1000},
    "experiment": {"checkpoints": [10], "eps_grid": [0.1], "replicas": 10,
                   "alpha": 0.05, "run_cap": 100},
    "base_seed": 7,
}
BASES = (FULL, FULL_COSINE)
FIELDS = [(base, block, key) for base, cfg in enumerate(BASES)
          for block in ("map", "scheme", "noise", "bounds", "experiment")
          for key, value in cfg.get(block, {}).items()
          if not isinstance(value, str)] + [(0, None, "base_seed")]
_SCALARS = st.one_of(st.text(max_size=4), st.booleans(), st.none())
_OBJECTS = st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2)
NON_NUMERIC = st.one_of(_SCALARS, _OBJECTS,
                        st.lists(st.one_of(_SCALARS, _OBJECTS), max_size=3))


def test_full_config_runs(tmp_path):
    for cfg in BASES:
        assert main(["iterate", "--config", write(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 0


@given(field=st.sampled_from(FIELDS), value=NON_NUMERIC)
@settings(max_examples=50, deadline=None)
def test_non_numeric_field_exits_2(tmp_path_factory, field, value):
    base, block, key = field
    cfg = json.loads(json.dumps(BASES[base]))
    (cfg if block is None else cfg[block])[key] = value
    path = write(tmp_path_factory.mktemp("cfg"), cfg)
    assert main(["iterate", "--config", path]) == 2


def test_null_field_exits_2(tmp_path):
    # the objects read None as "not given" for noise.* and map.declared_c,
    # so validate_config must refuse JSON null there; every field, pinned
    for base, block, key in FIELDS:
        cfg = json.loads(json.dumps(BASES[base]))
        (cfg if block is None else cfg[block])[key] = None
        path = write(tmp_path, cfg)
        assert main(["iterate", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2, (block, key)


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "stochmann", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "montecarlo" in proc.stdout


def test_cli_import_leaves_out_scipy_stats():
    # every command pays this import; scipy.stats alone costs about a second
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stochmann.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_out_multiprocessing():
    # replica_errors imports it only when it splits the replicas
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stochmann.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def shown_lines(*lines):
    """The '@' lines that the code lines print in a fresh process, where
    show(*values) prints its values after an '@'."""
    code = "\n".join(["import sys, stochmann.cli as cli",
                      "from stochmann import spaces, streams",
                      "def show(*values): print('@', *values)", *lines])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return [line for line in proc.stdout.splitlines() if line.startswith("@")]


def test_cython_special_loads_only_for_gaussian_tiles(tmp_path):
    # importing the CLI neither builds nor loads the compiled library, and
    # only a Gaussian noise tile needs scipy's ndtri from cython_special:
    # confidence_demo.json draws bounded uniform noise, reference.json
    # Gaussian noise
    out = str(tmp_path / "out")
    modules = "show('scipy.special.cython_special' in sys.modules)"
    library = "show(streams.tile_library.cache_info().currsize)"
    reference = str(CONFIGS / "reference.json")
    assert shown_lines(
        modules, library,
        f"cli.main(['confidence', '--config', {str(CONFIGS / 'confidence_demo.json')!r},"
        f" '--out', {out!r}])",
        modules,
        f"cli.main(['iterate', '--config', {reference!r}, '--out', {out!r}])",
        modules) == ["@ False", "@ 0", "@ False", "@ True"]
    # draws that step no Mann iteration never load the library
    assert shown_lines(
        f"cli.main(['cramer-check', '--config', {reference!r}, '--out', {out!r}])",
        "spaces.estimate_contraction(spaces.inverse_quadratic())",
        library) == ["@ 0"]


def test_console_script_bad_usage_exits_2(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "stochmann", "bound",
                           "--config", str(tmp_path / "none.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 2  # argparse: required --n/--eps missing
