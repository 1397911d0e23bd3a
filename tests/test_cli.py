import argparse
import csv
import importlib.util
import inspect
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmann import bounds, cli, config, schemes, streams
from stochmann.bounds import tail_bound
from stochmann.cli import build_parser, main
from stochmann.config import (build_bound_params, build_plan, build_scheme,
                              config_hash)
from stochmann.errors import InfeasibleExperimentError, ValidationError
from stochmann.montecarlo import coverage_experiment
from stochmann.noise import zero as noise_zero
from stochmann.schemes import SchemeConfig
from stochmann.spaces import (MapSpec, affine, as_point, inverse_quadratic,
                              scaled_cosine)

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
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
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
    ns = [int(r["n"]) for r in csv.DictReader(
        csv_file.read_text().splitlines())]
    assert ns == [1, 10, 100, 201]


def test_iterate_refuses_checkpoints_past_the_horizon_before_stepping(
        tmp_path, monkeypatch, capsys):
    def stepped(*args):
        raise AssertionError("iterate stepped before checking checkpoints")
    monkeypatch.setattr(schemes, "advance", stepped)
    cfg = dict(REFERENCE, scheme=dict(REFERENCE["scheme"], horizon=2_000_000),
               experiment=dict(REFERENCE["experiment"],
                               checkpoints=[100, 3_000_000]))
    assert main(["iterate", "--config", write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "exceed horizon + 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_confidence_memory_does_not_grow_with_n_alpha(tmp_path, kernel):
    # n_alpha = 112,719: the path alone would take 112,720 x 8 bytes, while
    # the run keeps one tile and the row it reports
    argv = ["confidence", "--config", str(CONFIGS / "confidence_demo.json"),
            "--eps", "0.02", "--out", str(tmp_path)]
    assert main(argv) == 0  # the library, its check and the series caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = json.loads(next(tmp_path.glob("confidence_*.json")).read_text())
    assert payload["n_alpha"] == 112_719
    assert peak < 112_720 * 8


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


def test_single_replica_commands_never_split(tmp_path, cores):
    # even with the split allowed from one replica-step on, the R = 1 paths
    # start no thread pool
    pools = cores(2)
    demo, out = str(CONFIGS / "confidence_demo.json"), str(tmp_path)
    assert main(["confidence", "--config", demo, "--out", out]) == 0
    for name in ("confidence_demo.json", "reference.json"):
        assert main(["iterate", "--config", str(CONFIGS / name),
                     "--out", out]) == 0
    assert pools == []


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
        (out1 / f"montecarlo_seed11_cfg{config_hash(REFERENCE)}.csv")
        .read_text().splitlines()))
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


def test_huge_N_or_mean_norm_bound_clips_the_bound(tmp_path, capsys):
    # N^2 or (a S1 mean_norm_bound)^2 past the float range makes log_K1 and
    # K1 inf: the bound clips to 1 and confidence is infeasible
    for block, key in (("bounds", "N"), ("noise", "mean_norm_bound")):
        cfg = json.loads((CONFIGS / "reference.json").read_text())
        cfg[block][key] = 1e200
        path = write(tmp_path, cfg)
        assert main(["bound", "--config", path, "--n", "1000",
                     "--eps", "0.1"]) == 0, key
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["log_K1"] == report["K1"] == math.inf, key
        assert report["clipped_bound"] == 1.0, key
        assert main(["confidence", "--config", path, "--eps", "0.1",
                     "--out", str(tmp_path / "o")]) == 4, key
        assert "bound at cap: 1 (log raw inf)" in capsys.readouterr().err


def test_confidence_at_a_huge_eps_writes_nothing_to_stderr(tmp_path):
    # the certificate holds Python floats, so eps^2 = inf is no numpy
    # overflow warning
    proc = subprocess.run(
        [sys.executable, "-m", "stochmann", "confidence", "--config",
         str(CONFIGS / "confidence_demo.json"), "--eps", "1e308",
         "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0 and "n_alpha = 1" in proc.stdout
    assert proc.stderr == ""


def test_cramer_check_refuses_an_m_max_past_the_float_range(tmp_path,
                                                           capsys):
    # 200! and L^4 = 1e400 overflow a float: exit 2 naming m_max
    large_l = json.loads(json.dumps(REFERENCE))
    large_l["noise"].update(sigma=3.0, L=1e100)
    for cfg, m_max in ((REFERENCE, 200), (large_l, 6)):
        assert main(["cramer-check", "--config", write(tmp_path, cfg),
                     "--m-max", str(m_max), "--draws", "10"]) == 2, m_max
        assert f"error: m_max: {m_max} is too large" \
            in capsys.readouterr().err


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


# a flag out of the range of what it sets, and the name its refusal gives:
# the flag itself, not the config key or library argument behind it
FLAG_REFUSALS = [
    (["montecarlo", "--replicas", "0"], "--replicas"),
    (["montecarlo", "--replicas", "-3"], "--replicas"),
    (["bound", "--n", "0", "--eps", "0.1"], "--n"),
    (["bound", "--n", "10", "--eps", "-1"], "--eps"),
    (["bound", "--n", "10", "--eps", "nan"], "--eps"),
    (["confidence", "--eps", "-1"], "--eps"),
    (["confidence", "--eps", "0"], "--eps"),
    (["cramer-check", "--m-max", "1"], "--m-max"),
    (["cramer-check", "--draws", "1"], "--draws"),
]


def test_replicas_flag_is_checked_as_alpha_is(tmp_path, capsys):
    cfg_path = write(tmp_path, REFERENCE)
    for argv, flag in FLAG_REFUSALS:
        assert main(argv[:1] + ["--config", cfg_path, "--out",
                                str(tmp_path / "o")] + argv[1:]) == 2, argv
        assert f"error: {flag}: must be" in capsys.readouterr().err, argv
    assert not (tmp_path / "o").exists()


def test_unusable_output_directory_exits_2(tmp_path, capsys, monkeypatch):
    # a path below a regular file cannot become a directory; the commands
    # that step resolve it first, so a bad --out costs no stepping
    def stepped(*args):
        raise AssertionError("stepped before resolving the output directory")
    monkeypatch.setattr(schemes, "advance", stepped)
    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = str(blocker / "sub")
    cfg = json.loads((CONFIGS / "confidence_demo.json").read_text())
    cfg_path = write(tmp_path, cfg)
    for argv in (["iterate"], ["confidence", "--eps", "0.1"],
                 ["montecarlo", "--replicas", "10"],
                 ["bound", "--n", "10", "--eps", "0.1"],
                 ["cramer-check", "--draws", "10"]):
        assert main(argv[:1] + ["--config", cfg_path, "--out", bad]
                    + argv[1:]) == 2, argv
        assert "error: --out: cannot create" in capsys.readouterr().err
    # the config's out_dir is named when it is the one in use
    cfg["out_dir"] = bad
    assert main(["iterate", "--config", write(tmp_path, cfg)]) == 2
    assert "error: out_dir: cannot create" in capsys.readouterr().err


# Malformed map and point inputs, each refused alike by the library
# constructors and by every subcommand: (field named, map block, x0).
MALFORMED = [
    ("map.matrix", {"family": "affine", "matrix": m, "offset": [0.1]}, None)
    for m in ([[True]], [["a"]], [[None]], [[[0.5]]], 0.5, [], [[]])
] + [
    ("map.matrix", {"family": "affine", "matrix": [[0.1, 0.2], [0.3]],
                    "offset": [0.0, 0.0]}, None),
] + [
    ("map.offset", {"family": "affine", "matrix": [[0.5]], "offset": b}, None)
    for b in ([False], ["a"], [None], [[0.1]], [])
] + [
    ("map.lam", {"family": "inverse_quadratic", "lam": 0.5}, None),
    ("map.lam", {"family": "affine", "matrix": [[0.5]], "offset": [0.1],
                 "lam": 0.5}, None),
    ("map.matrix", {"family": "scaled_cosine", "lam": 0.5,
                    "matrix": [[0.5]]}, None),
    ("map.offset", {"family": "affine", "matrix": [[0.5]]}, None),
    ("map.lam", {"family": "scaled_cosine"}, None),
    ("map.lam", {"family": "scaled_cosine", "lam": True}, None),
] + [
    ("scheme.x0", None, x0)
    for x0 in ([True], "abc", [None], [[0.5]], [0.5, [0.5]], [], True)
]
# inputs that only a library caller can pass: arrays of the wrong dtype or
# rank
MALFORMED_ARRAYS = [
    ("map.matrix", {"family": "affine", "matrix": m, "offset": [0.1]}, None)
    for m in (np.array([[True]]), np.array([[0.5]], dtype=object),
              np.array(0.5), np.zeros((1, 1, 1)), np.array([[1j]]))
] + [
    ("map.offset", {"family": "affine", "matrix": [[0.5]],
                    "offset": np.array([True])}, None),
    ("scheme.x0", None, np.array([True])),
    ("scheme.x0", None, np.array(["0.5"])),
]
FAMILY_CONSTRUCTORS = {"affine": affine, "scaled_cosine": scaled_cosine,
                       "inverse_quadratic": inverse_quadratic}


def library_calls(mp, x0):
    """The constructors that take the input: MapSpec and the family's own
    constructor (where its signature takes the block's keys) for a map
    block, SchemeConfig and as_point for x0."""
    if mp is None:
        return [lambda: SchemeConfig(kind="stochastic_mann", x0=x0,
                                     map_spec=inverse_quadratic(),
                                     noise=noise_zero()),
                lambda: as_point(x0, 1, name="scheme.x0")]
    kw = {k: v for k, v in mp.items() if k != "family"}
    make = FAMILY_CONSTRUCTORS[mp["family"]]
    calls = [lambda: MapSpec(**mp)]
    try:
        inspect.signature(make).bind(**kw)
    except TypeError:
        return calls
    return calls + [lambda: make(**kw)]


@pytest.mark.parametrize("field, mp, x0", MALFORMED + MALFORMED_ARRAYS)
def test_malformed_map_and_point_inputs_refused_by_the_library(field, mp, x0):
    for call in library_calls(mp, x0):
        with pytest.raises(ValidationError, match=f"^{re.escape(field)}"):
            call()


def test_malformed_map_and_point_inputs_exit_2(tmp_path, capsys):
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    extra = {"bound": ["--n", "10", "--eps", "0.1"]}
    for field, mp, x0 in MALFORMED:
        cfg = json.loads(json.dumps(REFERENCE))
        if mp is not None:
            cfg["map"] = mp
        if x0 is not None:
            cfg["scheme"]["x0"] = x0
        cfg_path = write(tmp_path, cfg)
        for command in commands:
            argv = [command, "--config", cfg_path,
                    "--out", str(tmp_path / "o")] + extra.get(command, [])
            assert main(argv) == 2, (command, field, mp, x0)
            assert f"error: {field}" in capsys.readouterr().err, \
                (command, field, mp, x0)
    assert not (tmp_path / "o").exists()


def test_each_command_sums_each_series_once(tmp_path, monkeypatch):
    calls = []
    series_power_sum = bounds._series_power_sum

    def counted(p, q, tol):
        calls.append((p, q))
        return series_power_sum(p, q, tol)

    def cold():
        # a warm certificate or series from an earlier call would hide a
        # command that sums a series twice
        calls.clear()
        series_power_sum.cache_clear()
        bounds._certificate.cache_clear()

    monkeypatch.setattr(bounds, "_series_power_sum", counted)
    ref, demo = str(CONFIGS / "reference.json"), \
        str(CONFIGS / "confidence_demo.json")
    out = ["--out", str(tmp_path)]
    for argv, code in ((["confidence", "--config", ref] + out, 4),
                       (["bound", "--config", ref, "--n", "1000",
                         "--eps", "0.1"], 0),
                       (["montecarlo", "--config", demo, "--replicas", "50"]
                        + out, 0)):
        cold()
        assert main(argv) == code
        assert len(calls) == 2, argv
        assert bounds._certificate.cache_info().misses == 1, argv
    cold()
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
    cold()
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
    # and the noise model: build_bound_params takes the scheme's
    monkeypatch.setattr(config, "build_noise",
                        counted("noise", config.build_noise))
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
        assert calls.count("noise") == 1, argv
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


# What a fresh process has loaded after an import or a command, by row:
# {name: (code lines, modules it leaves out, modules it loads, whether it
# resolved the compiled library)}.  Only montecarlo loads montecarlo and its
# thread pool; config_hash hashes without OpenSSL (_hashlib); only the
# commands that step the iteration resolve the library; no row loads
# scipy's cython_special, not even the Gaussian tiles of reference.json,
# which draw through philox.c's own ndtri; neither the import nor a
# montecarlo run split over threads on 2 cores loads multiprocessing; and
# scipy.stats, about a second, never loads.
REF, DEMO_CFG = str(CONFIGS / "reference.json"), \
    str(CONFIGS / "confidence_demo.json")
MONTECARLO = ("stochmann.montecarlo", "concurrent.futures", "logging")
CYTHON = "scipy.special.cython_special"
CLI = "import stochmann.cli as cli"
LOADS = {
    "package": (["import stochmann"],
                ("stochmann.errors", "stochmann.cli", "numpy", CYTHON), (),
                False),
    "cli": ([CLI], ("scipy.stats", "multiprocessing", *MONTECARLO,
                    "_hashlib", "csv", CYTHON), (), False),
    "confidence": ([CLI, f"assert cli.main(['confidence', '--config', "
                         f"{DEMO_CFG!r}, '--out', OUT]) == 0"],
                   (*MONTECARLO, CYTHON), (), True),
    "bound": ([CLI, f"assert cli.main(['bound', '--config', {REF!r}, "
                    "'--n', '1000', '--eps', '0.1']) == 0"],
              (*MONTECARLO, CYTHON), (), False),
    "iterate": ([CLI, f"assert cli.main(['iterate', '--config', {REF!r}, "
                      "'--out', OUT]) == 0"],
                (*MONTECARLO, CYTHON), ("csv",), True),
    # draws that step no Mann iteration never resolve the library
    "cramer-check": ([CLI, f"assert cli.main(['cramer-check', '--config', "
                           f"{REF!r}, '--draws', '1000']) == 0",
                      "from stochmann import spaces",
                      "spaces.estimate_contraction(spaces.inverse_quadratic())"],
                     (*MONTECARLO, CYTHON), (), False),
    "montecarlo": ([CLI, "import os",
                    "from stochmann import montecarlo, streams",
                    "os.sched_getaffinity = lambda pid: {0, 1}",
                    "montecarlo.SPLIT_ELEMENTS, pools = 1, []",
                    "make = montecarlo.ThreadPoolExecutor",
                    "montecarlo.ThreadPoolExecutor = "
                    "lambda k: pools.append(k) or make(k)",
                    f"assert cli.main(['montecarlo', '--config', {REF!r}, "
                    "'--replicas', '20', '--out', OUT]) == 0",
                    "assert pools == ([1] if streams.tile_library() is not None "
                    "else [])"],
                   ("multiprocessing", "scipy.stats", CYTHON), MONTECARLO,
                   True),
}


@pytest.mark.parametrize("row", sorted(LOADS))
def test_each_command_loads_only_what_it_runs(row, tmp_path):
    lines, absent, present, resolved = LOADS[row]
    code = "\n".join([
        "import json, sys", f"OUT = {str(tmp_path)!r}", *lines,
        f"print(json.dumps([m for m in {[*absent, *present]!r} "
        "if m in sys.modules]))",
        "from stochmann import streams",
        "print(streams.tile_library.cache_info().currsize)"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, currsize = proc.stdout.splitlines()[-2:]
    assert json.loads(loaded) == list(present)
    assert currsize == str(int(resolved))


# Every name that stochmann exported while its __init__ imported each
# submodule, by submodule.
EXPORTED = {
    "bounds": "BoundParams BoundReport Certificate canonical_eps0 certificate "
              "deterministic_envelope envelope_sequence "
              "min_iterations_for_confidence product_bound rate_envelope "
              "tail_bound",
    "errors": "CoverageError DivergedError DominanceError "
              "InfeasibleExperimentError NonContractiveError StochmannError "
              "ValidationError",
    "montecarlo": "ExperimentPlan TailEstimate clopper_pearson "
                  "coverage_experiment dominance_failures empirical_tail "
                  "error_table rate_diagnostic replica_errors replica_seeds",
    "noise": "CramerReport NoiseModel bounded_uniform cramer_check "
             "default_cramer_params gaussian sample_block sample_many zero",
    "schemes": "SCHEME_KINDS SchemeConfig StepSequences Trajectory advance "
               "rows_at run step",
    "spaces": "INVERSE_QUADRATIC_C MAP_FAMILIES NORM_KINDS MapSpec affine "
              "as_point contraction_constant dimension estimate_contraction "
              "eval_map inverse_quadratic norm reference_fixed_point "
              "scaled_cosine",
    "streams": "derive_key mix64 philox2x64 substream_normals "
               "substream_uniforms",
}


def test_package_exports_resolve_to_the_submodule_objects():
    import stochmann
    names = dir(stochmann)
    for module, exported in EXPORTED.items():
        source = importlib.import_module(f"stochmann.{module}")
        assert module in names and getattr(stochmann, module) is source
        for name in exported.split():
            scope = {}
            exec(f"from stochmann import {name}", scope)
            assert scope[name] is getattr(source, name), name
            assert name in names and name in stochmann.__all__, name
    assert stochmann.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(stochmann, "no_such_name")
    with pytest.raises(ImportError):
        exec("from stochmann import no_such_name", {})


def test_console_script_bad_usage_exits_2(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "stochmann", "bound",
                           "--config", str(tmp_path / "none.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 2  # argparse: required --n/--eps missing
