import argparse
import csv
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmann import bounds
from stochmann.bounds import tail_bound
from stochmann.cli import main
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


def test_montecarlo_dominance_failure_exits_3(tmp_path, capsys):
    # claimed moment parameters far below the real noise force a refutation
    cfg = {
        "map": {"family": "affine", "matrix": [[0.0]], "offset": [0.0],
                "declared_c": 0.0},
        "scheme": {"kind": "stochastic_mann", "x0": [0.0], "a": 0.9,
                   "horizon": 10, "seed": 0},
        "noise": {"family": "bounded_uniform", "half_width": 5.0},
        "bounds": {"N": 0.0, "sigma": 1e-12, "L": 1e-12,
                   "mean_norm_bound": 0.0, "rho": 0.9},
        "experiment": {"checkpoints": [1], "eps_grid": [1.0],
                       "replicas": 100},
        "base_seed": 3,
    }
    cfg_path = write(tmp_path, cfg)
    assert main(["montecarlo", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 3
    assert "verification failed" in capsys.readouterr().err


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


def test_invalid_config_exits_2(tmp_path, capsys):
    cases = [({"typo": 1}, "typo")]
    # zero noise has no moment parameters to override
    cases += [({"noise": {"family": "zero", key: 1.0}}, f"noise.{key}")
              for key in ("sigma", "L", "mean_norm_bound")]
    # malformed array fields, each named by its path
    scheme = REFERENCE["scheme"]
    cases += [({"scheme": dict(scheme, x0=x0)}, "scheme.x0")
              for x0 in ("abc", ["a"])]
    cases += [({"map": {"family": "affine", "matrix": matrix,
                        "offset": [0.0, 0.0]}}, "map.matrix")
              for matrix in ([["a"]], [[0.1, 0.2], [0.3]])]
    cases += [({"map": {"family": "inverse_quadratic", "domain_box": "x"}},
               "map.domain_box")]
    # fields that the chosen family, kind or sibling field makes inapplicable
    cases += [({"map": {"family": "inverse_quadratic", key: value}},
               f"map.{key}")
              for key, value in (("matrix", [[0.5]]), ("offset", [0.1]),
                                 ("lam", 0.5))]
    cases += [({"map": {"family": "affine", "matrix": [[0.5]],
                        "offset": [0.1], "lam": 0.5}}, "map.lam"),
              ({"scheme": dict(scheme, ishikawa_b=1.0)}, "scheme.ishikawa_b"),
              ({"bounds": {"rho": 0.1, "rho_scale": 0.5}}, "bounds.rho_scale")]
    for change, field in cases:
        cfg = dict(json.loads(json.dumps(REFERENCE)), **change)
        cfg_path = write(tmp_path, cfg)
        assert main(["iterate", "--config", cfg_path]) == 2
        assert field in capsys.readouterr().err


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


# every numeric or array field, each in a base config that takes it: the
# second carries those that the first's family, kind or bounds.rho exclude
FULL = {
    "map": {"family": "affine", "matrix": [[0.0]], "offset": [0.7],
            "declared_c": 0.0, "domain_box": [[-10.0, 10.0]]},
    "scheme": {"kind": "stochastic_mann", "x0": [0.0], "a": 0.9,
               "horizon": 20, "seed": 1},
    "noise": {"family": "bounded_uniform", "half_width": 0.1, "sigma": 0.1,
              "L": 0.1, "mean_norm_bound": 0.1},
    "bounds": {"N": 0.7, "rho": 0.9, "c": 0.0, "sigma": 0.1, "L": 0.1,
               "mean_norm_bound": 0.1, "n_cap": 1000},
    "experiment": {"checkpoints": [10], "eps_grid": [0.1], "replicas": 10,
                   "alpha": 0.05, "run_cap": 100},
    "base_seed": 7,
}
FULL_ISHIKAWA = {
    "map": {"family": "scaled_cosine", "lam": 0.5, "declared_c": 0.5,
            "domain_box": [[-10.0, 10.0]]},
    "scheme": {"kind": "ishikawa", "x0": [0.0], "a": 0.9, "horizon": 20,
               "seed": 1, "ishikawa_b": 1.0},
    "bounds": {"N": 0.7, "rho_scale": 0.5, "c": 0.5, "sigma": 0.1, "L": 0.1,
               "mean_norm_bound": 0.1, "n_cap": 1000},
    "experiment": {"checkpoints": [10], "eps_grid": [0.1], "replicas": 10,
                   "alpha": 0.05, "run_cap": 100},
    "base_seed": 7,
}
BASES = (FULL, FULL_ISHIKAWA)
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


def test_console_script_bad_usage_exits_2(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "stochmann", "bound",
                           "--config", str(tmp_path / "none.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 2  # argparse: required --n/--eps missing
