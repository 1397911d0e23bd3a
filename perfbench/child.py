"""One fresh interpreter of the benchmark.

Times ``import stochmann.cli`` (the set-up every command pays), then runs
the workload's operations and checks their outputs, or, in traced mode,
rebuilds the command with spans and runs the layer probes.

Usage: python3 perfbench/child.py SPEC.json RESULT.json
"""

import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

REF_UNITS = 50       # reference-kernel units around a CLI command, ~0.8 s
SWEEP_REF_UNITS = 10  # and between two passes of the sweep


def reference_kernel(units=REF_UNITS):
    """Time of REF_UNITS units of fixed work shaped like the workloads' own
    (numpy calls on small uint64 and float64 arrays, Python arithmetic),
    measured over ``units`` units.

    The machine's speed wanders by tens of percent over seconds to minutes;
    an operation's time divided by this kernel's time, measured just before
    and after it in the same process, cancels most of that drift.
    """
    import numpy as np

    u = np.arange(2000, dtype=np.uint64)
    x = np.linspace(0.0, 1.0, 2000)
    total = 0
    start = time.perf_counter()
    for _ in range(1000 * units):
        (u * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)
        np.sqrt(x * 1.0001 + 0.5)
        for j in range(25):
            total += j * j
    return (time.perf_counter() - start) * REF_UNITS / units


def cli_op(cli, spec):
    """One CLI command, timed around cli.main, then checked."""
    from checks import check_confidence, check_montecarlo, files_digest

    out = Path(spec["out"])
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = spec["argv"] + ["--out", str(out)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        return {"wall_s": time.perf_counter() - start, "attempted": 1,
                "failed": 1, "errors": [traceback.format_exc()]}
    op = {"wall_s": time.perf_counter() - start, "attempted": 1}
    if code != 0:
        op.update(failed=1, errors=[f"exit code {code}, expected 0"])
        return op
    if spec["argv"][0] == "montecarlo":
        errors, facts = check_montecarlo(out, spec["replicas"])
    else:
        errors, facts = check_confidence(out)
    op.update(facts, failed=int(bool(errors)), errors=errors,
              digest=files_digest(out))
    return op


def sweep_op(spec):
    """One pass over the certify_sweep grid; each certificate is an op."""
    import checks
    import ops

    inputs = spec["sweep"]
    start = time.perf_counter()
    try:
        certs = ops.sweep(inputs, ops.NoTrace)
    except Exception:
        return {"wall_s": time.perf_counter() - start,
                "attempted": len(inputs["grid"]),
                "failed": len(inputs["grid"]),
                "errors": [traceback.format_exc()]}
    op = {"wall_s": time.perf_counter() - start, "attempted": len(certs),
          "digest": checks.sha256(repr(certs))}
    failed = [checks.check_certificate(cert) for cert in certs]
    op["failed"] = sum(1 for errors in failed if errors)
    op["errors"] = [e for errors in failed for e in errors]
    return op


def traced(spec):
    """The traced rebuild, the batched-vs-serial spot check and the probes."""
    import random

    import probes
    from ops import REBUILD, Tracer, spot_check
    from stochmann import config
    from workloads import CONFIDENCE_EPS

    tracer = Tracer()
    start = time.perf_counter()
    with tracer.span("bench." + spec["workload"]):
        rebuilt = REBUILD[spec["workload"]](spec, tracer)
    traced_s = time.perf_counter() - start
    R, d = spec["replicas"], spec["dim"]
    blocks = (d + 1) // 2
    cfg, _, params = probes.load(spec)
    settings = config.experiment_settings(cfg)
    alpha = settings["alpha"]
    trials = R if R > 1 else 1000
    k_grid = [round(i * trials / 12) for i in range(1, 12)]
    result = {"traced_s": traced_s, "spans": tracer.spans,
              "sim_digest": rebuilt.get("sim_digest"), "spot_check": []}
    if spec["workload"].startswith("mc_"):
        picks = random.Random(spec["seed"]).sample(range(R), 3)
        result["spot_check_replicas"] = picks
        result["spot_check"] = spot_check(rebuilt, picks)
        steps = R * spec["horizon"]
        counts = {"montecarlo.replica_steps": steps,
                  "streams.philox_blocks": steps * blocks,
                  "bounds.series_terms": rebuilt["series_terms"],
                  "montecarlo.cells": rebuilt["cells"],
                  "montecarlo.informative_cells": rebuilt["informative_cells"]}
        sample_rows, param_sets, eps = R, [params], settings["eps_grid"][0]
    elif spec["workload"] == "confidence_long":
        n_alpha = rebuilt["n_alpha"]
        result["n_alpha"] = n_alpha
        counts = {"montecarlo.replica_steps": n_alpha,
                  "streams.philox_blocks": n_alpha * blocks,
                  "bounds.series_terms": probes.series_terms(rebuilt["params"]),
                  "montecarlo.cells": 0, "montecarlo.informative_cells": 0}
        sample_rows, param_sets, eps = n_alpha, [rebuilt["params"]], \
            CONFIDENCE_EPS
    else:
        from stochmann.bounds import BoundParams

        inputs = spec["sweep"]
        param_sets = [BoundParams(**p) for p in inputs["grid"]]
        calls = (len(inputs["eps"]) * len(inputs["alpha"])
                 + len(inputs["checkpoints"]) * len(inputs["eps"]) + 1)
        counts = {"montecarlo.replica_steps": 0, "streams.philox_blocks": 0,
                  "bounds.series_terms": calls * sum(
                      probes.series_terms(p) for p in param_sets),
                  "montecarlo.cells": len(param_sets) * len(inputs["k_grid"]),
                  "montecarlo.informative_cells": rebuilt["informative"]}
        sample_rows, eps, alpha = 1, inputs["eps"][0], inputs["alpha"][0]
        trials, k_grid = inputs["trials"], inputs["k_grid"]
    result["counts"] = counts
    result["probes"] = probes.kernel_probes(spec, sample_rows)
    result["probes"].update(
        probes.bounds_probes(param_sets, eps, alpha, trials, k_grid))
    return result


def main():
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    start = time.perf_counter()
    import stochmann.cli as cli
    setup_s = time.perf_counter() - start
    import numpy
    import scipy

    src = Path(spec["root"], "src").resolve()
    if Path(cli.__file__).resolve().parent.parent != src:
        sys.exit(f"stochmann was imported from {cli.__file__}, not {src}")
    result = {"setup_s": setup_s, "ops": [],
              "env": {"python": sys.version.split()[0],
                      "numpy": numpy.__version__, "scipy": scipy.__version__,
                      "nproc": len(os.sched_getaffinity(0))}}
    if spec.get("traced"):
        result.update(traced(spec))
    elif spec["kind"] == "cli":
        before = reference_kernel()
        op = cli_op(cli, spec)
        op["ref_s"] = 0.5 * (before + reference_kernel())
        result["ops"].append(op)
    else:
        deadline = time.perf_counter() + spec["budget_s"]
        before = reference_kernel(SWEEP_REF_UNITS)
        while True:
            op = sweep_op(spec)
            after = reference_kernel(SWEEP_REF_UNITS)
            op["ref_s"] = 0.5 * (before + after)
            result["ops"].append(op)
            if time.perf_counter() >= deadline:
                break
            before = after
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
