"""The stochmann benchmark.

Runs one workload for about --seconds seconds, each command in a fresh
interpreter, checks every output, and prints the metrics by name; the last
line of standard output is one JSON object. --trace 1 runs the traced
rebuild and the layer probes instead of the end-to-end measurement.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload mc_reference --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170    # the whole run, set-up included
MIN_CHILDREN = 3    # set-up samples per timed run
TRACE_UNTRACED = 2  # untraced commands the tracing overhead is taken against
LAYERS = ("bench", "config", "spaces", "bounds", "montecarlo", "schemes")
IMPORT_MODULES = ("stochmann", "errors", "bounds", "streams", "spaces",
                  "noise", "schemes", "montecarlo", "config", "cli")

END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


PER_LAYER_UNITS = {
    "streams.philox_ns_per_block": "ns",
    "streams.normals_ns_per_draw": "ns",
    "noise.sample_many_ns_per_draw": "ns",
    "noise.sample_block_ns_per_draw": "ns",
    "spaces.eval_map_ns_per_replica_step": "ns",
    "spaces.norm_ns_per_row": "ns",
    "spaces.reference_fixed_point_ms": "ms",
    "schemes.step_ns_per_replica_step": "ns",
    "schemes.run_us_per_step": "us",
    "montecarlo.replica_errors_ns_per_replica_step": "ns",
    "montecarlo.loop_overhead_share": "ratio",
    "montecarlo.clopper_pearson_us_per_cell": "us",
    "bounds.series_S1_ms": "ms",
    "bounds.series_S2_ms": "ms",
    "bounds.tail_bound_us": "us",
    "bounds.min_iterations_us": "us",
    "config.load_build_ms": "ms",
    "montecarlo.replica_steps": "count",
    "streams.philox_blocks": "count",
    "bounds.series_terms": "count",
    "montecarlo.cells": "count",
    "montecarlo.informative_cells": "count",
    **{f"{m}.import_ms": "ms" for m in IMPORT_MODULES},
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_ms": "ms",
}


def child_env(root):
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Children:
    """Starts child interpreters one at a time and waits for each."""

    def __init__(self, root, work, deadline):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = child_env(root)
        self.count = 0

    def run(self, spec):
        """The child's result, or (None, reason) when it did not finish."""
        self.count += 1
        spec_path = self.work / f"spec{self.count}.json"
        result_path = self.work / f"result{self.count}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path),
                 str(result_path)],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"child timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not result_path.exists():
            return None, (f"child exited with code {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
        return json.loads(result_path.read_text(encoding="utf-8")), None

    def import_times(self):
        """Cumulative import time of each stochmann module, in ms, from
        `python -X importtime` (0 for a module that is not imported)."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import stochmann.cli"],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()))
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name.startswith("stochmann"):
                    cumulative[name] = int(parts[1]) / 1e3
        return {f"{m}.import_ms": cumulative.get(
                    m if m == "stochmann" else f"stochmann.{m}", 0.0)
                for m in IMPORT_MODULES}


def timed_children(children, spec, seconds, at_least):
    """Children one after another until the next would overrun seconds."""
    results, failures = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        result, reason = children.run(spec)
        took = time.monotonic() - t
        if result is None:
            failures.append(reason)
            break
        results.append(result)
        elapsed = time.monotonic() - start
        if len(results) >= at_least and elapsed + took > seconds:
            break
        if time.monotonic() + took > children.deadline:
            break
    return results, failures


def check_ops(workload, seed, ops):
    """Fail ops whose outputs differ from the first op's, or whose simulation
    digest differs from its pin; returns notes for the report."""
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    pin = pins.get(workload) if seed == DEFAULT_SEED else None
    notes = ["default seed: simulation digests checked against pins.json"] \
        if pin is not None else []
    checked = [op for op in ops if "digest" in op]
    for op in checked:
        errors = []
        if op["digest"] != checked[0]["digest"]:
            errors.append("outputs differ from the first run of this seed")
        # confidence pins its centre per n_alpha, which certificate fixes move
        want = pin.get(str(op["n_alpha"])) if isinstance(pin, dict) else pin
        if isinstance(pin, dict) and want is None:
            notes.append(f"pin: n_alpha {op['n_alpha']} is not pinned "
                         f"(pinned: {sorted(pin)}); certificate changed?")
        elif want is not None and op["sim_digest"] != want:
            errors.append(f"simulation digest {op['sim_digest']} != pinned "
                          f"{want}")
        if errors:
            op["failed"] = op["attempted"]
            op["errors"] += errors
    return notes


def self_times(spans):
    """Each layer's self time in ms: span time not covered by child spans."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = dict.fromkeys((f"{layer}.self_ms" for layer in LAYERS), 0.0)
    for s in spans:
        key = s["name"].split(".")[0] + ".self_ms"
        out[key] = out.get(key, 0.0) + 1e3 * (s["end"] - s["start"]
                                              - covered[s["id"]])
    return out


def llc_bytes():
    for name in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            value = subprocess.run(["getconf", name], capture_output=True,
                                   text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return None
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


def describe(label, values, unit):
    return (f"{label:<22} {statistics.median(values):.6g} {unit}  median of "
            f"{len(values)} (min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "stochmann" / "__init__.py").is_file():
        print(f"no stochmann package under {root / 'src'}; run from the root "
              f"of a stochmann checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # On SIGTERM, unwind: subprocess.run then kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, root, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_metrics(children, spec, ops, wall, notes, problems):
    """Per-layer metrics from one traced child; None when it failed."""
    traced, reason = children.run(dict(spec, traced=True))
    if traced is None:
        problems.append(reason)
        return None, None
    cli_digest = next((op["sim_digest"] for op in ops if "sim_digest" in op),
                      None)
    if traced["sim_digest"] not in (None, cli_digest):
        problems.append(f"traced rebuild digest {traced['sim_digest']} != "
                        f"CLI digest {cli_digest}")
    problems += traced["spot_check"]
    if "spot_check_replicas" in traced:
        notes.append("batched-vs-serial spot check on replicas "
                     f"{traced['spot_check_replicas']}: "
                     f"{'FAIL' if traced['spot_check'] else 'ok'}")
    values = dict(traced["probes"], **traced["counts"])
    values.update(self_times(traced["spans"]))
    values["trace.overhead_ms"] = 1e3 * (traced["traced_s"] - wall)
    values.update(children.import_times())
    print(f"  traced rebuild {traced['traced_s']:.6g} s against untraced "
          f"median {wall:.6g} s")
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in PER_LAYER_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:.6g} {m['unit']}")
    return metrics, traced["spans"]


def measure(args, root, work, deadline):
    spec = prepare(args.workload, args.seed, work, root)
    spec.update(out=str(work / "out"), budget_s=args.seconds / 4)
    children = Children(root, work, deadline)
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print(f"  why: {WORKLOADS[args.workload]}")
    if args.trace:
        results, problems = timed_children(children, spec, 0.0,
                                           TRACE_UNTRACED)
    else:
        results, problems = timed_children(children, spec, args.seconds,
                                           MIN_CHILDREN)
    ops = [op for r in results for op in r["ops"]]
    notes = check_ops(args.workload, args.seed, ops)
    attempted = sum(op["attempted"] for op in ops) + len(problems)
    failed = sum(op["failed"] for op in ops) + len(problems)
    problems += [e for op in ops for e in op.get("errors", [])]
    # Time every operation that ran to completion, failed output check or not.
    done = [op for op in ops if "digest" in op]
    walls = [op["wall_s"] for op in done]
    refs = [op["ref_s"] for op in done]
    setups = [r["setup_s"] for r in results]
    rss = [r["rss_mb"] for r in results]
    if not walls:
        for problem in problems:
            print(f"  FAIL {problem}", file=sys.stderr)
        print("no operation ran to completion; no result", file=sys.stderr)
        return 1
    env = dict(results[0]["env"], llc_bytes=llc_bytes())
    print("  env " + json.dumps(env, sort_keys=True))
    detail = {"workload": args.workload, "seed": args.seed, "env": env,
              "wall_s": walls, "ref_s": refs, "setup_s": setups,
              "peak_rss_mb": rss}
    wall = statistics.median(walls)
    if args.trace:
        before = len(problems)
        metrics, spans = traced_metrics(children, spec, ops, wall, notes,
                                        problems)
        attempted += 1
        failed += len(problems) > before
        detail.update(spans=spans, per_layer=metrics)
    else:
        # Operation time over the reference time around it, pooled over
        # the run: steadier than a median of per-operation ratios.
        metrics = {"wall_ref": sum(walls) / sum(refs),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(rss)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
        print("  " + describe("wall_s", walls, "s"))
        print("  " + describe("reference kernel", refs, "s"))
        print("  " + describe("setup_s", setups, "s"))
        print("  " + describe("peak_rss_mb", rss, "MB"))
        if spec["kind"] == "sweep":
            name, count = "certificates_per_s", len(spec["sweep"]["grid"])
        else:
            name = "replica_steps_per_s"
            steps = spec["horizon"] or next(op["n_alpha"] for op in ops
                                            if "n_alpha" in op)
            count = spec["replicas"] * steps
        print(f"  {name:<22} {count / wall:.6g} 1/s  ({count} per "
              f"operation, computed)")
    print(f"  {'error_rate':<22} {failed / attempted:.6g}  ({failed} failed "
          f"of {attempted} attempted)")
    for note in dict.fromkeys(notes):
        print(f"  {note}")
    for problem in problems:
        print(f"  FAIL {problem}")
    detail.update(attempted=attempted, failed=failed, problems=problems)
    out = HERE / ".work" / (f"{args.workload}_seed{args.seed}_trace"
                            f"{args.trace}.json")
    out.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if metrics is None:
        print("traced run failed; no result", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
