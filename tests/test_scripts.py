import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# stdout digests with the "(x.xs)" timing lines removed
REPRODUCE_TABLES_FAST = \
    "39fe56bee993f90f3cf7741eb8c7e81dae2d0611442a63055bf3530973c6f587"
ENVELOPE_DEMO_R20_H200 = \
    "45483391e72415df03b664675fb6737796c4bcc1747fc78b33fb712f86b32802"


def run_python(*args):
    """stdout of python *args run from the repository root with src/ on
    the path; the run must succeed, and a warning fails it."""
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def untimed_digest(stdout):
    kept = [line for line in stdout.splitlines(keepends=True)
            if not re.fullmatch(r"\(\d+\.\ds\)\n?", line)]
    return hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()


def test_envelope_demo_smoke():
    # where mann_tile runs, one replica steps the line path and the others
    # a batch; without it one replica takes the float path
    for replicas, horizon, digest in (("10", "100", None), ("1", "100", None),
                                      ("20", "200", ENVELOPE_DEMO_R20_H200)):
        stdout = run_script("envelope_demo.py", "--replicas", replicas,
                            "--horizon", horizon)
        assert "VIOLATION" not in stdout
        if digest is not None:
            assert untimed_digest(stdout) == digest


def test_reproduce_tables_fast_digest():
    stdout = run_script("reproduce_tables.py", "--fast")
    assert "VIOLATION" not in stdout
    assert untimed_digest(stdout) == REPRODUCE_TABLES_FAST


def test_kernel_benchmarks_run():
    # benchmarks/ is outside the tier-1 testpaths; this runs each of its
    # timings once, untimed, so a renamed or removed entry point shows here
    pytest.importorskip("pytest_benchmark")
    run_python("-m", "pytest", "benchmarks/test_kernels.py",
               "--benchmark-disable", "-q", "-p", "no:cacheprovider")


# `wc -l src/stochmann/*.py src/stochmann/*.c scripts/*.py`: a change that
# grows the package, its compiled tile or its scripts raises this pin in the
# same diff and says why
LINE_BUDGET = 3636


def test_source_stays_within_its_line_budget():
    files = [*(ROOT / "src" / "stochmann").glob("*.py"),
             *(ROOT / "src" / "stochmann").glob("*.c"),
             *(ROOT / "scripts").glob("*.py")]
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    assert lines <= LINE_BUDGET, f"{lines} lines > {LINE_BUDGET}"
