import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_envelope_demo_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # one replica takes advance's float path, ten its array path
    for replicas in ("10", "1"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "envelope_demo.py"),
             "--replicas", replicas, "--horizon", "100"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "VIOLATION" not in proc.stdout
