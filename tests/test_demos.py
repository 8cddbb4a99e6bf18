import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 3
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for demo in demos:
        result = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, (demo.name, result.stderr)
