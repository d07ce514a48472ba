import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    src = str(REPO_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=REPO_ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
