import os
import re
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


def test_readme_python_quick_start_runs():
    # the fenced python code in README.md runs against the package as it is
    readme = REPO_ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(readme), "exec"), {"__name__": "readme"})
