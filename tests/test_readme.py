"""The README's library example runs against the package and gives the values
its comments state, so a removed or renamed public name fails here too."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the values the example's comments state
STATED = """
assert day == 50, day
assert np.all(np.abs(result.completions - [4 / 3, 3.0]) <= 1e-12), result.completions
assert reports[0].algorithm == "break-even", reports[0].algorithm
"""


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", blocks[0] + STATED],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
