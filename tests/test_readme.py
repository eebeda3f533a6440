"""The README's examples run against the package: the library example gives
the values its comments state, so a removed or renamed public name fails here
too, and the console example prints the lines it shows."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from onlinepred.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]

# the values the example's comments state
STATED = """
assert day == 50, day
assert sampled == 117.0, sampled
assert np.all(np.abs(result.completions - [4 / 3, 3.0]) <= 1e-12), result.completions
assert completions.shape == (2, 2), completions.shape
assert np.all(np.abs(objectives(completions) - [5.0, 16 / 3]) <= 1e-12), completions
assert reports[0].algorithm == "break-even", reports[0].algorithm
assert days.demand.tolist() == [2, 2, 1, 0] and not days.demand.flags.writeable, days.demand
assert level_opt == 5, level_opt
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


def test_trace_ski_console_example_prints_what_it_shows(capsys):
    """Every shown line appears in order; a '...' line stands for any run of lines."""
    blocks = re.findall(
        r"```\n\$ onlinepred (trace ski .*?)\n(.*?)```", (ROOT / "README.md").read_text(), re.S
    )
    assert len(blocks) == 1
    command, shown = blocks[0]
    assert main(shlex.split(command)) == EXIT_OK
    out = capsys.readouterr().out
    pattern = "".join(
        r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown.splitlines()
    )
    assert re.fullmatch(pattern, out), out
