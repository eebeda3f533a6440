"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import onlinepred


@pytest.fixture
def package_env():
    """The environment for a subprocess that must import the ``onlinepred`` under test.

    PYTHONPATH starts with the src directory of the imported package, so a
    bare ``pytest`` from a checkout works without PYTHONPATH=src.
    """
    src = str(Path(onlinepred.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + rest if rest else src}
