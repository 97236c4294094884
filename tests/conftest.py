import os
from pathlib import Path

import pytest

import wzsim


@pytest.fixture
def package_env():
    """Environment for a child Python that imports the wzsim these tests import."""
    src = str(Path(wzsim.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
