"""Session-wide test set-up."""

import os
from pathlib import Path

import pytest

import serregraph

SRC = str(Path(serregraph.__file__).resolve().parents[1])


@pytest.fixture(scope="session", autouse=True)
def _src_on_subprocess_path():
    """Let the checks that run `python -m serregraph` in a subprocess import
    this tree, also when only pytest's own pythonpath setting put it on
    sys.path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
