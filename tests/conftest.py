"""Session-wide test set-up."""

import os
import shutil
from pathlib import Path

import pytest

import serregraph
from serregraph.treewalk import CACHE_ENV

SRC = str(Path(serregraph.__file__).resolve().parents[1])


@pytest.fixture(scope="session", autouse=True)
def _table_cache_in_tmp(tmp_path_factory):
    """Point the tree-table disk cache at a directory of this session, so a
    run writes nothing under ~/.cache and leaves no tables behind."""
    path = tmp_path_factory.mktemp("table-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CACHE_ENV, str(path))
        yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="session", autouse=True)
def _src_on_subprocess_path():
    """Let the checks that run `python -m serregraph` in a subprocess import
    this tree, also when only pytest's own pythonpath setting put it on
    sys.path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
