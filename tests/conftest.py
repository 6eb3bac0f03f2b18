"""Session-wide test set-up."""

import shutil

import pytest

from serregraph.treewalk import CACHE_ENV


@pytest.fixture(scope="session", autouse=True)
def _table_cache_in_tmp(tmp_path_factory):
    """Point the tree-table disk cache at a directory of this session, so a
    run writes nothing under ~/.cache and leaves no tables behind."""
    path = tmp_path_factory.mktemp("table-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CACHE_ENV, str(path))
        yield path
    shutil.rmtree(path, ignore_errors=True)
