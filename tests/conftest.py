"""Shared test setup."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _child_processes_import_this_checkout():
    # The CLI tests run ``python -m affinitykit`` in child processes, which do not
    # see pytest's ``pythonpath`` setting; without this they need an installed package.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
