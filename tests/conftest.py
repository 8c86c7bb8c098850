"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def checkout_env() -> dict:
    """The environment for a child interpreter, with this checkout's ``src``
    first on PYTHONPATH, so that the child imports the nbtree under test
    whether or not any nbtree is installed."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@pytest.fixture
def no_ball(monkeypatch):
    """Make every way of building a ``TreeBall`` raise, for the paths that
    must not build one."""
    from nbtree import acceptance, cli, tree_core

    def refuse(*_args, **_kwargs):
        raise AssertionError("built a TreeBall")

    for module, name in ((tree_core, "build_ball"), (cli, "build_ball"),
                         (acceptance, "build_ball"), (acceptance, "_ball"),
                         (tree_core.TreeBall, "__init__")):
        monkeypatch.setattr(module, name, refuse)
