"""Fixtures shared by the test modules."""

import os
import sys
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
    """Make every way of building a ``TreeBall`` or reading a view off one
    raise, for the paths that must not build one: ``build_ball`` and
    ``TreeBall.__init__``, ``acceptance._ball`` and ``acceptance.edge_pair``,
    and ``vertices_at_distance``, ``vertex_ball_levels`` and
    ``subtree_levels`` under every name the package binds them to."""
    import nbtree.cli  # noqa: F401  (loads every module of the package)
    from nbtree import tree_core

    def refuse(*_args, **_kwargs):
        raise AssertionError("built a TreeBall or read a view off one")

    names = ("build_ball", "_ball", "edge_pair", "vertices_at_distance", "vertex_ball_levels",
             "subtree_levels")
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "nbtree":
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(tree_core.TreeBall, "__init__", refuse)
