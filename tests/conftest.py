"""Shared test set-up.

The CLI tests run ``python -m xxchain`` in subprocesses. Put this
checkout's ``src/`` first on their ``PYTHONPATH``, so the subprocesses run
the same code the tests import.

The ``lockstep`` fixture sends every ``fidelity_critical_temp_grid`` call of
a test down the path on which all lanes step together, which the grid
otherwise takes only past its lane limit.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    entry for entry in (_SRC, os.environ.get("PYTHONPATH")) if entry
)


@pytest.fixture
def lockstep(monkeypatch):
    from xxchain import teleportation

    monkeypatch.setattr(teleportation, "_LANE_LIMIT", -1)
