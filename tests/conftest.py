"""Shared test set-up.

The CLI tests run ``python -m xxchain`` in subprocesses. Put this
checkout's ``src/`` first on their ``PYTHONPATH``, so the subprocesses run
the same code the tests import.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    entry for entry in (_SRC, os.environ.get("PYTHONPATH")) if entry
)
