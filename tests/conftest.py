"""Fixtures shared by the test modules."""

import os
import threading
from pathlib import Path

import pytest

import hyperband


@pytest.fixture
def thread_starts(monkeypatch):
    """Every `threading.Thread` started while the test runs, in start order."""
    started = []
    real_start = threading.Thread.start

    def counting(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


@pytest.fixture(scope="session")
def subprocess_env() -> dict[str, str]:
    """This environment with the package's source directory first on PYTHONPATH, output block-buffered."""
    src = str(Path(hyperband.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env
