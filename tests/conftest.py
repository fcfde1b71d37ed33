"""Fixtures shared by the test modules."""

import threading

import pytest


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
