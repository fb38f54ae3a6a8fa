import threading

import pytest


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started = []
    start = threading.Thread.start

    def spy(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started
