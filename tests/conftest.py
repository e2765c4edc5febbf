"""Checks shared by every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread it started still running.

    The benchmark calls `hybridlab.cli.main` in its worker process; a thread
    left behind by a call would outlive the call and could keep that process
    alive.
    """
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before and t.is_alive()]
    if leaked:
        pytest.fail(f"test left {len(leaked)} thread(s) running: {leaked}", pytrace=False)
