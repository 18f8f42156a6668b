"""Shared test fixtures."""

import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """Context manager failing a block that still runs after ``seconds``.

    A regression that loops forever then fails its test instead of hanging
    the suite.
    """

    @contextlib.contextmanager
    def within(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
