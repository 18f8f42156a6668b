"""Shared test fixtures."""

import contextlib
import signal

import pytest
from hypothesis import settings

# Every run draws the same examples (seeded from each test's own hash, with no
# example database), so a result does not depend on which run met an example.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


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
