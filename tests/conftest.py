"""Suite-wide settings: a time bound on every test."""

import signal

import pytest

# Far above the slowest test (about 5 s on a 2-core machine), so a slow but
# correct test never fails; a loop that never ends fails its test instead of
# hanging the suite.
TEST_SECONDS = 120


class TimeBoundExceeded(BaseException):
    """A test ran past TEST_SECONDS.  A BaseException, so that neither the
    test nor hypothesis catches it and replays the example that looped."""


def _expire(signum, frame):
    raise TimeBoundExceeded(f"test ran longer than {TEST_SECONDS} s")


@pytest.fixture(autouse=True)
def time_bound():
    """Bound each test by SIGALRM; where there is no SIGALRM the test runs
    unbounded."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
