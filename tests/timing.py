"""A wall-clock limit for scale tests, so a slow path fails instead of hanging."""

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` inside the block once it runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
