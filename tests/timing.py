"""A wall-clock limit for scale tests, so a slow path fails instead of hanging."""

import gc
import signal
import time
from contextlib import contextmanager


@contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` once the block runs past ``seconds``.

    An interval timer stops a block that hangs.  A ``SIGALRM`` that lands in
    a ``gc`` callback is reported as unraisable and dropped, so the block's
    wall time is checked again when it ends.  The heap is collected and
    frozen before the timer starts, so a collection inside the block walks
    only the block's own objects.
    """
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")
    gc.collect()
    gc.freeze()
    previous = signal.signal(signal.SIGALRM, expire)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
        gc.unfreeze()
    if elapsed >= seconds:
        raise TimeoutError(f"ran {elapsed:.3f} s, past {seconds} s")
