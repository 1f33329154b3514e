import math
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from qdoubling import Permutation, SfqPencil

#: A guard threshold nothing exceeds (``QdaConfig(tau=NO_GUARD)``): ``guard()``
#: returns each pencil untouched with an empty report, exactly as a run with
#: no guard.
NO_GUARD = math.inf


def complex_normal(rng, rows, cols, scale=1.0):
    return scale * (rng.standard_normal((rows, cols))
                    + 1j * rng.standard_normal((rows, cols)))


def random_sfq(rng, m, n, scale=0.4, random_q=True):
    """A well-scaled random pencil in Q-standard form."""
    q1 = Permutation(rng.permutation(m + n)) if random_q else Permutation.identity(m + n)
    q2 = Permutation(rng.permutation(m + n)) if random_q else Permutation.identity(m + n)
    return SfqPencil(
        m=m, n=n,
        E=complex_normal(rng, m, m, scale), F=complex_normal(rng, n, n, scale),
        X=complex_normal(rng, n, m, scale), Y=complex_normal(rng, m, n, scale),
        Q1=q1, Q2=q2,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def draining_helper() -> tuple[type, list]:
    """A one-thread executor stand-in, and the ids of the threads it runs on.

    Its ``submit`` runs the call to its end on a fresh thread before it
    returns, so a lane handed to it takes every piece before the caller's
    lane starts.
    """
    threads = []

    class Draining:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args, **kwargs) -> Future:
            future = Future()

            def run():
                threads.append(threading.get_ident())
                try:
                    future.set_result(fn(*args, **kwargs))
                except BaseException as exc:
                    future.set_exception(exc)

            thread = threading.Thread(target=run)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            return future

    return Draining, threads
