import math

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
