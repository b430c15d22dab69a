import numpy as np
import pytest

from qdecay.matcore import DensityStack
from qdecay.rng import Rng


@pytest.fixture
def rng():
    return Rng(20240817)


def random_unitary(rng, d):
    """Haar-ish unitary from the QR of a Gaussian matrix."""
    g = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            g[i, j] = rng.normal() + 1j * rng.normal()
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def stack_of(states):
    """The DensityStack of states built one by one, their arrays stacked bit for bit,
    to compare a call on a stack with one call per state."""
    return DensityStack(*(np.stack([getattr(s, f) for s in states])
                          for f in ("matrix", "eigenvalues", "eigenvectors")))
