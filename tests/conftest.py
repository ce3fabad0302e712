import numpy as np
import pytest

from chanbound.harness.generators import Generators
from chanbound.qstate import SystemLayout


@pytest.fixture
def gen():
    return Generators(np.random.default_rng(20260809))


@pytest.fixture
def qubit_pair():
    return SystemLayout([("A", 2), ("B", 2)])


def random_hermitian(rng, d, scale=1.0):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (m + m.conj().T) / 2.0


def parent_entropy_sum(weights) -> float:
    """sum eta(w) as `von_neumann_entropy` once computed it: clip at 0, eta's where-expression, np.sum."""
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    return float(np.sum(np.where(w > 1e-12, -w * np.log(np.where(w > 0, w, 1.0)), 0.0)))
