"""A fixed reference computation that measures how fast the host runs right now.

The benchmark's host is a share of a machine whose speed drifts with its
other load: the same inputs run up to 2x slower, in bursts of seconds and
in phases of minutes.
``reference_s`` times a fixed piece of work shaped like the see-saw's inner
loop (small complex SVDs and Hermitian eigendecompositions, matrix
products, scalar Python arithmetic) that uses numpy only, never chanbound,
so no change to the library can move it.  run.py samples it between the
steps of every repeat and scales the campaign time by
``REFERENCE_NOMINAL_S / mean sample``: host drift cancels, and a change
to the library does not.
"""

from __future__ import annotations

import time

import numpy as np

# Bound here, at import, so that the traced run's wrappers on numpy.linalg
# neither count nor slow the reference work.
from numpy.linalg import eigh, eigvalsh, svd

# Mean reference_s() on the 2-core Xeon host (OpenBLAS, 1 thread) where
# the benchmark was written, at a quiet time; only the unit of campaign_s
# and setup_s rests on it.
REFERENCE_NOMINAL_S = 0.025

_rng = np.random.default_rng(20161027)
_SMALL = _rng.standard_normal((24, 4, 4)) + 1j * _rng.standard_normal((24, 4, 4))
_MID = _rng.standard_normal((6, 16, 16)) + 1j * _rng.standard_normal((6, 16, 16))
_MID = _MID + _MID.conj().transpose(0, 2, 1)
_BIG = _rng.standard_normal((64, 64))
_BIG = _BIG + _BIG.T


def _work() -> float:
    acc = 0.0
    for m in _SMALL:
        acc += float(svd(m @ m.conj().T + m, compute_uv=False).sum())
    for h in _MID:
        w, u = eigh(h)
        acc += float(np.abs((u * w) @ u.conj().T).sum())
    acc += float(eigvalsh(_BIG)[-1])
    x = 0.5
    for i in range(1500):
        x = (x * 1.0000001 + i * 1e-9) % 3.0
    return acc + x


def reference_s(rounds: int = 24) -> float:
    """Wall seconds of `rounds` passes of the reference work."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        _work()
    return time.perf_counter() - t0
