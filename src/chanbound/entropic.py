"""Entropies, mutual informations, the Holevo quantity, and scalar helpers.

All entropic quantities are in nats (natural logarithm throughout); unit
conversion to bits happens only in report formatting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import (
    DensityMatrix,
    QStateError,
    SystemLayout,
    eigh,
    partial_trace,
    purify,
)

#: eigvalsh's rounding noise floor: `von_neumann_entropy` counts eigenvalues at or below it as 0.
ETA_ZERO_CUTOFF = 1e-12

#: Support-membership threshold for relative entropy.
SUPPORT_TOL = 1e-10

_TINY = np.finfo(float).tiny


def eta(x):
    """eta(x) = -x log x for x > 0, and 0 for x <= 0; on a float, or elementwise on an array."""
    arr = np.asarray(x, dtype=float)
    pos = arr > 0
    out = np.zeros(arr.shape)
    kept = arr[pos]
    out[pos] = -kept * np.log(kept)
    return float(out) if arr.ndim == 0 else out


def h2(p):
    """Binary entropy eta(p) + eta(1 - p) in nats, as eta(p) - (1 - p) log1p(-p): 1 - p rounds as p -> 0,
    log1p(-p) does not.  The second term is 0 at p >= 1, as eta(1 - p) is."""
    arr = np.asarray(p, dtype=float)
    q = 1.0 - arr
    out = eta(arr) - q * np.log1p(-np.where(q > 0, arr, 0.0))
    return float(out) if arr.ndim == 0 else out


def g(x):
    """g(x) = (x + 1) log(x + 1) - x log x = log1p(x) + x log1p(1/x), g(0) = 0; negative x raises ValueError.
    1/x is taken at x >= the smallest normal float, where it cannot overflow: g(5e-324) is finite."""
    arr = np.asarray(x, dtype=float)
    if (arr < 0).any():
        raise ValueError(f"g is defined on [0, +inf); got {x}")
    out = np.log1p(arr) + arr * np.log1p(1.0 / np.maximum(arr, _TINY))
    return float(out) if arr.ndim == 0 else out


def entropy_of_spectrum(weights) -> np.ndarray:
    """Sum of eta(w) along the last axis, in nats: the one eta-sum here, exact, with no floor.
    Its sum runs over the whole row, zeros kept, so each row of a block has the bits of that row alone.
    An all-zero row is +0.0: a sum begun at its first term would keep (-1) log 1 = -0.0, printed -0.
    """
    return eta(weights).sum(axis=-1) + 0.0


def von_neumann_entropy(rho) -> float:
    """H(rho) = sum eta(lambda_i) over a DensityMatrix's validated spectrum, else eigvalsh's, in nats;
    eigenvalues at or below `ETA_ZERO_CUTOFF`, eigvalsh's rounding noise about 0, count as 0."""
    w = rho.spectrum if isinstance(rho, DensityMatrix) else np.linalg.eigvalsh(rho)
    if w[0] <= ETA_ZERO_CUTOFF:  # eigvalsh sorts ascending, so most spectra need no floor
        w = w * (w > ETA_ZERO_CUTOFF)
    return float(entropy_of_spectrum(w))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """H(rho || sigma); +inf when supp rho is not contained in supp sigma."""
    if rho.layout != sigma.layout:
        raise QStateError("relative entropy requires matching layouts")
    w_s, u_s = eigh(sigma)
    kernel = u_s[:, w_s < SUPPORT_TOL]
    if np.real(np.einsum("ij,jk,ki->", kernel.conj().T, rho.entries, kernel)) > SUPPORT_TOL:
        return math.inf
    mask = w_s >= SUPPORT_TOL
    diag = np.real(np.einsum("ij,jk,ki->i", u_s[:, mask].conj().T, rho.entries, u_s[:, mask]))
    return -von_neumann_entropy(rho) - float(np.sum(diag * np.log(w_s[mask])))


def _check_partition(layout: SystemLayout, parts: Sequence[Sequence[str]]):
    flat: list[str] = [lbl for part in parts for lbl in part]
    if len(set(flat)) != len(flat):
        raise QStateError("partition blocks must be disjoint")
    if set(flat) != set(layout.labels):
        raise QStateError(
            f"partition {parts} does not cover layout labels {layout.labels}"
        )


def mutual_information(rho: DensityMatrix, part_a: Sequence[str], part_b: Sequence[str]) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) in nats."""
    _check_partition(rho.layout, (part_a, part_b))
    h_a = von_neumann_entropy(partial_trace(rho, part_a))
    h_b = von_neumann_entropy(partial_trace(rho, part_b))
    return h_a + h_b - von_neumann_entropy(rho)


def conditional_mutual_information(
    rho: DensityMatrix,
    part_a: Sequence[str],
    part_b: Sequence[str],
    part_c: Sequence[str] = (),
) -> float:
    """I(A:B|C) = H(AC) + H(BC) - H(ABC) - H(C); empty C reduces to I(A:B)."""
    _check_partition(rho.layout, (part_a, part_b, part_c))
    if not part_c:
        return mutual_information(rho, part_a, part_b)
    h_ac = von_neumann_entropy(partial_trace(rho, tuple(part_a) + tuple(part_c)))
    h_bc = von_neumann_entropy(partial_trace(rho, tuple(part_b) + tuple(part_c)))
    h_c = von_neumann_entropy(partial_trace(rho, part_c))
    return h_ac + h_bc - von_neumann_entropy(rho) - h_c


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite list of (probability, state) pairs on one shared layout."""

    items: tuple[tuple[float, DensityMatrix], ...]

    def __init__(self, items):
        normalized = tuple((float(p), state) for p, state in items)
        if not normalized:
            raise QStateError("ensemble needs at least one item")
        total = sum(p for p, _ in normalized)
        if not abs(total - 1.0) <= 1e-10:
            raise QStateError(f"probabilities sum to {total}, not 1")
        layout = normalized[0][1].layout
        for p, state in normalized:
            if not p >= -1e-12:
                raise QStateError(f"negative probability {p}")
            if state.layout != layout:
                raise QStateError("all ensemble states must share one layout")
        object.__setattr__(self, "items", normalized)

    @property
    def layout(self) -> SystemLayout:
        return self.items[0][1].layout

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.items])

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        return tuple(state for _, state in self.items)

    def __len__(self) -> int:
        return len(self.items)

    def average_entries(self) -> np.ndarray:
        """The raw sum of p_i rho_i; exactly Hermitian, since every rho_i is."""
        return sum(p * state.entries for p, state in self.items)

    def average_state(self) -> DensityMatrix:
        return DensityMatrix(self.layout, self.average_entries())


def holevo_quantity(ens: Ensemble) -> float:
    """chi = H(avg) - sum p_i H(rho_i), in nats."""
    avg = von_neumann_entropy(ens.average_state())
    return avg - float(sum(p * von_neumann_entropy(state) for p, state in ens.items))


def qc_state(ens: Ensemble, class_label: str) -> DensityMatrix:
    """Block-diagonal state sum_i p_i rho_i (x) |i><i| on layout + class register."""
    if ens.layout.has(class_label):
        raise QStateError(f"class label {class_label!r} already in ensemble layout")
    m = len(ens)
    d = ens.layout.total_dim
    out = np.zeros((d * m, d * m), dtype=np.complex128)
    for i, (p, state) in enumerate(ens.items):
        block = p * state.entries
        # class register is the fastest (last) index
        out[i :: m, i :: m] = block
    layout = SystemLayout(ens.layout.factors + ((class_label, m),))
    return DensityMatrix(layout, out)


def coherent_information(channel, rho: DensityMatrix) -> float:
    """I_c(Phi, rho) = H(Phi(rho)) - H(complement(rho)), in nats."""
    from .channels import apply, complementary

    return von_neumann_entropy(apply(channel, rho)) - von_neumann_entropy(
        apply(complementary(channel), rho)
    )


def channel_mutual_information(channel, rho: DensityMatrix, ref_label: str = "R") -> float:
    """I(Phi, rho) = I(B:R) on Phi (x) Id applied to a purification of rho."""
    from .channels import apply

    psi = purify(rho, ref_label)
    out = apply(channel, psi)
    part_r = (ref_label,)
    part_b = tuple(lbl for lbl in out.layout.labels if lbl != ref_label)
    return mutual_information(out, part_b, part_r)
