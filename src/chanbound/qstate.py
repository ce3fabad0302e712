"""Dense complex linear algebra over labeled multipartite Hilbert spaces.

States and operators carry a :class:`SystemLayout` naming their tensor
factors.  All values are immutable after construction and every operation
is a pure function, so concurrent use is safe.  The one value filled in
after construction, a density matrix's spectrum, is computed on first read
by a deterministic call; racing first reads store equal arrays.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
TRACE_TOL = 1e-10
PURE_NORM_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-9

#: Dense storage only; verification systems are small by design.
MAX_TOTAL_DIM = 4096

#: Below this dimension a density matrix's PSD check is its eigvalsh, as
#: eigvalsh costs at most 4x a Cholesky factorisation there and nearly every
#: small state (a marginal) has its spectrum read for an entropy anyway.
CHOLESKY_MIN_DIM = 32

_AXIS_LETTERS = string.ascii_lowercase + string.ascii_uppercase


class QStateError(ValueError):
    """A state, operator, or layout violates its contract."""


@dataclass(frozen=True)
class SystemLayout:
    """Ordered tensor factors, each a (label, dimension) pair.

    The factor order fixes the basis convention: indices are lexicographic
    with the first factor slowest, and partial traces keep the surviving
    factors in layout order.
    """

    factors: tuple[tuple[str, int], ...]
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_dim: int = field(init=False, repr=False, compare=False)

    def __init__(self, factors: Iterable[tuple[str, int]]):
        normalized = tuple((str(lbl), int(dim)) for lbl, dim in factors)
        if not normalized:
            raise QStateError("layout needs at least one factor")
        labels = [lbl for lbl, _ in normalized]
        if len(set(labels)) != len(labels):
            raise QStateError(f"duplicate labels in layout: {labels}")
        for lbl, dim in normalized:
            if dim < 1:
                raise QStateError(f"factor {lbl!r} has dimension {dim} < 1")
        total = 1
        for _, dim in normalized:
            total *= dim
        if total > MAX_TOTAL_DIM:
            raise QStateError(
                f"total dimension {total} exceeds dense-simulation guard {MAX_TOTAL_DIM}"
            )
        object.__setattr__(self, "factors", normalized)
        object.__setattr__(self, "dims", tuple(dim for _, dim in normalized))
        object.__setattr__(self, "total_dim", total)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.factors)

    def dim(self, label: str) -> int:
        return self.factors[self.position(label)][1]

    def position(self, label: str) -> int:
        for i, (lbl, _) in enumerate(self.factors):
            if lbl == label:
                return i
        raise QStateError(f"unknown label {label!r}; layout has {self.labels}")

    def has(self, label: str) -> bool:
        return any(lbl == label for lbl, _ in self.factors)

    def restricted(self, keep: Sequence[str]) -> "SystemLayout":
        keep_set = set(keep)
        unknown = keep_set - set(self.labels)
        if unknown:
            raise QStateError(f"unknown labels {sorted(unknown)}; layout has {self.labels}")
        return SystemLayout([f for f in self.factors if f[0] in keep_set])

    def replace(self, label: str, new_factors: Sequence[tuple[str, int]]) -> "SystemLayout":
        """New layout with `label` swapped for `new_factors` in place."""
        pos = self.position(label)
        factors = list(self.factors)
        factors[pos : pos + 1] = list(new_factors)
        return SystemLayout(factors)


def single_factor(label: str, dim: int) -> SystemLayout:
    return SystemLayout([(label, dim)])


def _as_square_complex(entries: np.ndarray, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.shape != (dim, dim):
        raise QStateError(f"{what} has shape {arr.shape}, expected ({dim}, {dim})")
    return arr


def _check_and_symmetrize(entries: np.ndarray, what: str) -> np.ndarray:
    """Read-only Hermitian part of `entries`, which must be finite and Hermitian to 1e-8.

    Exactly Hermitian input, such as the entries of a state built before,
    is copied as it is; that equals its symmetrisation up to the sign of a
    zero, as (x + x) / 2 == x.  An inf or NaN entry makes a difference
    entry inf or NaN (inf - inf is NaN), so it takes the checked path and
    fails there.
    """
    adjoint = entries.conj().T
    diff = entries - adjoint
    if not diff.any():
        sym = entries.copy()
    else:
        dev = np.max(np.abs(diff))
        if not dev <= 1e-8:
            raise QStateError(f"{what} is not finite and Hermitian: max deviation {dev:.3e}")
        sym = (entries + adjoint) / 2.0
    sym.setflags(write=False)
    return sym


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian operator on a labeled space; symmetrized on construction."""

    layout: SystemLayout
    entries: np.ndarray

    def __post_init__(self):
        arr = _as_square_complex(self.entries, self.layout.total_dim, "operator")
        object.__setattr__(self, "entries", _check_and_symmetrize(arr, "operator"))

    @staticmethod
    def difference(a: "DensityMatrix", b: "DensityMatrix") -> "HermitianOperator":
        if a.layout != b.layout:
            raise QStateError("difference requires matching layouts")
        return HermitianOperator(a.layout, a.entries - b.entries)

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


def _cholesky_margin(d: int) -> float:
    """Rounding allowance m of the shifted Cholesky test on a trace-one d x d state.

    Once λ_min > EIGENVALUE_FLOOR, the trace bounds both Tr(ρ + shift) and
    ‖ρ‖₂ by `scale`.  A successful factorisation of the computed ρ + s·I is
    exact for a perturbation of 2-norm at most γ_{d+1}·Tr(RᴴR) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Thm 10.3, as
    ‖|Rᴴ||R|‖₂ ≤ Tr(RᴴR)); 4(d + 1)·u covers γ_{d+1} in complex arithmetic.
    eigvalsh's own error is allowed 8·d²·u·‖ρ‖₂, a worst-case d² growth for
    its Householder reduction with a safety factor of 8.
    """
    unit_roundoff = np.finfo(np.float64).eps / 2
    scale = 1.0 + TRACE_TOL + (d + 1) * -EIGENVALUE_FLOOR
    return unit_roundoff * scale * (4.0 * (d + 1) + 8.0 * d * d)


def _certainly_above_floor(sym: np.ndarray) -> bool:
    """True only if eigvalsh(sym)[0] would not fall below EIGENVALUE_FLOOR.

    Factors a copy of sym + (-EIGENVALUE_FLOOR - m)·I with
    `np.linalg.cholesky`.  Success proves λ_min(sym) ≥ EIGENVALUE_FLOOR + m
    - (Cholesky's error), which leaves eigvalsh's error inside the floor.
    False means "undecided": the factorisation failed, or m is too large
    for d.
    """
    d = sym.shape[0]
    shift = -EIGENVALUE_FLOOR - _cholesky_margin(d)
    if shift <= 0.0:
        return False
    shifted = sym.copy()
    shifted.flat[:: d + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator over a labeled layout.

    Construction checks finite entries, Hermiticity to 1e-8, the trace to
    TRACE_TOL and λ_min ≥ EIGENVALUE_FLOOR.  From CHOLESKY_MIN_DIM up, the last check is
    a shifted Cholesky factorisation that accepts only states eigvalsh
    would accept.  Below that dimension, near the floor, or where the
    margin is too large for d, eigvalsh decides and its spectrum is kept.
    `spectrum` holds the ascending eigenvalues of `entries`, read-only,
    computed on first read by `np.linalg.eigvalsh` and cached.
    """

    layout: SystemLayout
    entries: np.ndarray

    def __post_init__(self):
        arr = _as_square_complex(self.entries, self.layout.total_dim, "density matrix")
        sym = _check_and_symmetrize(arr, "density matrix")
        tr = np.trace(sym).real
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise QStateError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        object.__setattr__(self, "entries", sym)
        if len(sym) < CHOLESKY_MIN_DIM or not _certainly_above_floor(sym):
            lo = float(self.spectrum[0])
            if not lo >= EIGENVALUE_FLOOR:
                raise QStateError(f"negative eigenvalue {lo:.3e} below floor {EIGENVALUE_FLOOR}")

    @cached_property
    def spectrum(self) -> np.ndarray:
        spectrum = np.linalg.eigvalsh(self.entries)
        spectrum.setflags(write=False)
        return spectrum

    def as_hermitian(self) -> HermitianOperator:
        return HermitianOperator(self.layout, self.entries)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over a labeled layout."""

    layout: SystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if vec.shape != (self.layout.total_dim,):
            raise QStateError(
                f"amplitude vector has length {vec.size}, expected {self.layout.total_dim}"
            )
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= PURE_NORM_TOL:
            raise QStateError(f"norm {norm} deviates from 1 beyond {PURE_NORM_TOL}")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))

    def marginal(self, keep: Sequence[str]) -> DensityMatrix:
        return partial_trace(self.to_density(), keep)


def maximally_mixed(layout: SystemLayout) -> DensityMatrix:
    d = layout.total_dim
    return DensityMatrix(layout, np.eye(d) / d)


def basis_pure(layout: SystemLayout, index: int) -> PureState:
    vec = np.zeros(layout.total_dim, dtype=np.complex128)
    vec[index] = 1.0
    return PureState(layout, vec)


def tensor_product(a, b):
    """Kronecker product with concatenated layouts; labels must be disjoint."""
    if type(a) is not type(b):
        raise QStateError("tensor_product requires two values of the same kind")
    overlap = set(a.layout.labels) & set(b.layout.labels)
    if overlap:
        raise QStateError(f"labels {sorted(overlap)} appear on both sides")
    layout = SystemLayout(a.layout.factors + b.layout.factors)
    if isinstance(a, PureState):
        return PureState(layout, np.kron(a.amplitudes, b.amplitudes))
    return type(a)(layout, np.kron(a.entries, b.entries))


def _partial_trace_entries(
    entries: np.ndarray, layout: SystemLayout, keep: Sequence[str]
) -> tuple[np.ndarray, SystemLayout]:
    keep_set = set(keep)
    if not keep_set:
        raise QStateError("keep set must be non-empty")
    unknown = keep_set - set(layout.labels)
    if unknown:
        raise QStateError(f"unknown labels {sorted(unknown)}; layout has {layout.labels}")
    dims = layout.dims
    n = len(dims)
    if 2 * n > len(_AXIS_LETTERS):
        raise QStateError("too many tensor factors for einsum contraction")
    keep_idx = [i for i, (lbl, _) in enumerate(layout.factors) if lbl in keep_set]
    row = [_AXIS_LETTERS[i] for i in range(n)]
    col = [_AXIS_LETTERS[n + i] if i in keep_idx else _AXIS_LETTERS[i] for i in range(n)]
    out = [_AXIS_LETTERS[i] for i in keep_idx] + [_AXIS_LETTERS[n + i] for i in keep_idx]
    spec = "".join(row) + "".join(col) + "->" + "".join(out)
    tensor = entries.reshape(dims + dims)
    reduced_layout = layout.restricted(sorted(keep_set, key=layout.position))
    d = reduced_layout.total_dim
    reduced = np.einsum(spec, tensor).reshape(d, d)
    return reduced, reduced_layout


def partial_trace(rho: DensityMatrix, keep: Sequence[str]) -> DensityMatrix:
    """Trace out every factor not named in `keep`; trace is preserved."""
    if set(keep) == set(rho.layout.labels):
        return rho
    entries, layout = _partial_trace_entries(rho.entries, rho.layout, keep)
    return DensityMatrix(layout, entries)


def partial_trace_hermitian(op: HermitianOperator, keep: Sequence[str]) -> HermitianOperator:
    entries, layout = _partial_trace_entries(op.entries, op.layout, keep)
    return HermitianOperator(layout, entries)


def _entries_of(op) -> np.ndarray:
    if isinstance(op, (DensityMatrix, HermitianOperator)):
        return op.entries
    return np.asarray(op, dtype=np.complex128)


def eigh(op) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian operator.

    The reconstruction U diag(w) U* is verified to within 1e-9 in Frobenius
    norm, which bounds the operator norm from above and needs no SVD;
    failure of the underlying solver surfaces as QStateError.
    """
    mat = _entries_of(op)
    try:
        w, u = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise QStateError(f"eigendecomposition failed to converge: {exc}") from exc
    residual = np.linalg.norm((u * w) @ u.conj().T - mat)
    if residual > RECONSTRUCTION_TOL:
        raise QStateError(f"eigendecomposition Frobenius residual {residual:.3e} above 1e-9")
    return w, u


def trace_norm(op) -> float:
    """Sum of singular values: of |eigenvalues| when `op` is exactly Hermitian, which is cheaper."""
    a = _entries_of(op)
    if np.array_equal(a, a.conj().T):
        return float(np.abs(np.linalg.eigvalsh(a)).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


def operator_norm(op) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(_entries_of(op), 2))


def purify(rho: DensityMatrix, ref_label: str) -> PureState:
    """Purification over an appended reference factor of the same dimension.

    The partial trace over `ref_label` returns `rho` (up to 1e-9).
    """
    if rho.layout.has(ref_label):
        raise QStateError(f"reference label {ref_label!r} already in layout")
    w, u = eigh(rho)
    w = np.clip(w, 0.0, None)
    d = rho.layout.total_dim
    # |psi> = sum_i sqrt(w_i) |u_i> (x) |i>_ref, ref index fastest
    vec = (u * np.sqrt(w)).reshape(-1)
    vec = vec / np.linalg.norm(vec)
    layout = SystemLayout(rho.layout.factors + ((ref_label, d),))
    return PureState(layout, vec)


def jordan_parts(op: HermitianOperator) -> tuple[HermitianOperator, HermitianOperator]:
    """Positive and negative parts: op = pos - neg, both PSD, orthogonal supports."""
    w, u = eigh(op)
    pos = (u * np.clip(w, 0.0, None)) @ u.conj().T
    neg = (u * np.clip(-w, 0.0, None)) @ u.conj().T
    return HermitianOperator(op.layout, pos), HermitianOperator(op.layout, neg)
