"""Hamiltonians, Gibbs states, max-entropy functions, and state truncation.

Hamiltonians are finite spectral objects.  The exponential-tail condition
the infinite-dimensional theory assumes is vacuous at finite truncation and
is documented rather than tested; oscillator realizations warn when the
Gibbs weight at the top level is no longer negligible.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .entropic import Ensemble, entropy_of_spectrum
from .qstate import (
    DensityMatrix,
    PureState,
    QStateError,
    SystemLayout,
    single_factor,
)

DEGENERACY_TOL = 1e-9
ENERGY_SOLVE_TOL = 1e-10

#: Gibbs weight on the top eigenvalue above which truncation is suspect.
TAIL_WARN_THRESHOLD = 1e-8


class EnergyDomainError(QStateError):
    """An energy or entropy argument is outside the feasible range."""


class TruncationTailWarning(UserWarning):
    """The Gibbs state puts non-negligible weight on the top level."""


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Finite spectral representation {E_k}, ascending, with E_0 >= 0.

    The eigenbasis defaults to computational; it only matters when the
    Hamiltonian is realized as a matrix.  `truncated` marks a finite
    realization of an infinite spectrum, enabling the Gibbs tail warning.
    """

    eigenvalues: np.ndarray
    eigenbasis: Optional[np.ndarray] = None
    truncated: bool = False

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float).reshape(-1)
        if ev.size < 1:
            raise QStateError("Hamiltonian needs at least one eigenvalue")
        if not np.all(np.isfinite(ev)):
            raise QStateError("eigenvalues must be finite")
        if np.any(np.diff(ev) < -1e-12):
            raise QStateError("eigenvalues must be nondecreasing")
        if ev[0] < -1e-12:
            raise QStateError(f"ground energy {ev[0]} must be >= 0")
        ev = np.clip(ev, 0.0, None)
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        if self.eigenbasis is not None:
            u = np.asarray(self.eigenbasis, dtype=np.complex128)
            if u.shape != (ev.size, ev.size):
                raise QStateError("eigenbasis shape does not match spectrum")
            if not np.max(np.abs(u.conj().T @ u - np.eye(ev.size))) <= 1e-10:
                raise QStateError("eigenbasis is not unitary")
            u = u.copy()
            u.setflags(write=False)
            object.__setattr__(self, "eigenbasis", u)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_multiplicity(self) -> int:
        return int(np.sum(self.eigenvalues <= self.ground_energy + DEGENERACY_TOL))

    @property
    def max_energy(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def uniform_energy(self) -> float:
        """Mean energy of the maximally mixed state."""
        return float(self.eigenvalues.mean())

    @functools.cached_property
    def gammas(self) -> np.ndarray:
        """Read-only gamma(d) = f_bar^{-1}(log d) for d = d_0, ..., dim, from one lockstep solve.

        Each bisection step evaluates every row at once, so the cost grows
        with dim^2: about 4 ms at dim 40, 30 ms at dim 144 and 220 ms at
        dim 400 (2-core Xeon, one BLAS thread).  Two threads that race on
        the first read store equal arrays.
        """
        gams = _f_bar_inverses(self, [math.log(d) for d in range(self.ground_multiplicity, self.dim + 1)])
        gams.setflags(write=False)
        return gams

    def to_matrix(self, shift: float = 0.0) -> np.ndarray:
        diag = np.diag(self.eigenvalues - shift).astype(np.complex128)
        if self.eigenbasis is None:
            return diag
        return self.eigenbasis @ diag @ self.eigenbasis.conj().T


def _gibbs_weights(eigenvalues: np.ndarray, lam) -> np.ndarray:
    """Gibbs weights at lam, a float, or one row per entry of a column of lams."""
    x = -lam * eigenvalues
    x = x - x.max(axis=-1, keepdims=True)
    w = np.exp(x)
    return w / w.sum(axis=-1, keepdims=True)


def _mean_energies(eigenvalues: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Gibbs mean energy at each lam: a stacked vector-vector matmul is one dot per row, as `w @ ev`."""
    w = _gibbs_weights(eigenvalues, lams[:, None])
    return (w[:, None, :] @ eigenvalues[:, None])[:, 0, 0]


def _entropies(eigenvalues: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Gibbs entropy -w . log w over the w > 0 at each lam >= 0, one dot per row as in `_mean_energies`.

    At lam >= 0 the w that underflow to 0 end the row, and a dot's summation
    order depends on its length: rows are grouped by their count of w > 0.
    These dots, not `entropy_of_spectrum`'s sums, fix the bits of every
    gamma and so of every T value.
    """
    w = _gibbs_weights(eigenvalues, lams[:, None])
    kept = np.count_nonzero(w > 0.0, axis=1)
    out = np.empty(lams.size)
    for m in set(kept.tolist()):
        rows = kept == m
        p = w[rows, :m]
        out[rows] = -(p[:, None, :] @ np.log(p)[:, :, None])[:, 0, 0]
    return out


def _bisect(fn: Callable[[np.ndarray], np.ndarray], target: np.ndarray, up: np.ndarray, tol: float,
            runaway: Callable[[int], str]) -> np.ndarray:
    """Roots of the decreasing fn(x) = target, entry by entry, solved in lockstep.

    fn maps an array of points to their values.  Entry i's root is sought
    above 0 where up[i] and below 0 elsewhere: its outer end starts at +-1
    and doubles while fn there is still on the far side of the target, and
    EnergyDomainError(runaway(i)) is raised for the first entry whose outer
    end passes 1e12 in size.  Then [0 or the last end, outer end] halves:
    each entry ends at its first midpoint within tol of its target, or at
    the midpoint once its bracket no longer halves in floating point; so
    each root is the one solving that entry alone gives.  An entry that
    ends collapses [lo, hi] onto its root, whose midpoint is the root again.
    A single entry halves by `_bisect_one` instead.
    """
    edge = np.where(up, 1.0, -1.0)
    grow = np.arange(target.size)
    while grow.size:
        value = fn(edge[grow])
        grow = grow[np.where(up[grow], value > target[grow], value < target[grow])]
        edge[grow] *= 2.0
        far = grow[np.abs(edge[grow]) > 1e12]
        if far.size:
            raise EnergyDomainError(runaway(int(far[0])))
    inner = np.where(np.abs(edge) == 1.0, 0.0, edge / 2.0)
    lo, hi = np.where(up, inner, edge), np.where(up, edge, inner)
    if target.size == 1:
        return np.array([_bisect_one(fn, float(target[0]), float(lo[0]), float(hi[0]), tol)])
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            break
        # gap > 0 exactly when fn(mid) > target; |gap| <= tol ends the entry at mid
        gap = fn(mid) - target
        lo, hi = np.where(gap >= -tol, mid, lo), np.where(gap > tol, hi, mid)
    return 0.5 * (lo + hi)


def _bisect_one(fn: Callable[[np.ndarray], np.ndarray], target: float, lo: float, hi: float, tol: float) -> float:
    """`_bisect`'s halvings of one bracket [lo, hi], on Python floats, two halvings per fn call.

    Each call evaluates the midpoint and both midpoints the next halving may
    take, each computed as that halving computes it, and the stop test runs
    before each halving, so the root is the lockstep rule's to the bit.  A
    one-entry solve is bound by per-call numpy dispatch: on 1-element arrays
    the lockstep bookkeeping costs as much as fn itself.
    """
    for _ in range(150):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gap, gap_lo, gap_hi = (fn(np.array([mid, 0.5 * (lo + mid), 0.5 * (mid + hi)])) - target).tolist()
        rise = gap > tol
        lo, hi = (mid if gap >= -tol else lo), (hi if rise else mid)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        # mid is now the upper candidate if the gap rose above tol, else the lower one
        gap = gap_hi if rise else gap_lo
        lo, hi = (mid if gap >= -tol else lo), (hi if gap > tol else mid)
    return 0.5 * (lo + hi)


def _gibbs_lambdas(eigenvalues: np.ndarray, energies) -> np.ndarray:
    """Inverse temperature matching each mean energy, all solved in lockstep.

    `_bisect` solves the Gibbs mean energy for lambda > 0 below the uniform
    energy and lambda < 0 above it, to `ENERGY_SOLVE_TOL`.  Every row is
    evaluated as one lambda alone would be, so each entry is bit-identical
    to solving its energy alone.  An energy within 1e-15 of the uniform
    energy is 0; so is E_0 on a constant spectrum.  Raises
    EnergyDomainError for the first energy outside [E_0, E_max) or so close
    to an end that the bracket passes 1e12.
    """
    ev = eigenvalues
    energies = np.asarray(energies, dtype=float).reshape(-1)
    e_0, e_max, uniform = float(ev[0]), float(ev[-1]), float(ev.mean())
    outside = ~((energies >= e_0 - 1e-12) & (energies < e_max - 1e-12))  # NaN is outside
    bad = outside & ~((e_max == e_0) & (np.abs(energies - e_0) <= 1e-12))
    if bad.any():
        raise EnergyDomainError(
            f"energy {float(energies[bad][0])} outside feasible interval [{e_0}, {e_max})"
        )
    lams = np.zeros(energies.size)
    solve = np.flatnonzero(~outside & ~(np.abs(energies - uniform) <= 1e-15))
    target = energies[solve]
    below = target < uniform
    lams[solve] = _bisect(lambda mid: _mean_energies(ev, mid), target, below, ENERGY_SOLVE_TOL,
                          lambda i: f"energy {target[i]} too close to the {'ground' if below[i] else 'top'} energy")
    return lams


def gibbs_lambda(h: Hamiltonian, energy: float) -> float:
    """Inverse-temperature parameter matching the prescribed mean energy.

    The one-energy case of `_gibbs_lambdas`, the solver `check_s_flag`
    runs on its whole grid at once.
    """
    return float(_gibbs_lambdas(h.eigenvalues, [energy])[0])


def _gibbs_spectra(h: Hamiltonian, energies) -> np.ndarray:
    """Gibbs spectrum at each mean energy, one row each: the one energy -> spectrum path.

    Rows at most 1e-14 above E_0 are uniform on the ground space; the rest
    take one lockstep `_gibbs_lambdas` solve (each row has the bits of its
    energy alone) and one `_warn_on_tail` call.  Energies below E_0 raise.
    """
    energies = np.asarray(energies, dtype=float).reshape(-1)
    below = energies < h.ground_energy - 1e-12
    if below.any():
        raise EnergyDomainError(f"energy {float(energies[below][0])} below ground energy {h.ground_energy}")
    ground = energies <= h.ground_energy + 1e-14
    w = np.zeros((energies.size, h.dim))
    w[ground, :h.ground_multiplicity] = 1.0 / h.ground_multiplicity
    gibbs = energies[~ground]
    w[~ground] = _gibbs_weights(h.eigenvalues, _gibbs_lambdas(h.eigenvalues, gibbs)[:, None])
    _warn_on_tail(h, w[~ground], gibbs)
    return w


def gibbs_spectrum(h: Hamiltonian, energy: float) -> np.ndarray:
    """Eigenvalue distribution of the Gibbs state at the given mean energy: `_gibbs_spectra`'s one row."""
    return _gibbs_spectra(h, [energy])[0]


def _warn_on_tail(h: Hamiltonian, weights: np.ndarray, energies):
    """TruncationTailWarning at the first Gibbs row heavy on a truncated top level, for the public caller."""
    if not h.truncated:
        return
    tail = weights[..., h.eigenvalues >= h.max_energy - DEGENERACY_TOL].sum(axis=-1)
    heavy = np.flatnonzero(tail > TAIL_WARN_THRESHOLD)
    if heavy.size:
        warnings.warn(
            f"Gibbs weight {float(tail[heavy[0]]):.3e} on the top level at energy "
            f"{float(energies[heavy[0]])}; the spectrum truncation may be too small",
            TruncationTailWarning,
            stacklevel=4,
        )


def gibbs_state(h: Hamiltonian, energy: float, label: str = "A") -> DensityMatrix:
    """Gibbs state exp(-lambda H)/Z with mean energy solved to 1e-10: `_gibbs_spectra`'s one row."""
    w = _gibbs_spectra(h, [energy])[0]
    layout = single_factor(label, h.dim)
    if h.eigenbasis is None:
        return DensityMatrix(layout, np.diag(w).astype(np.complex128))
    u = h.eigenbasis
    return DensityMatrix(layout, (u * w) @ u.conj().T)


def f_h(h: Hamiltonian, energy):
    """Max entropy over states with mean energy <= `energy` (nats); elementwise on an array.

    Equals the Gibbs-state entropy on the increasing branch and saturates
    at log(dim) once the constraint goes slack (energy >= uniform energy).
    The energies below the uniform one take one `_gibbs_spectra` call.
    """
    energies = np.asarray(energy, dtype=float)
    below = ~(energies >= h.uniform_energy)  # NaN too, which `_gibbs_spectra` rejects
    out = np.full(energies.shape, math.log(h.dim))
    if below.any():
        out[below] = entropy_of_spectrum(_gibbs_spectra(h, energies[below]))
    return out if energies.ndim else float(out)


def f_bar(h: Hamiltonian, e_bar: float) -> float:
    """Shifted max-entropy function: f_bar(E) = f_h(E + E_0), E >= 0."""
    if e_bar < -1e-12:
        raise EnergyDomainError(f"shifted energy {e_bar} must be >= 0")
    return f_h(h, max(e_bar, 0.0) + h.ground_energy)


def _f_bar_inverses(h: Hamiltonian, ys) -> np.ndarray:
    """f_bar^{-1} at each target in ys, on [log d_0, log dim], by one lockstep solve in lambda.

    The Gibbs entropy S(lambda) falls from log dim at lambda = 0 toward
    log d_0; `_bisect` solves S(lambda) = y for every inner target at once
    (tol 0), and the Gibbs mean energy above E_0 at that lambda is returned.
    The ends are exact: 0 at log d_0, the uniform energy above E_0 at log dim.
    """
    ys = np.asarray(ys, dtype=float).reshape(-1)
    lo_y = math.log(h.ground_multiplicity)
    hi_y = math.log(h.dim)
    bad = ~((ys >= lo_y - 1e-12) & (ys <= hi_y + 1e-12))  # NaN is outside
    if bad.any():
        raise EnergyDomainError(f"target {float(ys[bad][0])} outside [log d_0, log dim] = [{lo_y}, {hi_y}]")
    out = np.where(ys <= lo_y, 0.0, h.uniform_energy - h.ground_energy)
    solve = np.flatnonzero((ys > lo_y) & (ys < hi_y))
    target = ys[solve]
    ev = h.eigenvalues - h.ground_energy
    lams = _bisect(lambda mid: _entropies(ev, mid), target, np.full(target.size, True), 0.0,
                   lambda i: f"target {float(target[i])} too close to log d_0 = {lo_y}")
    out[solve] = _mean_energies(ev, lams)
    return out


def f_bar_inverse(h: Hamiltonian, y: float) -> float:
    """Inverse of f_bar on [log d_0, log dim]: the one-target case of `_f_bar_inverses`."""
    return float(_f_bar_inverses(h, [y])[0])


def gamma(h: Hamiltonian, d: int) -> float:
    """gamma(d) = f_bar^{-1}(log d), read from `Hamiltonian.gammas`."""
    d = int(d)
    if d < h.ground_multiplicity:
        raise EnergyDomainError(f"d = {d} below ground multiplicity {h.ground_multiplicity}")
    if d > h.dim:
        raise EnergyDomainError(f"d = {d} above spectrum size {h.dim}")
    return float(h.gammas[d - h.ground_multiplicity])


@dataclass(frozen=True)
class OscillatorSpec:
    """l-mode oscillator: frequencies, hbar, and a per-mode truncation level."""

    modes: int
    frequencies: tuple[float, ...]
    hbar: float = 1.0
    truncation: int = 40

    def __post_init__(self):
        freqs = tuple(float(w) for w in self.frequencies)
        object.__setattr__(self, "frequencies", freqs)
        if self.modes < 1 or len(freqs) != self.modes:
            raise QStateError(f"expected {self.modes} frequencies, got {len(freqs)}")
        if not all(0 < w < math.inf for w in freqs):
            raise QStateError("frequencies must be positive and finite")
        if not 0 < self.hbar < math.inf:
            raise QStateError("hbar must be positive and finite")
        if self.truncation < 2:
            raise QStateError("need at least two levels per mode")
        # arithmetic-geometric mean inequality, up to float noise
        if 2 * self.ground_energy < self.geometric_energy * (1 - 1e-12):
            raise QStateError("2 E_0 >= E_* violated; frequencies are inconsistent")

    @property
    def ground_energy(self) -> float:
        return 0.5 * self.hbar * sum(self.frequencies)

    @property
    def geometric_energy(self) -> float:
        """E_* = (prod hbar omega_i)^(1/l)."""
        return float(np.prod([self.hbar * w for w in self.frequencies]) ** (1.0 / self.modes))

    def to_hamiltonian(self) -> Hamiltonian:
        grids = np.meshgrid(*[np.arange(self.truncation) for _ in range(self.modes)], indexing="ij")
        ev = np.zeros(self.truncation**self.modes)
        for n_i, w in zip(grids, self.frequencies):
            ev += self.hbar * w * (n_i.reshape(-1) + 0.5)
        return Hamiltonian(np.sort(ev), truncated=True)


def oscillator_f(spec: OscillatorSpec, energy: float) -> float:
    """Closed-form upper bound l log((E + E_0)/(l E_*)) + l for the max entropy."""
    if not spec.ground_energy - 1e-12 <= energy < math.inf:  # NaN fails too
        raise EnergyDomainError(f"energy {energy} must be finite and >= the ground energy {spec.ground_energy}")
    l = spec.modes
    return l * math.log((energy + spec.ground_energy) / (l * spec.geometric_energy)) + l


def oscillator_f_bar(spec: OscillatorSpec, e_bar: float) -> float:
    """Shifted closed form: l log((E + 2 E_0)/(l E_*)) + l, E >= 0."""
    if not -1e-12 <= e_bar < math.inf:  # NaN fails too
        raise EnergyDomainError(f"shifted energy {e_bar} must be finite and >= 0")
    l = spec.modes
    return l * math.log((max(e_bar, 0.0) + 2 * spec.ground_energy) / (l * spec.geometric_energy)) + l


def oscillator_gamma_hat_domain_min(spec: OscillatorSpec) -> int:
    """Smallest integer d in the closed-form gamma-hat domain (d > e^{f_bar(0)})."""
    threshold = math.exp(oscillator_f_bar(spec, 0.0))
    d = int(math.floor(threshold)) + 1
    while oscillator_gamma_hat_unchecked(spec, d) <= 0.0:
        d += 1
    return d


def oscillator_gamma_hat_unchecked(spec: OscillatorSpec, d):
    """(l/e) E_* d^(1/l) - 2 E_0 for an integer d, or elementwise on an integer array."""
    l = spec.modes
    return (l / math.e) * spec.geometric_energy * d ** (1.0 / l) - 2 * spec.ground_energy


def oscillator_gamma_hat(spec: OscillatorSpec, d: int) -> float:
    """Closed-form inverse (l/e) E_* d^(1/l) - 2 E_0; requires d > e^{f_bar(0)}."""
    value = oscillator_gamma_hat_unchecked(spec, int(d))
    if value <= 0.0:
        raise EnergyDomainError(
            f"d = {d} outside the closed-form domain (needs d > e^(f_bar(0)))"
        )
    return value


def _s_flag_grid(h: Hamiltonian) -> np.ndarray:
    """f_bar(E)/sqrt(E) at 60 points from top/1000 to top, the uniform energy above E_0, by one `f_h` call."""
    top = max(h.uniform_energy - h.ground_energy, 1e-6)
    grid = np.linspace(top * 1e-3, top, 60)
    return f_h(h, grid + h.ground_energy) / np.sqrt(grid)


def check_s_flag(handle) -> int:
    """0 when f_bar(E)/sqrt(E) is non-increasing on a grid, else 1.

    Oscillator closed forms are always 0 (x log(a/x^2 + b) is increasing for
    b >= e/2, which 2 E_0 >= E_* guarantees); finite spectra are decided on
    `_s_flag_grid`, whose values have the bits of `f_bar(h, E)/sqrt(E)`.
    """
    if isinstance(handle, OscillatorSpec):
        return 0
    return 0 if np.all(np.diff(_s_flag_grid(handle)) <= 1e-12) else 1


def _factor_product(layout: SystemLayout, blocks: dict, other) -> np.ndarray:
    """Kronecker product over the layout's factors: blocks[label], or other(dim)."""
    out = np.ones(1, dtype=np.complex128)
    for lbl, dim in layout.factors:
        out = np.kron(out, blocks[lbl] if lbl in blocks else other(dim))
    return out


def ground_product(h: Hamiltonian, layout: SystemLayout, labels: Sequence[str]) -> np.ndarray:
    """Ground-space projector / d_0 on each factor in `labels`, maximally mixed elsewhere."""
    d0 = h.ground_multiplicity
    ground = np.zeros((h.dim, h.dim), dtype=np.complex128)
    if h.eigenbasis is None:
        ground[np.arange(d0), np.arange(d0)] = 1.0 / d0
    else:
        u = h.eigenbasis[:, :d0]
        ground = u @ u.conj().T / d0
    return _factor_product(layout, dict.fromkeys(labels, ground), lambda dim: np.eye(dim) / dim)


def check_cap(bound: float, ground_energy: float) -> float:
    """The cap as a float; a non-finite cap, or one below E_0 that no input meets, is rejected."""
    bound = float(bound)
    if not math.isfinite(bound):
        raise EnergyDomainError(f"energy cap {bound} is not finite")
    if not bound >= ground_energy:
        raise EnergyDomainError(f"energy cap {bound} is below E_0 = {ground_energy}; no input meets it")
    return bound


def cap_weight(energy: float, bound: float, ground_energy: float) -> float:
    """Least weight t with (1 - t) energy + t ground_energy <= bound.

    Mixing toward a ground state moves the mean energy affinely in t, so
    the weight is exact; it is 0 when the energy already meets the cap.
    The cap goes through `check_cap`.
    """
    check_cap(bound, ground_energy)
    if energy <= bound:
        return 0.0
    return (energy - bound) / (energy - ground_energy)


class EnergyCap:
    """Mean-energy cap Tr[H rho] <= bound, with H on the factor `label` of `layout`.

    Holds the embedded Hamiltonian and the ground targets `mix_to_cap`
    mixes toward, so one cap serves every draw on its layout.  The layout
    defaults to the single factor H acts on.
    """

    def __init__(self, h: Hamiltonian, bound: float, layout: Optional[SystemLayout] = None,
                 label: str = "A"):
        self.layout = layout if layout is not None else single_factor(label, h.dim)
        if self.layout.dim(label) != h.dim:
            raise QStateError("Hamiltonian dimension does not match the labeled factor")
        self.hamiltonian = h
        self.bound = check_cap(bound, h.ground_energy)
        self.label = label
        self.operator = _factor_product(self.layout, {label: h.to_matrix()}, np.eye)

    @functools.cached_property
    def ground_state(self) -> np.ndarray:
        return ground_product(self.hamiltonian, self.layout, (self.label,))

    @functools.cached_property
    def ground_vector(self) -> np.ndarray:
        """Lowest eigenvector of H on the capped factor, |0> on every other factor."""
        h = self.hamiltonian
        basis = h.eigenbasis if h.eigenbasis is not None else np.eye(h.dim, dtype=np.complex128)
        return _factor_product(self.layout, {self.label: basis[:, 0]},
                               lambda dim: np.eye(dim, dtype=np.complex128)[0])

    def energy(self, state: np.ndarray) -> float:
        """Mean energy of an amplitude vector or a density matrix."""
        if state.ndim == 1:
            return float(np.real(state.conj() @ self.operator @ state))
        return float(np.einsum("ij,ji->", self.operator, state).real)

    def weight(self, state: np.ndarray) -> float:
        return cap_weight(self.energy(state), self.bound, self.hamiltonian.ground_energy)


def mix_members(probs, members: list, cap: EnergyCap) -> list:
    """Density-matrix arrays of an ensemble, all mixed toward `cap.ground_state`
    with one weight: `cap.weight` of the raw average sum p_i rho_i.

    The list comes back as it is when that average meets the cap.
    """
    t = cap.weight(sum(p * rho for p, rho in zip(probs, members)))
    if t == 0.0:
        return members
    return [(1.0 - t) * rho + t * cap.ground_state for rho in members]


def mix_to_cap(state, cap: EnergyCap):
    """Bring a state under the energy cap by mixing it toward the ground.

    A state that meets the cap comes back unchanged.  Mixed states (a
    DensityMatrix or a density-matrix array) take the closed-form weight of
    `cap_weight` toward `cap.ground_state`; an Ensemble mixes its members
    by `mix_members`, with the weight of its raw average sum p_i rho_i.  Pure
    states (a PureState or an amplitude vector) blend toward
    `cap.ground_vector` and are renormalised; the blend's energy is not
    affine in the weight, but its cap condition is a quadratic in the
    weight, so the least feasible weight is that quadratic's root.  A pure
    blend is returned only once `cap.energy(vec) <= cap.bound` holds
    exactly: when rounding fails that check, the weight steps toward 1 by
    a doubling number of ulps, down to the ground vector itself at weight 1.
    The result depends on the state and the cap alone.  Raises
    EnergyDomainError when the cap is below the ground energy.
    """
    if isinstance(state, Ensemble):
        members = [rho.entries for rho in state.states]
        mixed = mix_members([p for p, _ in state.items], members, cap)
        if mixed is members:
            return state
        return Ensemble([(p, DensityMatrix(state.layout, rho)) for (p, _), rho in zip(state.items, mixed)])
    if isinstance(state, (DensityMatrix, PureState)):
        raw = state.entries if isinstance(state, DensityMatrix) else state.amplitudes
        mixed = mix_to_cap(raw, cap)
        return state if mixed is raw else type(state)(state.layout, mixed)
    t = cap.weight(state)
    if t == 0.0:
        return state
    if state.ndim == 2:
        return (1.0 - t) * state + t * cap.ground_state
    # v = (1 - t) s + t g meets the cap iff <v, (H - E) v> <= 0, which is
    # a + 2 b u + c u^2 <= 0 in u = t / (1 - t); a > 0 > c, so the least
    # feasible u is the positive root, taken in the form without cancellation
    ground = cap.ground_vector
    h_s = cap.operator @ state
    a = float(np.vdot(state, h_s).real) - cap.bound * float(np.vdot(state, state).real)
    b = float(np.vdot(h_s, ground).real) - cap.bound * float(np.vdot(state, ground).real)
    c = float(np.vdot(ground, cap.operator @ ground).real) - cap.bound * float(np.vdot(ground, ground).real)
    root = math.sqrt(max(b * b - a * c, 0.0))
    if a <= 0.0:
        t = 0.0
    elif b > 0.0:  # u = (b + root) / (-c)
        t = 1.0 if c >= 0.0 else (b + root) / (b + root - c)
    else:  # u = a / (root - b)
        t = a / (a + root - b)
    # rounding may leave the blend just over the cap: step t toward 1 by doubling ulps
    ulps = 1.0
    while True:
        vec = (1.0 - t) * state + t * ground
        vec = vec / np.linalg.norm(vec)
        if t >= 1.0 or cap.energy(vec) <= cap.bound:
            return vec
        t = min(1.0, t + ulps * np.finfo(float).eps)
        ulps *= 2.0


def _schmidt(psi: PureState, a_label: str):
    layout = psi.layout
    pos = layout.position(a_label)
    dims = layout.dims
    tensor = psi.amplitudes.reshape(dims)
    tensor = np.moveaxis(tensor, pos, 0)
    d_a = dims[pos]
    mat = tensor.reshape(d_a, -1)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return u, s, vh, pos, dims


def truncate_pure_state(
    psi: PureState, a_label: str, h: Hamiltonian, energy: float, d: int
) -> PureState:
    """Rank-d truncation of the A-side Schmidt decomposition.

    Schmidt terms are reordered so the A-side mean shifted energies are
    nondecreasing (ties broken toward larger Schmidt weight), the first d
    terms are kept, and the vector is renormalized.  The output has
    rank <= d on A, energy <= E, and trace distance <= sqrt(E_bar/gamma(d)).
    """
    layout = psi.layout
    if layout.dim(a_label) != h.dim:
        raise QStateError("Hamiltonian dimension does not match the A factor")
    d = int(d)
    if d < 1:
        raise QStateError(f"target rank {d} must be >= 1")
    h_bar = h.to_matrix(shift=h.ground_energy)
    u, s, vh, pos, dims = _schmidt(psi, a_label)
    p = s**2
    rho_a_energy = float(np.real(np.einsum("ak,ab,bk,k->", u.conj(), h_bar, u, p)))
    e_bar = energy - h.ground_energy
    if rho_a_energy > e_bar + 1e-9:
        raise EnergyDomainError(
            f"state energy {rho_a_energy + h.ground_energy} exceeds the cap {energy}"
        )
    if e_bar > gamma(h, d) + 1e-9:
        raise EnergyDomainError(
            f"E - E_0 = {e_bar} exceeds gamma({d}) = {gamma(h, d)}: rank-{d} truncation is not certified"
        )
    site_energy = np.real(np.einsum("ak,ab,bk->k", u.conj(), h_bar, u))
    order = sorted(range(s.size), key=lambda k: (site_energy[k], -p[k], k))
    kept = order[:d]
    delta = float(p[order[d:]].sum()) if len(order) > d else 0.0
    scale = 1.0 / math.sqrt(1.0 - delta)
    mat = (u[:, kept] * (s[kept] * scale)) @ vh[kept, :]
    tensor = mat.reshape((dims[pos],) + tuple(dm for i, dm in enumerate(dims) if i != pos))
    tensor = np.moveaxis(tensor, 0, pos)
    vec = tensor.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return PureState(layout, vec)
