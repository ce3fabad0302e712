import math
import re
import warnings

import numpy as np
import pytest

from chanbound.energy import (
    EnergyCap,
    EnergyDomainError,
    Hamiltonian,
    OscillatorSpec,
    TruncationTailWarning,
    ENERGY_SOLVE_TOL,
    _bisect,
    _gibbs_lambdas,
    _gibbs_weights,
    _mean_energies,
    _s_flag_grid,
    cap_weight,
    check_s_flag,
    f_bar,
    f_bar_inverse,
    f_h,
    gamma,
    gibbs_lambda,
    gibbs_spectrum,
    gibbs_state,
    mix_to_cap,
    oscillator_f,
    oscillator_f_bar,
    oscillator_gamma_hat,
    oscillator_gamma_hat_domain_min,
    truncate_pure_state,
)
from chanbound.entropic import g, von_neumann_entropy
from chanbound.qstate import (
    DensityMatrix,
    HermitianOperator,
    QStateError,
    SystemLayout,
    jordan_parts,
    partial_trace,
    partial_trace_hermitian,
    single_factor,
    trace_norm,
)

from conftest import parent_entropy_sum


@pytest.fixture
def osc60():
    return OscillatorSpec(1, (1.0,), truncation=60)


def _mean_energy(ev, lam):
    """The one-lambda Gibbs mean energy as it was: one dot of the weights with the spectrum."""
    return float(_gibbs_weights(ev, lam) @ ev)


def _two_evaluation_gibbs_lambda(h, energy):
    """`gibbs_lambda` as it was: the bisection evaluates the mean energy twice per step."""
    ev = h.eigenvalues
    if abs(energy - h.uniform_energy) <= 1e-15:
        return 0.0
    if energy < h.uniform_energy:
        lo, hi = 0.0, 1.0
        while _mean_energy(ev, hi) > energy:
            lo, hi = hi, hi * 2.0
    else:
        lo, hi = -1.0, 0.0
        while _mean_energy(ev, lo) < energy:
            lo, hi = lo * 2.0, lo
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if _mean_energy(ev, mid) > energy:
            lo = mid
        else:
            hi = mid
        if abs(_mean_energy(ev, mid) - energy) <= 1e-10:
            return mid
    return 0.5 * (lo + hi)


def _scalar_gibbs_lambda(h, energy):
    """`gibbs_lambda` as it was before the lockstep solver: one energy, one scalar bisection."""
    ev = h.eigenvalues
    if energy < h.ground_energy - 1e-12 or energy >= h.max_energy - 1e-12:
        if h.max_energy == h.ground_energy and abs(energy - h.ground_energy) <= 1e-12:
            return 0.0
        raise EnergyDomainError(
            f"energy {energy} outside feasible interval [{h.ground_energy}, {h.max_energy})"
        )
    if abs(energy - h.uniform_energy) <= 1e-15:
        return 0.0
    if energy < h.uniform_energy:
        lo, hi = 0.0, 1.0
        while _mean_energy(ev, hi) > energy:
            lo, hi = hi, hi * 2.0
            if hi > 1e12:
                raise EnergyDomainError(f"energy {energy} too close to the ground energy")
    else:
        lo, hi = -1.0, 0.0
        while _mean_energy(ev, lo) < energy:
            lo, hi = lo * 2.0, lo
            if lo < -1e12:
                raise EnergyDomainError(f"energy {energy} too close to the top energy")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        value = _mean_energy(ev, mid)
        if value > energy:
            lo = mid
        else:
            hi = mid
        if abs(value - energy) <= 1e-10:
            return mid
    return 0.5 * (lo + hi)


def _one_halving_bisect(fn, target, up, tol):
    """`energy._bisect` with one halving per fn call, as it was before it took two."""
    edge = np.where(up, 1.0, -1.0)
    grow = np.arange(target.size)
    while grow.size:
        value = fn(edge[grow])
        grow = grow[np.where(up[grow], value > target[grow], value < target[grow])]
        edge[grow] *= 2.0
    inner = np.where(np.abs(edge) == 1.0, 0.0, edge / 2.0)
    lo, hi = np.where(up, inner, edge), np.where(up, edge, inner)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            break
        gap = fn(mid) - target
        lo, hi = np.where(gap >= -tol, mid, lo), np.where(gap > tol, hi, mid)
    return 0.5 * (lo + hi)


def _scalar_f_bar_inverse(h, y):
    """`f_bar_inverse` as it was before the gamma array: one target, one scalar bisection in lambda."""
    lo_y, hi_y = math.log(h.ground_multiplicity), math.log(h.dim)
    if y <= lo_y:
        return 0.0
    if y >= hi_y:
        return h.uniform_energy - h.ground_energy
    ev = h.eigenvalues - h.ground_energy

    def entropy(lam):
        w = _gibbs_weights(ev, lam)
        w = w[w > 0.0]
        return float(-w @ np.log(w))

    lo, hi = 0.0, 1.0
    while entropy(hi) > y:
        lo, hi = hi, hi * 2.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gap = entropy(mid) - y
        if gap >= 0.0:
            lo = mid
        if not gap > 0.0:
            hi = mid
    return _mean_energy(ev, 0.5 * (lo + hi))


_GAMMA_SPECTRA = {
    "levels": lambda: Hamiltonian(np.array([0.0, 1.0, 2.0, 3.0])),
    "arange8": lambda: Hamiltonian(np.arange(8.0)),
    "arange16": lambda: Hamiltonian(np.arange(16.0)),
    "degenerate": lambda: Hamiltonian(np.array([0.5, 0.5, 1.0, 2.0, 4.0])),
    "double_ground": lambda: Hamiltonian(np.array([0.0, 0.0, 1.0, 5.0])),
    "triple_ground": lambda: Hamiltonian(np.array([0.0, 0.0, 0.0, 1.0])),
    "near_degenerate": lambda: Hamiltonian(np.array([0.0, 1e-3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])),
    "shifted_top_degenerate": lambda: Hamiltonian(np.array([2.0, 2.5, 3.0, 7.0, 7.0])),
    # Gibbs weights underflow to 0 on the top levels, below and above 32 levels
    "underflow": lambda: Hamiltonian(np.array([0.0, 1.0, 50.0, 400.0, 1000.0, 3000.0])),
    "underflow43": lambda: Hamiltonian(np.r_[0.0, 1.0, 2.0, np.linspace(500.0, 5000.0, 40)]),
    "underflow70": lambda: Hamiltonian(np.r_[0.0, 0.5, 1.0, 2.0, 3.0, np.geomspace(10.0, 1e5, 65)]),
    "random50": lambda: Hamiltonian(np.sort(np.random.default_rng(3).uniform(0.0, 10.0, 50))),
    "osc40": lambda: OscillatorSpec(1, (1.0,), truncation=40).to_hamiltonian(),
    "osc60": lambda: OscillatorSpec(1, (1.0,), truncation=60).to_hamiltonian(),
    "osc2x12": lambda: OscillatorSpec(2, (1.0, 2.0), truncation=12).to_hamiltonian(),
}


_LOCKSTEP_SPECTRA = {
    "levels": [0.0, 1.0, 2.0, 3.0],
    "arange8": list(range(8)),
    "degenerate": [0.5, 0.5, 1.0, 2.0, 4.0],
    "near_degenerate": [0.0, 1e-3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    "double_ground": [0.0, 0.0, 1.0, 5.0],
    "shifted_top_degenerate": [2.0, 2.5, 3.0, 7.0, 7.0],
}


def _bisected_mix(state, cap):
    """`mix_to_cap` on an amplitude vector as it was: 80 bisection steps on the weight."""
    if cap.weight(state) == 0.0:
        return state
    ground = cap.ground_vector
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        vec = (1 - mid) * state + mid * ground
        vec = vec / np.linalg.norm(vec)
        if cap.energy(vec) > cap.bound:
            lo = mid
        else:
            hi = mid
    vec = (1 - hi) * state + hi * ground
    return vec / np.linalg.norm(vec)


def _mix_instance(gen, k, excess=None):
    """A pure state and a cap: degenerate grounds, rotated eigenbases, E_0 > 0, A first or last.

    Without `excess` the cap is drawn uniformly from [E_0 + 1e-9, uniform energy).
    """
    rng = gen.rng
    d_a = int(rng.integers(2, 6))
    ev = np.sort(rng.uniform(0.0, 3.0, d_a))
    if k % 3 == 0:
        ev[1] = ev[0]
    if k % 4 == 1:
        ev = ev + rng.uniform(0.1, 2.0)
    h = Hamiltonian(ev, eigenbasis=gen.unitary(d_a) if k % 2 else None)
    other = ("B", int(rng.integers(2, 4)))
    lay = SystemLayout([("A", d_a), other] if k % 5 < 3 else [other, ("A", d_a)])
    e0 = h.ground_energy
    if excess is None:
        bound = e0 + 1e-9 + rng.uniform() * (h.uniform_energy - e0 - 1e-9)
    else:
        bound = e0 + excess
    return gen.pure(lay).amplitudes, EnergyCap(h, bound, lay)


class TestHamiltonian:
    def test_ordering_enforced(self):
        with pytest.raises(QStateError):
            Hamiltonian(np.array([1.0, 0.0]))

    def test_ground_data(self):
        h = Hamiltonian(np.array([0.5, 0.5, 1.0, 2.0]))
        assert h.ground_energy == 0.5
        assert h.ground_multiplicity == 2
        assert h.max_energy == 2.0

    def test_negative_ground_rejected(self):
        with pytest.raises(QStateError):
            Hamiltonian(np.array([-0.5, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_finite_eigenvalue_rejected(self, bad, at):
        ev = np.array([0.0, 1.0, 2.0])
        ev[at] = bad
        with pytest.raises(QStateError):
            Hamiltonian(ev)

    def test_non_finite_eigenbasis_rejected(self):
        u = np.eye(2, dtype=np.complex128)
        u[0, 1] = math.nan
        with pytest.raises(QStateError, match="unitary"):
            Hamiltonian(np.array([0.0, 1.0]), eigenbasis=u)


class TestGibbs:
    def test_qubit_half_energy(self):
        h = Hamiltonian(np.array([0.0, 1.0]))
        assert np.allclose(gibbs_state(h, 0.5).entries, np.eye(2) / 2, atol=1e-10)

    def test_ground_energy_returns_ground_mixture(self):
        h = Hamiltonian(np.array([0.0, 0.0, 1.0]))
        rho = gibbs_state(h, 0.0)
        assert np.allclose(rho.entries, np.diag([0.5, 0.5, 0.0]), atol=1e-12)
        assert abs(f_h(h, 0.0) - math.log(2)) < 1e-12

    def test_energy_solved_to_tolerance(self, osc60):
        h = osc60.to_hamiltonian()
        for e in (1.0, 2.5, 7.0):
            rho = gibbs_state(h, e)
            got = float(np.real(np.trace(h.to_matrix() @ rho.entries)))
            assert abs(got - e) <= 1e-9

    def test_out_of_range_rejected(self):
        h = Hamiltonian(np.array([0.0, 1.0]))
        with pytest.raises(EnergyDomainError):
            gibbs_state(h, 1.5)
        with pytest.raises(EnergyDomainError):
            gibbs_state(h, -0.1)

    @pytest.mark.parametrize("kind", ["levels", "osc6", "osc40", "degenerate"])
    def test_lambda_matches_two_evaluation_reference(self, kind):
        # one mean-energy evaluation per bisection step leaves lambda bit-identical
        h = {
            "levels": Hamiltonian(np.array([0.0, 1.0, 2.0, 3.0])),
            "osc6": OscillatorSpec(1, (1.0,), truncation=6).to_hamiltonian(),
            "osc40": OscillatorSpec(1, (1.0,), truncation=40).to_hamiltonian(),
            "degenerate": Hamiltonian(np.array([0.5, 0.5, 1.0, 2.0, 4.0])),
        }[kind]
        span = h.max_energy - h.ground_energy
        grid = h.ground_energy + span * np.concatenate([[1e-6, 1e-3], np.linspace(0.01, 0.99, 60)])
        grid = np.append(grid, h.uniform_energy)
        for e in grid:
            assert gibbs_lambda(h, e) == _two_evaluation_gibbs_lambda(h, e)

    @pytest.mark.parametrize("spectrum", [[0.0, 1.0, 2.0, 3.0], [0.5, 0.5, 1.0, 2.0, 4.0]])
    def test_single_entry_takes_two_halvings_per_call(self, spectrum):
        # one entry halves on Python floats, each call evaluating a midpoint and both next
        # candidates; a batch keeps one halving per call; both give the one-halving bits
        ev = np.array(spectrum)
        targets = ev[0] + (ev[-1] - ev[0]) * np.array([1e-9, 0.05, 0.3, 0.45, 0.55, 0.7, 0.95, 1.0 - 1e-9])
        ups = targets < ev.mean()

        def solve(solver, target, up):
            sizes = []

            def fn(x):
                sizes.append(x.size)
                return _mean_energies(ev, x)

            return solver(fn, target, up, ENERGY_SOLVE_TOL), sizes

        one = lambda fn, target, up, tol: _bisect(fn, target, up, tol, str)
        total = 0
        for target, up in zip(targets, ups):
            got, got_sizes = solve(one, target[None], up[None])
            ref, ref_sizes = solve(_one_halving_bisect, target[None], up[None])
            assert got.tobytes() == ref.tobytes()
            grow = got_sizes.count(1)  # the bracket search, alike in both
            halvings = len(ref_sizes) - grow
            assert got_sizes[grow:] == [3] * ((halvings + 1) // 2)
            total += halvings
        assert total >= 150
        got, got_sizes = solve(one, targets, ups)
        ref, ref_sizes = solve(_one_halving_bisect, targets, ups)
        assert got.tobytes() == ref.tobytes() and got_sizes == ref_sizes

    @pytest.mark.parametrize("kind", [*_LOCKSTEP_SPECTRA, "osc40"])
    def test_lockstep_matches_scalar_solver(self, kind):
        # one lockstep solve gives each energy the bits of its own scalar bisection
        if kind == "osc40":
            h = OscillatorSpec(1, (1.0,), truncation=40).to_hamiltonian()
        else:
            h = Hamiltonian(np.array(_LOCKSTEP_SPECTRA[kind], dtype=float))
        rng = np.random.default_rng(sum(map(ord, kind)))
        e_0, span = h.ground_energy, h.max_energy - h.ground_energy
        energies = np.concatenate([
            e_0 + span * rng.uniform(0.0, 1.0, 70),  # both sides of the uniform energy
            e_0 + (h.uniform_energy - e_0) * np.logspace(-9, 0, 10),
            [e_0, h.uniform_energy, e_0 + 1e-14, h.max_energy - 2e-12],
        ])
        assert np.any(energies < h.uniform_energy) and np.any(energies > h.uniform_energy)
        lams = _gibbs_lambdas(h.eigenvalues, energies)
        assert lams.shape == energies.shape
        assert np.array_equal(_mean_energies(h.eigenvalues, lams),
                              [_mean_energy(h.eigenvalues, lam) for lam in lams])
        for e, lam in zip(energies, lams):
            assert lam == _scalar_gibbs_lambda(h, float(e))
            assert gibbs_lambda(h, float(e)) == lam
        assert np.array_equal(_gibbs_lambdas(h.eigenvalues, energies[::-1]), lams[::-1])

    @pytest.mark.parametrize("spectrum, energy", [
        ([0.0, 1.0, 2.0, 3.0], -0.1),  # below E_0
        ([0.0, 1.0, 2.0, 3.0], 3.0),  # at the top
        ([0.0, 1.0, 2.0, 3.0], 3.5),  # above it
        ([0.0, 1.0, 2.0, 3.0], -5e-13),  # inside the 1e-12 slack, below every Gibbs mean
        ([0.5, 0.5, 1.0], 0.5 - 5e-13),
        ([1.0, 1.0, 1.0], 1.5),  # a constant spectrum has only E_0
    ])
    def test_domain_errors_unchanged(self, spectrum, energy):
        h = Hamiltonian(np.array(spectrum))
        with pytest.raises(EnergyDomainError) as ref:
            _scalar_gibbs_lambda(h, energy)
        with pytest.raises(EnergyDomainError, match=f"^{re.escape(str(ref.value))}$"):
            gibbs_lambda(h, energy)
        # in a batch, the bad energy raises the same error
        with pytest.raises(EnergyDomainError, match=f"^{re.escape(str(ref.value))}$"):
            _gibbs_lambdas(h.eigenvalues, [h.ground_energy, energy, h.ground_energy])

    def test_nan_energy_rejected(self):
        h = Hamiltonian(np.arange(4.0))
        with pytest.raises(EnergyDomainError, match="outside feasible interval"):
            gibbs_lambda(h, math.nan)
        with pytest.raises(EnergyDomainError, match="outside feasible interval"):
            f_h(h, math.nan)

    def test_constant_spectrum_ground_is_zero(self):
        h = Hamiltonian(np.ones(3))
        assert gibbs_lambda(h, 1.0) == _scalar_gibbs_lambda(h, 1.0) == 0.0

    def test_lambda_strictly_decreasing(self, osc60):
        h = osc60.to_hamiltonian()
        grid = [0.8, 1.5, 3.0, 6.0, 12.0]
        lams = [gibbs_lambda(h, e) for e in grid]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_entropy_maximizer(self, gen):
        h = Hamiltonian(np.arange(4.0))
        e_cap = 1.1
        lay = SystemLayout([("A", 4)])
        best = f_h(h, e_cap)
        for _ in range(100):
            rho = gen.energy_feasible_density(lay, "A", h, e_cap)
            assert von_neumann_entropy(rho) <= best + 1e-8

    def test_tail_warning_on_truncated_spectra(self):
        spec = OscillatorSpec(1, (1.0,), truncation=8)
        h = spec.to_hamiltonian()
        with pytest.warns(TruncationTailWarning):
            gibbs_state(h, 5.0)
        # untruncated finite spectra stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gibbs_state(Hamiltonian(np.arange(8.0)), 5.0)


def _parent_gibbs_spectrum(h, energy):
    """`gibbs_spectrum` as the parent wrote it, less its tail warning: the ground mixture, else one solve."""
    if energy <= h.ground_energy + 1e-14:
        w = np.zeros(h.dim)
        w[:h.ground_multiplicity] = 1.0 / h.ground_multiplicity
        return w
    return _gibbs_weights(h.eigenvalues, gibbs_lambda(h, energy))


def _parent_f_h(h, energy):
    """`f_h` as the parent wrote it: log dim at or above the uniform energy, else clip + np.sum(eta(...))."""
    if energy >= h.uniform_energy:
        return math.log(h.dim)
    return parent_entropy_sum(_parent_gibbs_spectrum(h, energy))


def _parent_heavy_tail(h, energy):
    """Whether the parent's `_warn_on_tail` warned at this energy."""
    if not h.truncated or energy <= h.ground_energy + 1e-14:
        return False
    return _parent_gibbs_spectrum(h, energy)[h.eigenvalues >= h.max_energy - 1e-9].sum() > 1e-8


_ROTATED = np.linalg.qr(np.random.default_rng(11).standard_normal((5, 5))
                        + 1j * np.random.default_rng(12).standard_normal((5, 5)))[0]
_PARENT_SPECTRA = {
    **{kind: lambda ev=ev: Hamiltonian(np.array(ev, dtype=float)) for kind, ev in _LOCKSTEP_SPECTRA.items()},
    "rotated": lambda: Hamiltonian(np.array([0.5, 0.5, 1.0, 2.0, 4.0]), eigenbasis=_ROTATED),
    "osc6": lambda: OscillatorSpec(1, (1.0,), truncation=6).to_hamiltonian(),
    "osc40": lambda: OscillatorSpec(1, (1.0,), truncation=40).to_hamiltonian(),
    "osc2x6": lambda: OscillatorSpec(2, (1.0, 1.5), truncation=6).to_hamiltonian(),
}


def _parent_energies(h, seed):
    rng = np.random.default_rng(seed)
    e_0, span = h.ground_energy, h.max_energy - h.ground_energy
    return np.concatenate([
        e_0 + span * rng.uniform(0.0, 1.0, 60),  # both sides of the uniform energy
        e_0 + (h.uniform_energy - e_0) * np.logspace(-12, 0, 14),
        [e_0, e_0 - 5e-13, e_0 + 5e-15, e_0 + 1e-14, e_0 + 2e-14, np.nextafter(h.uniform_energy, 0.0),
         h.uniform_energy, h.max_energy - 2e-12, h.max_energy, 2.0 * h.max_energy + 1.0],
    ])


class TestGibbsSpectraMatchParent:
    """One energy -> spectrum path: each value equals the parent's one-energy formula with ==."""

    @pytest.mark.parametrize("kind", _PARENT_SPECTRA)
    def test_spectrum_state_and_f_h_one_at_a_time(self, kind):
        h = _PARENT_SPECTRA[kind]()
        for e in _parent_energies(h, sum(map(ord, kind))).tolist():
            assert f_h(h, e) == _parent_f_h(h, e)
            if e >= h.max_energy - 1e-12:
                continue  # outside the Gibbs solver's domain; f_h is log dim there
            w = _parent_gibbs_spectrum(h, e)
            assert np.array_equal(gibbs_spectrum(h, e), w)
            u = h.eigenbasis
            ref = np.diag(w).astype(np.complex128) if u is None else (u * w) @ u.conj().T
            assert np.array_equal(gibbs_state(h, e).entries, DensityMatrix(single_factor("A", h.dim), ref).entries)

    @pytest.mark.parametrize("kind", _PARENT_SPECTRA)
    def test_f_h_in_lockstep(self, kind):
        h = _PARENT_SPECTRA[kind]()
        energies = _parent_energies(h, sum(map(ord, kind)))
        ref = [_parent_f_h(h, e) for e in energies.tolist()]
        assert np.array_equal(f_h(h, energies), ref)
        assert np.array_equal(f_h(h, energies[::-1]), ref[::-1])
        assert np.array_equal(f_h(h, energies.reshape(-1, 2)), np.reshape(ref, (-1, 2)))
        assert isinstance(f_h(h, float(energies[0])), float)

    @pytest.mark.parametrize("truncation", [6, 8, 40])
    def test_tail_warning_fires_once_per_call(self, truncation):
        h = OscillatorSpec(1, (1.0,), truncation=truncation).to_hamiltonian()
        energies = [e for e in _parent_energies(h, truncation).tolist() if e < h.uniform_energy]
        heavy = [e for e in energies if _parent_heavy_tail(h, e)]
        assert heavy
        for e in energies:
            for fn in (gibbs_spectrum, gibbs_state, f_h):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    fn(h, e)
                assert len(caught) == (e in heavy)
                if caught:
                    assert caught[0].category is TruncationTailWarning and f"at energy {e};" in str(caught[0].message)
                    assert caught[0].filename == __file__  # attributed to the caller
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f_h(h, np.array(energies))
        assert len(caught) == 1 and f"at energy {heavy[0]};" in str(caught[0].message)

    @pytest.mark.parametrize("kind", ["levels", "double_ground", "osc6"])
    def test_domain_errors_match_parent(self, kind):
        h = _PARENT_SPECTRA[kind]()
        below = h.ground_energy - 1e-9
        for fn in (gibbs_spectrum, f_h):
            with pytest.raises(EnergyDomainError, match=re.escape(f"energy {below} below ground energy {h.ground_energy}")):
                fn(h, below)
            with pytest.raises(EnergyDomainError, match="energy nan outside feasible interval"):
                fn(h, math.nan)
        with pytest.raises(EnergyDomainError, match="outside feasible interval"):
            gibbs_spectrum(h, h.max_energy)


class TestMaxEntropyFunctions:
    def test_f_at_ground_is_log_multiplicity(self):
        h = Hamiltonian(np.array([0.0, 0.0, 0.0, 1.0]))
        assert abs(f_h(h, 0.0) - math.log(3)) < 1e-12

    def test_strictly_increasing_then_concave(self, osc60):
        h = osc60.to_hamiltonian()
        grid = np.linspace(0.6, 10.0, 12)
        vals = [f_h(h, e) for e in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # midpoint concavity on the grid
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert b >= (a + c) / 2 - 1e-9

    def test_oscillator_closed_form_matches_gibbs_entropy(self, osc60):
        h = osc60.to_hamiltonian()
        assert abs(f_h(h, 2.0) - g(2.0 - 0.5)) < 1e-6

    def test_f_bar_inverse_round_trip(self, osc60):
        h = osc60.to_hamiltonian()
        for e_bar in (0.4, 1.3, 4.0):
            assert abs(f_bar_inverse(h, f_bar(h, e_bar)) - e_bar) < 1e-8

    @pytest.mark.parametrize("kind", ["levels", "arange8", "degenerate", "osc40"])
    def test_gamma_matches_mpmath(self, kind):
        # gamma(d) = f_bar^{-1}(log d) against a 40-digit root of the Gibbs entropy in lambda
        mp = pytest.importorskip("mpmath").mp
        h = {
            "levels": Hamiltonian(np.array([0.0, 1.0, 2.0, 3.0])),
            "arange8": Hamiltonian(np.arange(8.0)),
            "degenerate": Hamiltonian(np.array([0.5, 0.5, 1.0, 2.0, 4.0])),
            "osc40": OscillatorSpec(1, (1.0,), truncation=40).to_hamiltonian(),
        }[kind]
        top = 30 if kind == "osc40" else h.dim - 1
        with mp.workdps(40):
            shifted = [mp.mpf(float(e)) - mp.mpf(h.ground_energy) for e in h.eigenvalues]

            def weights(lam):
                w = [mp.exp(-lam * e) for e in shifted]
                z = mp.fsum(w)
                return [x / z for x in w]

            def entropy(lam):
                return -mp.fsum(w * mp.log(w) for w in weights(lam))

            for d in range(h.ground_multiplicity + 1, top + 1):
                y = mp.log(d)
                lo, hi = mp.mpf(0), mp.mpf(1)
                while entropy(hi) > y:
                    lo, hi = hi, 2 * hi
                lam = mp.findroot(lambda x: entropy(x) - y, (lo, hi), solver="anderson")
                ref = mp.fsum(w * e for w, e in zip(weights(lam), shifted))
                assert abs(gamma(h, d) - float(ref)) <= 1e-12

    def test_inverse_domain_checks(self):
        h = Hamiltonian(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(EnergyDomainError):
            f_bar_inverse(h, math.log(2) - 0.1)
        with pytest.raises(EnergyDomainError):
            f_bar_inverse(h, math.log(3) + 0.1)
        with pytest.raises(EnergyDomainError):
            f_bar_inverse(h, math.nan)

    def test_gamma_nondecreasing(self, osc60):
        h = osc60.to_hamiltonian()
        vals = [gamma(h, d) for d in range(1, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert gamma(h, 1) == 0.0

    def test_gamma_memoized_identity(self, osc60):
        h = osc60.to_hamiltonian()
        assert gamma(h, 7) == gamma(h, 7)

    @pytest.mark.parametrize("kind", _GAMMA_SPECTRA)
    def test_gammas_match_scalar_inverse(self, kind):
        # one lockstep solve gives each gamma(d) the bits of its own scalar bisection
        h = _GAMMA_SPECTRA[kind]()
        ds = range(h.ground_multiplicity, h.dim + 1)
        assert h.gammas.tolist() == [_scalar_f_bar_inverse(h, math.log(d)) for d in ds]
        assert [gamma(h, d) for d in ds] == h.gammas.tolist()

    def test_f_bar_inverse_matches_scalar_inverse(self):
        h = _GAMMA_SPECTRA["underflow43"]()
        for y in np.linspace(0.0, math.log(h.dim), 25):
            assert f_bar_inverse(h, float(y)) == _scalar_f_bar_inverse(h, float(y))

    def test_gammas_read_only_and_cached(self):
        h = Hamiltonian(np.array([0.0, 0.0, 1.0, 2.0, 3.0]))
        assert h.gammas is h.gammas
        assert h.gammas.shape == (4,) and h.gammas[0] == 0.0
        with pytest.raises(ValueError):
            h.gammas[1] = 1.0
        for d in (1, 6):
            with pytest.raises(EnergyDomainError):
                gamma(h, d)


class TestOscillatorClosedForms:
    @pytest.mark.parametrize("frequencies, hbar", [
        ((math.nan,), 1.0), ((math.inf,), 1.0), ((1.0,), math.nan), ((1.0,), math.inf),
    ])
    def test_non_finite_spec_rejected(self, frequencies, hbar):
        with pytest.raises(QStateError, match="finite"):
            OscillatorSpec(1, frequencies, hbar=hbar)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_energy_rejected(self, bad):
        spec = OscillatorSpec(1, (1.0,))
        with pytest.raises(EnergyDomainError, match="finite"):
            oscillator_f(spec, bad)
        with pytest.raises(EnergyDomainError, match="finite"):
            oscillator_f_bar(spec, bad)

    def test_f_formula_instance(self):
        spec = OscillatorSpec(1, (1.0,))
        assert abs(oscillator_f(spec, 5.0) - (math.log(5.5) + 1.0)) < 1e-14

    def test_ground_and_geometric_energy(self):
        spec = OscillatorSpec(2, (1.0, 4.0), hbar=1.0)
        assert spec.ground_energy == 2.5
        assert abs(spec.geometric_energy - 2.0) < 1e-12

    def test_gamma_hat_below_gamma(self, osc60):
        h = osc60.to_hamiltonian()
        for d in range(3, 21):
            assert oscillator_gamma_hat(osc60, d) <= gamma(h, d) + 1e-9

    def test_gamma_hat_domain(self, osc60):
        dmin = oscillator_gamma_hat_domain_min(osc60)
        assert dmin == 3
        with pytest.raises(EnergyDomainError):
            oscillator_gamma_hat(osc60, 2)

    def test_closed_form_upper_bounds_truncated(self, osc60):
        h = osc60.to_hamiltonian()
        for e in (1.0, 2.0, 5.0, 10.0):
            assert oscillator_f(osc60, e) >= f_h(h, e) - 1e-12

    def test_sharpness_improves_with_energy(self, osc60):
        h = osc60.to_hamiltonian()
        gaps = [oscillator_f(osc60, e) - f_h(h, e) for e in (2.0, 5.0, 10.0)]
        assert all(gap > 0 for gap in gaps)
        assert gaps[0] > gaps[-1]


class TestSFlag:
    def test_oscillator_closed_form_is_zero(self):
        assert check_s_flag(OscillatorSpec(2, (1.0, 2.0))) == 0

    def test_two_level_grid_decision(self):
        assert check_s_flag(Hamiltonian(np.array([0.0, 1.0]))) == 1

    @pytest.mark.parametrize("spectrum, flag", [
        ([0.0, 1.0, 2.0, 3.0], 1),  # prop8's default
        (list(range(8)), 1),
        ([0.5, 0.5, 1.0, 2.0, 4.0], 0),
        ([0.0, 0.0, 1.0, 5.0], 0),
        ([0.0, 1e-3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 0),  # 0 on the grid, though not below top/1000
    ])
    def test_pinned_flags(self, spectrum, flag):
        assert check_s_flag(Hamiltonian(np.array(spectrum, dtype=float))) == flag

    @pytest.mark.parametrize("kind", _LOCKSTEP_SPECTRA)
    def test_grid_values_match_pointwise_f_bar(self, kind):
        # the lockstep grid is bit-identical to f_bar(h, e) / sqrt(e) point by point
        h = Hamiltonian(np.array(_LOCKSTEP_SPECTRA[kind], dtype=float))
        top = max(h.uniform_energy - h.ground_energy, 1e-6)
        grid = np.linspace(top * 1e-3, top, 60)
        ref = np.array([f_bar(h, e) / math.sqrt(e) for e in grid])
        assert np.array_equal(_s_flag_grid(h), ref)

    def test_truncated_grid_warns(self):
        with pytest.warns(TruncationTailWarning):
            check_s_flag(OscillatorSpec(1, (1.0,), truncation=8).to_hamiltonian())

    def test_constant_spectrum(self):
        assert check_s_flag(Hamiltonian(np.zeros(4))) == 0


class TestTruncation:
    def _ham(self):
        return Hamiltonian(np.arange(8.0))

    def test_full_rank_is_identity(self, gen):
        h = self._ham()
        lay = SystemLayout([("A", 8), ("B", 4)])
        psi = mix_to_cap(gen.pure(lay), EnergyCap(h, 1.0, lay))
        out = truncate_pure_state(psi, "A", h, 1.0, 8)
        overlap = abs(np.vdot(out.amplitudes, psi.amplitudes))
        assert overlap > 1 - 1e-10

    def test_all_four_claims(self, gen):
        h = self._ham()
        lay = SystemLayout([("A", 8), ("B", 4)])
        h_bar = h.to_matrix(shift=h.ground_energy)
        for trial in range(40):
            d = 2 if trial % 2 == 0 else 4
            e_cap = min(0.9 * gamma(h, d), 1.2)
            psi = mix_to_cap(gen.pure(lay), EnergyCap(h, e_cap, lay))
            sig = truncate_pure_state(psi, "A", h, e_cap, d)
            rho_m, sig_m = psi.to_density(), sig.to_density()
            sig_a = partial_trace(sig_m, ("A",)).entries
            assert int((np.linalg.eigvalsh(sig_a) > 1e-10).sum()) <= d
            assert float(np.real(np.trace(h.to_matrix() @ sig_a))) <= e_cap + 1e-9
            dist = 0.5 * trace_norm(rho_m.entries - sig_m.entries)
            assert dist <= math.sqrt(e_cap / gamma(h, d)) + 1e-9
            diff = HermitianOperator.difference(rho_m, sig_m)
            tn = trace_norm(diff.entries)
            for part in jordan_parts(diff):
                reduced = partial_trace_hermitian(part, ("A",))
                val = tn * float(np.real(np.trace(h_bar @ reduced.entries)))
                assert val <= 2 * e_cap + 1e-9

    def test_delta_bound_intermediate(self, gen):
        # the dropped Schmidt weight obeys delta_d <= E_bar / gamma(d)
        h = self._ham()
        lay = SystemLayout([("A", 8), ("B", 4)])
        for _ in range(10):
            d = 4
            e_cap = 0.8 * gamma(h, d)
            psi = mix_to_cap(gen.pure(lay), EnergyCap(h, e_cap, lay))
            sig = truncate_pure_state(psi, "A", h, e_cap, d)
            overlap2 = abs(np.vdot(psi.amplitudes, sig.amplitudes)) ** 2
            delta = 1 - overlap2
            assert delta <= e_cap / gamma(h, d) + 1e-9

    def test_preconditions(self, gen):
        h = self._ham()
        lay = SystemLayout([("A", 8), ("B", 4)])
        cap = EnergyCap(h, 1.0, lay)
        psi = mix_to_cap(gen.pure(lay), cap)
        with pytest.raises(EnergyDomainError):
            truncate_pure_state(psi, "A", h, 1.0, 1)  # gamma(1) = 0 < E_bar
        hot = gen.pure(lay)
        energy = cap.energy(hot.amplitudes)
        with pytest.raises(EnergyDomainError):
            truncate_pure_state(hot, "A", h, energy - 1.0, 4)


class TestEnergyCap:
    def _a_energy(self, h, state):
        rho = state if isinstance(state, DensityMatrix) else state.to_density()
        return float(np.real(np.trace(h.to_matrix() @ partial_trace(rho, ("A",)).entries)))

    def test_cap_below_ground_energy_rejected(self, gen):
        from chanbound.harness.suites import CampaignConfig, run_suite

        h = Hamiltonian(np.array([1.0, 2.0, 3.0, 4.0]))
        lay = SystemLayout([("A", 4), ("B", 2)])
        with pytest.raises(EnergyDomainError, match=r"0\.5.*1\.0"):
            gen.energy_feasible_pure(lay, "A", h, 0.5)
        with pytest.raises(EnergyDomainError, match=r"0\.5.*1\.0"):
            mix_to_cap(gen.density(lay), EnergyCap(h, 0.5, lay))
        energy = {"kind": "spectrum", "eigenvalues": [1, 2, 3, 4], "E": 0.5}
        with pytest.raises(EnergyDomainError, match=r"0\.5.*1\.0"):
            run_suite(CampaignConfig(suite="prop7", trials=2, seed=7, energy=energy))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cap_rejected(self, bad):
        h = Hamiltonian(np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(EnergyDomainError):
            EnergyCap(h, bad)
        with pytest.raises(EnergyDomainError):
            EnergyCap(h, bad, SystemLayout([("A", 4), ("B", 2)]))
        with pytest.raises(EnergyDomainError):
            cap_weight(2.0, bad, 1.0)

    def test_rotated_eigenbasis(self, gen):
        # ground space spanned by rotated vectors: every input form must be
        # mixed toward them, not toward the computational basis
        h = Hamiltonian(np.array([0.0, 0.0, 1.0, 3.0]), eigenbasis=gen.unitary(4))
        lay = SystemLayout([("A", 4), ("B", 2)])
        for e_cap in (1e-3, 0.4):
            cap = EnergyCap(h, e_cap, lay)
            for _ in range(10):
                drawn = gen.density(lay)
                rho = mix_to_cap(drawn, cap)
                if self._a_energy(h, drawn) > e_cap:
                    # the closed-form weight lands exactly on the cap
                    assert abs(self._a_energy(h, rho) - e_cap) <= 1e-12
                else:
                    assert rho is drawn
                psi = mix_to_cap(gen.pure(lay), cap)
                assert self._a_energy(h, psi) <= e_cap + 1e-12
            drawn_ens = gen.ensemble(single_factor("A", 4), 3)
            # the raw average is exactly Hermitian, so validation leaves it unchanged
            assert np.array_equal(drawn_ens.average_entries(), drawn_ens.average_state().entries)
            ens = mix_to_cap(drawn_ens, EnergyCap(h, e_cap))
            avg = float(np.real(np.trace(h.to_matrix() @ ens.average_state().entries)))
            assert avg <= e_cap + 1e-12

    def test_pure_mix_matches_bisection(self, gen):
        # the quadratic's root against the 80-step bisection it replaced.  Caps
        # within ~1e-8 of E_0 > 0 are left out here: there the exact check itself
        # resolves the vector to ~1e-11 only, for either method
        mixed = 0
        for k in range(700):
            state, cap = _mix_instance(gen, k)
            vec = mix_to_cap(state, cap)
            if vec is state:
                assert cap.energy(state) <= cap.bound
                continue
            mixed += 1
            assert cap.energy(vec) <= cap.bound
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
            assert np.max(np.abs(vec - _bisected_mix(state, cap))) <= 1e-12
        assert mixed >= 500

    def test_pure_mix_at_ground_cap_or_flat_hamiltonian(self, gen):
        # the quadratic's coefficients are rounding noise here, so only unit
        # norm and feasibility are required; the latter to 1e-12, since at
        # weight 1 the ground vector's computed energy may exceed E_0 by ulps
        for k in range(200):
            state, cap = _mix_instance(gen, k, excess=0.0)
            vec = mix_to_cap(state, cap)
            assert cap.energy(vec) <= cap.bound + 1e-12
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        for level in (0.0, 0.7, 2.5):
            for k in range(20):
                lay = SystemLayout([("A", 3), ("B", 2)] if k % 2 else [("B", 2), ("A", 3)])
                h = Hamiltonian(np.full(3, level), eigenbasis=gen.unitary(3) if k % 4 > 1 else None)
                cap = EnergyCap(h, level, lay)
                vec = mix_to_cap(gen.pure(lay).amplitudes, cap)
                assert cap.energy(vec) <= cap.bound + 1e-12
                assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12

    def test_pure_state_under_cap_is_returned_unchanged(self, gen):
        h = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        lay = SystemLayout([("A", 3), ("B", 2)])
        cap = EnergyCap(h, 1.9, lay)
        for _ in range(20):
            psi = gen.pure(lay)
            if cap.energy(psi.amplitudes) <= cap.bound:
                assert mix_to_cap(psi, cap) is psi
                assert mix_to_cap(psi.amplitudes, cap) is psi.amplitudes

    def test_pure_mix_steps_past_a_failed_exact_check(self, gen, monkeypatch):
        # the first exact check of the blend reports one ulp over the cap; the
        # weight must step toward the ground until the true check passes
        true_energy = EnergyCap.energy
        for k in range(40):
            state, cap = _mix_instance(gen, k)
            if cap.energy(state) <= cap.bound:
                continue
            checks = []

            def energy(self, vec, state=state, checks=checks):
                if vec is state:
                    return true_energy(self, vec)
                checks.append(vec)
                if len(checks) == 1:
                    return float(np.nextafter(self.bound, np.inf))
                return true_energy(self, vec)

            monkeypatch.setattr(EnergyCap, "energy", energy)
            vec = mix_to_cap(state, cap)
            monkeypatch.setattr(EnergyCap, "energy", true_energy)
            assert len(checks) >= 2
            assert vec is checks[-1] and not np.array_equal(vec, checks[0])
            assert cap.energy(vec) <= cap.bound
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
