import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from chanbound.qstate import (
    EIGENVALUE_FLOOR,
    DensityMatrix,
    HermitianOperator,
    PureState,
    QStateError,
    SystemLayout,
    basis_pure,
    eigh,
    jordan_parts,
    maximally_mixed,
    operator_norm,
    partial_trace,
    partial_trace_hermitian,
    purify,
    tensor_product,
    trace_distance,
    trace_norm,
)
from chanbound import qstate
from conftest import random_hermitian

pytestmark = pytest.mark.two_blas_threads


def bell_state(layout):
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    return PureState(layout, vec).to_density()


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(QStateError):
            SystemLayout([("A", 2), ("A", 3)])

    def test_guard_rejects_huge_dims(self):
        with pytest.raises(QStateError):
            SystemLayout([("A", 5000)])

    def test_total_dim(self):
        lay = SystemLayout([("A", 2), ("B", 3), ("C", 4)])
        assert lay.total_dim == 24
        assert lay.dims == (2, 3, 4)
        assert lay.position("B") == 1


class TestDensityMatrix:
    def test_trace_validation(self):
        lay = SystemLayout([("A", 2)])
        with pytest.raises(QStateError):
            DensityMatrix(lay, np.diag([0.7, 0.7]))

    def test_negative_eigenvalue_rejected(self):
        lay = SystemLayout([("A", 2)])
        with pytest.raises(QStateError):
            DensityMatrix(lay, np.diag([1.2, -0.2]))

    def test_symmetrization(self):
        lay = SystemLayout([("A", 2)])
        m = np.array([[0.5, 0.1 + 1e-11j], [0.1, 0.5]], dtype=complex)
        rho = DensityMatrix(lay, m)
        assert np.allclose(rho.entries, rho.entries.conj().T)

    def test_spectrum_kept_read_only(self, gen):
        rho = gen.density(SystemLayout([("A", 3), ("B", 2)]))
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.entries))
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0.5
        assert "spectrum" not in repr(rho)

    def test_spectrum_sums_to_one(self, gen):
        lay = SystemLayout([("A", 5)])
        for _ in range(20):
            w = np.linalg.eigvalsh(gen.density(lay).entries)
            assert abs(w.sum() - 1) < 1e-9
            assert w.min() >= -1e-9


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNonFiniteRejected:
    """inf and NaN fail every validator: no check is written as a comparison that NaN passes."""

    @pytest.mark.parametrize("cls", [DensityMatrix, HermitianOperator])
    @pytest.mark.parametrize("where", ["off_diagonal_pair", "diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [2, 40])  # d = 40 takes the Cholesky PSD check
    def test_operator_entries(self, cls, where, bad, d):
        entries = np.eye(d, dtype=complex) / d
        if where == "diagonal":
            entries[0, 0] = bad
        else:
            entries[0, 1] = entries[1, 0] = bad
        with pytest.raises(QStateError):
            cls(SystemLayout([("A", d)]), entries)

    @pytest.mark.parametrize("amplitudes", [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [1.0, np.nan * 1j]])
    def test_pure_state_amplitudes(self, amplitudes):
        with pytest.raises(QStateError):
            PureState(SystemLayout([("A", 2)]), np.array(amplitudes))


class TestExactlyHermitianInput:
    def test_copied_bit_for_bit(self, gen):
        """Exactly Hermitian input comes back as its symmetrisation, as a read-only copy."""
        lay = SystemLayout([("A", 6)])
        g = random_hermitian(gen.rng, 6)
        for m in (g, gen.density(lay).entries, np.diag([0.25, -0.0, 1.0, 2.0, 0.0, 3.0]) + 0j):
            assert np.array_equal(m, m.conj().T)
            op = HermitianOperator(lay, m)
            assert op.entries.tobytes() == ((m + m.conj().T) / 2.0).tobytes()
            assert not np.shares_memory(op.entries, m)
            assert not op.entries.flags.writeable

    def test_inexact_input_symmetrised_or_rejected(self, gen):
        g = gen.rng.standard_normal((6, 6)) + 1j * gen.rng.standard_normal((6, 6))
        m = np.outer(g[0], g[0].conj()) + 1e-12j * (g - g.T)
        assert not np.array_equal(m, m.conj().T)
        op = HermitianOperator(SystemLayout([("A", 6)]), m)
        assert np.array_equal(op.entries, (m + m.conj().T) / 2.0)
        with pytest.raises(QStateError):
            HermitianOperator(SystemLayout([("A", 2)]), np.array([[0.5, 0.1 + 1e-7j], [0.1, 0.5]]))


def _haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _eigvalsh_rule(entries):
    """The PSD rule before the Cholesky check: the error text, or None to accept."""
    sym = (entries + entries.conj().T) / 2.0
    lo = float(np.linalg.eigvalsh(sym)[0])
    if lo < EIGENVALUE_FLOOR:
        return f"negative eigenvalue {lo:.3e} below floor {EIGENVALUE_FLOOR}"
    return None


def _floor_sweep_states(rng, d):
    """U diag(λ) U* with λ_min at and around the floor, plus rank-deficient states."""
    u = _haar_unitary(rng, d)
    spectra = []
    for k in (-500, -100, -10, -1, 0, 1, 10):
        lam_min = EIGENVALUE_FLOOR * (1 + k * 1e-3)
        rest = rng.random(d - 1)
        spectra.append(np.concatenate(([lam_min], rest / rest.sum() * (1 - lam_min))))
    spectra.append(np.eye(d)[-1])  # pure
    spectra.append(np.concatenate((np.zeros(d - d // 2), np.full(d // 2, 1 / (d // 2)))))
    return [(u * lam) @ u.conj().T for lam in spectra]


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Shapes of the arguments of every np.linalg.eigvalsh call from here on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


class TestPsdCheck:
    """The shifted Cholesky check against the eigvalsh rule it replaced."""

    @pytest.mark.parametrize("d", [2, 8, 40, 160, 512])
    def test_floor_sweep_matches_eigvalsh_rule(self, d):
        rng = np.random.default_rng(9000 + d)
        lay = SystemLayout([("A", d)])
        outcomes = []
        for entries in _floor_sweep_states(rng, d):
            expected = _eigvalsh_rule(entries)
            if qstate._certainly_above_floor((entries + entries.conj().T) / 2.0):
                assert expected is None
            if expected is None:
                DensityMatrix(lay, entries)
            else:
                with pytest.raises(QStateError) as err:
                    DensityMatrix(lay, entries)
                assert str(err.value) == expected
            outcomes.append(expected is None)
        assert any(outcomes) and not all(outcomes)

    def test_margin_decides_the_fast_path(self):
        assert qstate._cholesky_margin(160) < -EIGENVALUE_FLOOR
        assert qstate._cholesky_margin(512) >= -EIGENVALUE_FLOOR
        rng = np.random.default_rng(9001)
        for d, fast in ((2, True), (160, True), (512, False)):
            vec = _haar_unitary(rng, d)[:, 0]
            pure = np.outer(vec, vec.conj())
            assert qstate._certainly_above_floor((pure + pure.conj().T) / 2.0) is fast

    def test_fast_path_accepts_just_above_floor(self):
        rng = np.random.default_rng(9002)
        u = _haar_unitary(rng, 2)
        lam = np.array([EIGENVALUE_FLOOR * 0.999, 1 - EIGENVALUE_FLOOR * 0.999])
        entries = (u * lam) @ u.conj().T
        sym = (entries + entries.conj().T) / 2.0
        assert qstate._certainly_above_floor(sym)
        assert _eigvalsh_rule(entries) is None

    def test_construction_calls_no_eigvalsh(self, eigvalsh_calls):
        rng = np.random.default_rng(9003)
        lay = SystemLayout([("A", 40)])
        g = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        w = g @ g.conj().T
        rho = DensityMatrix(lay, w / np.trace(w).real)
        PureState(lay, _haar_unitary(rng, 40)[:, 0]).to_density()
        assert eigvalsh_calls == []
        first = rho.spectrum
        assert eigvalsh_calls == [(40, 40)]
        assert rho.spectrum is first
        assert eigvalsh_calls == [(40, 40)]
        assert np.array_equal(first, np.linalg.eigvalsh(rho.entries))
        with pytest.raises(ValueError):
            first[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.spectrum = first.copy()

    def test_small_states_keep_the_spectrum_of_their_check(self, gen, eigvalsh_calls):
        d = qstate.CHOLESKY_MIN_DIM - 1
        rho = gen.density(SystemLayout([("A", d)]))
        assert eigvalsh_calls == [(d, d)]
        assert not rho.spectrum.flags.writeable
        assert eigvalsh_calls == [(d, d)]

    def test_fallback_keeps_the_spectrum_it_computed(self, eigvalsh_calls):
        rng = np.random.default_rng(9004)
        u = _haar_unitary(rng, 512)
        rho = DensityMatrix(SystemLayout([("A", 512)]), (u / 512) @ u.conj().T)
        assert eigvalsh_calls == [(512, 512)]
        spectrum = rho.spectrum
        assert eigvalsh_calls == [(512, 512)]
        assert np.array_equal(spectrum, np.linalg.eigvalsh(rho.entries))
        assert not spectrum.flags.writeable

    def test_concurrent_first_reads_agree(self):
        rng = np.random.default_rng(9005)
        lay = SystemLayout([("A", 40)])
        states = []
        for _ in range(12):
            g = rng.standard_normal((40, 8)) + 1j * rng.standard_normal((40, 8))
            w = g @ g.conj().T
            states.append(DensityMatrix(lay, w / np.trace(w).real))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [(i, pool.submit(lambda r: r.spectrum, rho))
                           for i, rho in enumerate(states) for _ in range(8)]
                reads = [(i, f.result(timeout=60)) for i, f in futures]
        finally:
            sys.setswitchinterval(switch)
        for i, w in reads:
            assert np.array_equal(w, states[i].spectrum)
            assert np.array_equal(w, np.linalg.eigvalsh(states[i].entries))


class TestTensorProduct:
    def test_identity_case(self):
        a = maximally_mixed(SystemLayout([("A", 2)]))
        b = maximally_mixed(SystemLayout([("B", 2)]))
        out = tensor_product(a, b)
        assert np.allclose(out.entries, np.eye(4) / 4)
        assert out.layout.labels == ("A", "B")

    def test_trace_multiplicative(self, gen):
        rng = gen.rng
        for _ in range(10):
            a = HermitianOperator(SystemLayout([("A", 2)]), random_hermitian(rng, 2))
            b = HermitianOperator(SystemLayout([("B", 2)]), random_hermitian(rng, 2))
            out = tensor_product(a, b)
            assert abs(out.trace() - a.trace() * b.trace()) < 1e-10

    def test_computational_basis(self):
        zero = basis_pure(SystemLayout([("A", 2)]), 0).to_density()
        one = basis_pure(SystemLayout([("B", 2)]), 1).to_density()
        out = tensor_product(zero, one)
        assert np.allclose(out.entries, np.diag([0, 1, 0, 0]))

    def test_duplicate_label_rejected(self):
        a = maximally_mixed(SystemLayout([("A", 2)]))
        with pytest.raises(QStateError):
            tensor_product(a, a)


class TestPartialTrace:
    def test_product_state(self, gen):
        rho_a = gen.density(SystemLayout([("A", 2)]))
        rho_b = gen.density(SystemLayout([("B", 3)]))
        joint = tensor_product(rho_a, rho_b)
        back = partial_trace(joint, ("A",))
        assert np.allclose(back.entries, rho_a.entries, atol=1e-12)

    def test_bell_marginal(self, qubit_pair):
        rho = bell_state(qubit_pair)
        assert np.allclose(partial_trace(rho, ("A",)).entries, np.eye(2) / 2, atol=1e-12)

    def test_composition_matches_single_shot(self, gen):
        lay = SystemLayout([("A", 2), ("B", 2), ("C", 2)])
        for _ in range(10):
            rho = gen.density(lay)
            two_step = partial_trace(partial_trace(rho, ("A", "B")), ("A",))
            one_step = partial_trace(rho, ("A",))
            assert np.allclose(two_step.entries, one_step.entries, atol=1e-12)

    def test_commutes_over_disjoint_labels(self, gen):
        lay = SystemLayout([("A", 2), ("B", 2), ("C", 2)])
        for _ in range(10):
            rho = gen.density(lay)
            ab = partial_trace(partial_trace(rho, ("A", "C")), ("A",))
            ba = partial_trace(partial_trace(rho, ("A", "B")), ("A",))
            assert np.max(np.abs(ab.entries - ba.entries)) < 1e-10

    def test_unknown_label_rejected(self, gen, qubit_pair):
        with pytest.raises(QStateError):
            partial_trace(gen.density(qubit_pair), ("Z",))


def _uncached_partial_trace(state, keep):
    """The partial trace as it was built on every call, with no plan cache: the
    einsum spec for a density, the kept axes moved first for a pure state."""
    layout, keep_set = state.layout, set(keep)
    keep_idx = [i for i, (lbl, _) in enumerate(layout.factors) if lbl in keep_set]
    reduced = SystemLayout([layout.factors[i] for i in keep_idx])
    d = reduced.total_dim
    if isinstance(state, PureState):
        m = np.moveaxis(state.amplitudes.reshape(layout.dims), keep_idx, range(len(keep_idx)))
        return qstate.gram_density(reduced, m.reshape(d, -1))
    n, letters = len(layout.dims), qstate._AXIS_LETTERS
    row = [letters[i] for i in range(n)]
    col = [letters[n + i] if i in keep_idx else letters[i] for i in range(n)]
    out = [letters[i] for i in keep_idx] + [letters[n + i] for i in keep_idx]
    spec = "".join(row) + "".join(col) + "->" + "".join(out)
    return DensityMatrix(reduced, np.einsum(spec, state.entries.reshape(layout.dims + layout.dims)).reshape(d, d))


class TestTracePlanCache:
    """The partial trace's plan is cached by (layout, keep set): structure only, never entries."""

    LAYOUT = SystemLayout([("C", 2), ("A", 3), ("D", 2), ("R", 2)])

    @staticmethod
    def _spellings(keep):
        """The keep set as a tuple, a list, reversed and with a label repeated."""
        return [tuple(keep), list(keep), tuple(reversed(keep)), list(keep) + [keep[0]]]

    @pytest.mark.parametrize("keep", [("A",), ("C", "D"), ("A", "R"), ("C", "A", "R")], ids="-".join)
    def test_every_spelling_matches_the_uncached_expression(self, gen, keep):
        qstate._trace_plan.cache_clear()
        for _ in range(2):
            rho, psi = gen.density(self.LAYOUT), gen.pure(self.LAYOUT)
            want, pure_want = _uncached_partial_trace(rho, keep), _uncached_partial_trace(psi, keep)
            for spelling in self._spellings(keep):
                got, pure = partial_trace(rho, spelling), partial_trace(psi, spelling)
                assert got.layout == want.layout and np.array_equal(got.entries, want.entries)
                assert pure.layout == want.layout and np.array_equal(pure.entries, pure_want.entries)
                herm = partial_trace_hermitian(rho.as_hermitian(), spelling)
                assert herm.layout == want.layout and np.array_equal(herm.entries, want.entries)
        # one plan per keep set, whatever its spelling
        assert qstate._trace_plan.cache_info().currsize == 1

    def test_full_keep_returns_the_state(self, gen):
        rho = gen.density(self.LAYOUT)
        for spelling in self._spellings(self.LAYOUT.labels):
            assert partial_trace(rho, spelling) is rho

    def test_equal_dims_different_labels_get_their_own_plans(self, gen):
        layouts = [SystemLayout([("A", 2), ("B", 3)]), SystemLayout([("X", 2), ("Y", 3)]),
                   SystemLayout([("A", 3), ("B", 2)])]
        for lay, keep in zip(layouts, ("A", "X", "A")):
            for state in (gen.density(lay), gen.pure(lay)):
                out = partial_trace(state, (keep,))
                assert out.layout == SystemLayout([lay.factors[0]])
                assert out.entries.shape == (lay.dims[0], lay.dims[0])

    @pytest.mark.parametrize("keep, message", [(("Z",), "unknown labels"), ((), "keep set must be non-empty")])
    def test_errors_are_raised_again_not_cached(self, gen, keep, message):
        messages = []
        for state in (gen.density(self.LAYOUT), gen.pure(self.LAYOUT)) * 2:
            with pytest.raises(QStateError, match=message) as err:
                partial_trace(state, keep)
            messages.append(str(err.value))
        with pytest.raises(QStateError, match=message):
            partial_trace_hermitian(gen.density(self.LAYOUT).as_hermitian(), keep)
        assert len(set(messages)) == 1


class TestEigh:
    def test_diagonal(self):
        op = HermitianOperator(SystemLayout([("A", 3)]), np.diag([3.0, 1.0, 2.0]))
        w, _ = eigh(op)
        assert np.allclose(w, [1, 2, 3])

    def test_pauli_x(self):
        op = HermitianOperator(SystemLayout([("A", 2)]), np.array([[0, 1], [1, 0]], dtype=complex))
        w, _ = eigh(op)
        assert np.allclose(w, [-1, 1])

    def test_reconstruction_residual(self, gen):
        lay = SystemLayout([("A", 8)])
        op = HermitianOperator(lay, random_hermitian(gen.rng, 8))
        w, u = eigh(op)
        assert np.linalg.norm((u * w) @ u.conj().T - op.entries, 2) <= 1e-9

    def test_frobenius_residual_rejected(self, gen, monkeypatch):
        # two eigenvalues off by 0.8e-9 each: the operator-norm residual stays
        # below 1e-9, the Frobenius residual (~1.13e-9) does not
        lay = SystemLayout([("A", 4)])
        op = HermitianOperator(lay, random_hermitian(gen.rng, 4))
        w, u = np.linalg.eigh(op.entries)
        w_bad = w + np.array([0.8e-9, 0.0, -0.8e-9, 0.0])
        residual = (u * w_bad) @ u.conj().T - op.entries
        assert np.linalg.norm(residual, 2) < 1e-9 < np.linalg.norm(residual)
        monkeypatch.setattr(np.linalg, "eigh", lambda mat: (w_bad, u))
        with pytest.raises(QStateError, match="Frobenius residual"):
            eigh(op)


class TestNorms:
    def test_density_trace_norm_one(self, gen):
        assert abs(trace_norm(gen.density(SystemLayout([("A", 4)])).entries) - 1) < 1e-12

    def test_orthogonal_pure_difference(self):
        lay = SystemLayout([("A", 2)])
        a = basis_pure(lay, 0).to_density()
        b = basis_pure(lay, 1).to_density()
        assert abs(trace_norm(a.entries - b.entries) - 2.0) < 1e-12

    def test_trace_norm_vs_independent_svd_oracle(self, gen):
        rng = gen.rng
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        # independent oracle: singular values via the Gram spectrum
        oracle = np.sqrt(np.clip(np.linalg.eigvalsh(m.conj().T @ m), 0, None)).sum()
        assert abs(trace_norm(m) - oracle) < 1e-8

    def test_operator_norm_identity(self):
        assert abs(operator_norm(np.eye(4)) - 1.0) < 1e-14

    def test_operator_norm_vs_power_iteration(self, gen):
        rng = gen.rng
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        g = m.conj().T @ m
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v /= np.linalg.norm(v)
        for _ in range(3000):
            v = g @ v
            v /= np.linalg.norm(v)
        oracle = math.sqrt(float(np.real(v.conj() @ g @ v)))
        assert abs(operator_norm(m) - oracle) < 1e-8

    def test_hermitian_path_matches_svd(self, gen):
        for d in (2, 5, 16, 40):
            lay = SystemLayout([("A", d)])
            for a in (gen.density(lay).entries - gen.density(lay).entries, random_hermitian(gen.rng, d)):
                assert np.array_equal(a, a.conj().T)
                assert abs(trace_norm(a) - np.linalg.svd(a, compute_uv=False).sum()) <= 1e-12

    def test_non_hermitian_takes_svd(self, gen, monkeypatch):
        spectra = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(a) or eigvalsh(a))
        h = random_hermitian(gen.rng, 6)
        near = h.copy()
        near[0, 5] += 1e-3  # off the lower triangle, which eigvalsh alone reads
        assert abs(trace_norm(near) - np.linalg.svd(near, compute_uv=False).sum()) <= 1e-12
        assert abs(trace_norm(near[:, :4]) - np.linalg.svd(near[:, :4], compute_uv=False).sum()) <= 1e-12
        assert not spectra
        trace_norm(h)
        assert len(spectra) == 1

    def test_trace_distance_range(self, gen):
        lay = SystemLayout([("A", 3)])
        for _ in range(20):
            d = trace_norm(gen.density(lay).entries - gen.density(lay).entries)
            assert -1e-12 <= d <= 2 + 1e-12


class TestPurePath:
    """PureState marginals and trace distances computed on the vector match the projector's path."""

    LAYOUTS = [
        [("A", 2), ("B", 3)],
        [("A", 3), ("C", 2), ("D", 2)],
        [("C", 2), ("A", 4), ("D", 2), ("R", 3)],
        [("A", 40), ("C", 2), ("D", 2)],
    ]

    @pytest.mark.parametrize("factors", LAYOUTS, ids=lambda f: "".join(lbl for lbl, _ in f))
    def test_partial_trace_matches_density_path(self, gen, factors):
        lay = SystemLayout(factors)
        labels = lay.labels
        keeps = [labels[:1], labels[-1:], labels[1:], labels[::-1][:2], labels]
        for _ in range(3):
            psi = gen.pure(lay)
            rho = psi.to_density()
            for keep in keeps:
                got, want = partial_trace(psi, keep), partial_trace(rho, keep)
                assert isinstance(got, DensityMatrix)
                assert got.layout == want.layout
                assert np.linalg.norm(got.entries - want.entries) <= 1e-14
                assert np.array_equal(got.entries, got.entries.conj().T)
            assert np.array_equal(psi.marginal(labels[:1]).entries, partial_trace(psi, labels[:1]).entries)

    def test_partial_trace_rejects_unknown_labels(self, gen):
        psi = gen.pure(SystemLayout([("A", 2), ("B", 2)]))
        with pytest.raises(QStateError):
            partial_trace(psi, ("Z",))

    @pytest.mark.parametrize("d", [2, 5, 16, 160])
    def test_trace_distance_matches_eigvalsh(self, gen, d):
        lay = SystemLayout([("A", d)])
        for _ in range(6):
            psi, phi = gen.pure(lay), gen.pure(lay)
            want = 0.5 * np.abs(np.linalg.eigvalsh(psi.to_density().entries - phi.to_density().entries)).sum()
            assert abs(trace_distance(psi, phi) - want) <= 1e-14
            assert trace_distance(psi, psi) == 0.0

    def test_trace_distance_orthogonal_and_mixed_pairs(self, gen):
        lay = SystemLayout([("A", 3)])
        assert trace_distance(basis_pure(lay, 0), basis_pure(lay, 2)) == 1.0
        psi, rho = gen.pure(lay), gen.density(lay)
        want = 0.5 * trace_norm(psi.to_density().entries - rho.entries)
        assert trace_distance(psi, rho) == want
        assert trace_distance(rho, psi) == 0.5 * trace_norm(rho.entries - psi.to_density().entries)
        with pytest.raises(QStateError):
            trace_distance(psi, gen.pure(SystemLayout([("B", 3)])))

    @pytest.mark.parametrize("d", [4, 40, 160])
    def test_trace_distance_of_nearby_states_matches_mpmath(self, gen, d):
        """φ = ψ + 1e-9·noise, renormalised, against ½√((a + b)² − 4|⟨ψ|φ⟩|²) at 40 digits."""
        mpmath = pytest.importorskip("mpmath")
        lay = SystemLayout([("A", d)])
        for _ in range(4):
            psi = gen.pure(lay)
            v = psi.amplitudes + 1e-9 * (gen.rng.standard_normal(d) + 1j * gen.rng.standard_normal(d))
            phi = PureState(lay, v / np.linalg.norm(v))
            with mpmath.workdps(40):
                x = [mpmath.mpc(complex(z)) for z in psi.amplitudes]
                y = [mpmath.mpc(complex(z)) for z in phi.amplitudes]
                a = mpmath.fsum(abs(z) ** 2 for z in x)
                b = mpmath.fsum(abs(z) ** 2 for z in y)
                overlap = mpmath.fsum(mpmath.conj(p) * q for p, q in zip(x, y))
                want = mpmath.sqrt((a + b) ** 2 - 4 * abs(overlap) ** 2) / 2
                assert abs(trace_distance(psi, phi) - want) <= 1e-15


class TestPurify:
    def test_pure_input_is_product(self, gen):
        lay = SystemLayout([("A", 3)])
        psi = gen.pure(lay)
        purified = purify(psi.to_density(), "R")
        marg = partial_trace(purified.to_density(), ("R",))
        w = np.sort(np.linalg.eigvalsh(marg.entries))
        assert w[-1] > 1 - 1e-9  # reference factor is in a fixed pure state

    def test_maximally_mixed_gives_bell_like(self):
        lay = SystemLayout([("A", 2)])
        purified = purify(maximally_mixed(lay), "R")
        marg = partial_trace(purified.to_density(), ("A",))
        assert np.allclose(marg.entries, np.eye(2) / 2, atol=1e-9)

    def test_round_trip(self, gen):
        lay = SystemLayout([("A", 4)])
        rho = gen.density(lay)
        back = partial_trace(purify(rho, "R").to_density(), ("A",))
        assert np.max(np.abs(back.entries - rho.entries)) < 1e-9

    def test_existing_label_rejected(self, gen):
        lay = SystemLayout([("A", 2)])
        with pytest.raises(QStateError):
            purify(gen.density(lay), "A")


class TestJordanParts:
    def test_psd_input(self, gen):
        lay = SystemLayout([("A", 3)])
        rho = gen.density(lay)
        pos, neg = jordan_parts(rho.as_hermitian())
        assert np.allclose(pos.entries, rho.entries, atol=1e-10)
        assert np.max(np.abs(neg.entries)) < 1e-10

    def test_diagonal_case(self):
        op = HermitianOperator(SystemLayout([("A", 2)]), np.diag([1.0, -2.0]))
        pos, neg = jordan_parts(op)
        assert np.allclose(pos.entries, np.diag([1.0, 0.0]))
        assert np.allclose(neg.entries, np.diag([0.0, 2.0]))

    def test_trace_norm_split_and_orthogonality(self, gen):
        lay = SystemLayout([("A", 4)])
        op = HermitianOperator(lay, random_hermitian(gen.rng, 4))
        pos, neg = jordan_parts(op)
        assert abs(trace_norm(op.entries) - (pos.trace() + neg.trace())) < 1e-9
        assert abs(np.trace(pos.entries @ neg.entries)) < 1e-9
        assert np.allclose(pos.entries - neg.entries, op.entries, atol=1e-10)

    def test_partial_trace_hermitian(self, gen):
        lay = SystemLayout([("A", 2), ("B", 2)])
        op = HermitianOperator(lay, random_hermitian(gen.rng, 4))
        reduced = partial_trace_hermitian(op, ("A",))
        assert abs(reduced.trace() - op.trace()) < 1e-10


class TestIsometryPerturbation:
    def test_perturbation_inequalities(self, gen):
        # ||U rho U* - V rho V*||_1 <= 2 ||(U - V) rho||_1 <= 2 ||U - V||
        rng = gen.rng
        for _ in range(20):
            u = gen.unitary(4)[:, :2]
            v = gen.unitary(4)[:, :2]
            rho = gen.density(SystemLayout([("A", 2)])).entries
            left = trace_norm(u @ rho @ u.conj().T - v @ rho @ v.conj().T)
            mid = 2 * trace_norm((u - v) @ rho)
            right = 2 * operator_norm(u - v)
            assert left <= mid + 1e-9
            assert mid <= right + 1e-9
