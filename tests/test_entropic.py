import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanbound.channels import apply, erasure_channel, ErasureSpec, identity_channel, random_channel
from chanbound.entropic import (
    Ensemble,
    channel_mutual_information,
    coherent_information,
    conditional_mutual_information,
    entropy_of_spectrum,
    eta,
    g,
    h2,
    holevo_quantity,
    mutual_information,
    qc_state,
    relative_entropy,
    von_neumann_entropy,
)
from chanbound.qstate import (
    DensityMatrix,
    QStateError,
    SystemLayout,
    basis_pure,
    maximally_mixed,
    partial_trace,
)

from conftest import parent_entropy_sum


class TestScalarFunctions:
    def test_eta_zero_by_continuity(self):
        assert eta(0.0) == 0.0
        assert eta(1e-15) == 0.0

    def test_g_at_zero(self):
        assert g(0.0) == 0.0

    @given(st.floats(min_value=1e-9, max_value=10.0))
    @settings(max_examples=120, deadline=None)
    def test_g_matches_binary_entropy_form(self, x):
        assert abs(g(x) - (1 + x) * h2(x / (1 + x))) < 1e-10

    def test_g_increasing_on_grid(self):
        grid = np.linspace(0.0, 2.0, 200)
        vals = [g(x) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_concave_scaling_inequality(self, x, dy, z):
        # x f(z/x) <= y f(z/y) for concave nonnegative f and 0 < x < y
        y = x + dy
        for f in (g, math.sqrt):
            assert x * f(z / x) <= y * f(z / y) + 1e-10

    def test_xlog_monotone(self):
        # x log(a/x^2 + b) increasing for a > 0, b >= e/2
        for a, b in [(0.5, math.e / 2), (2.0, 3.0), (0.1, 1.4)]:
            grid = np.linspace(0.01, 5.0, 300)
            vals = grid * np.log(a / grid**2 + b)
            assert np.all(np.diff(vals) > 0)


class TestEntropy:
    def test_pure_state_zero(self, gen):
        psi = gen.pure(SystemLayout([("A", 4)]))
        assert abs(von_neumann_entropy(psi.to_density())) < 1e-10

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            rho = maximally_mixed(SystemLayout([("A", d)]))
            assert abs(von_neumann_entropy(rho) - math.log(d)) < 1e-12

    def test_two_level_scalar_oracle(self):
        rho = DensityMatrix(SystemLayout([("A", 2)]), np.diag([0.25, 0.75]))
        oracle = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert abs(von_neumann_entropy(rho) - oracle) < 1e-12


    def test_validated_spectrum_matches_raw_entries(self, gen):
        lay = SystemLayout([("A", 3), ("C", 2)])
        states = [
            apply(random_channel(3, 2, 4, seed=31), gen.density(lay)),
            partial_trace(gen.density(lay), ("C",)),
            gen.ensemble(lay, 3).average_state(),
        ]
        for rho in states:
            assert von_neumann_entropy(rho) == von_neumann_entropy(rho.entries)


class TestEntropyKernel:
    """`entropy_of_spectrum` keeps the bits of the parent's clip + np.sum(eta(...)) sum."""

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 8, 9, 16, 32, 40, 160])
    def test_random_states_match_parent_sum(self, gen, d):
        lay = SystemLayout([("A", d)])
        for _ in range(12):
            rho = gen.density(lay)
            assert von_neumann_entropy(rho) == parent_entropy_sum(rho.spectrum)
            assert von_neumann_entropy(rho.entries) == parent_entropy_sum(np.linalg.eigvalsh(rho.entries))

    @pytest.mark.parametrize("d", [3, 5, 8, 20])
    def test_low_rank_states_match_parent_sum(self, gen, d):
        # reduced states of pure states: rank 2, the other eigenvalues rounding noise about 0
        for _ in range(12):
            rho = partial_trace(gen.pure(SystemLayout([("A", d), ("B", 2)])).to_density(), ("A",))
            assert np.min(rho.spectrum) < 1e-12
            assert von_neumann_entropy(rho) == parent_entropy_sum(rho.spectrum)

    @pytest.mark.parametrize("d", [1, 2, 4, 9])
    def test_pure_state_entropy_is_positive_zero(self, gen, d):
        lay = SystemLayout([("A", d)])
        for rho in (basis_pure(lay, d - 1).to_density(), DensityMatrix(lay, np.diag(np.eye(d)[0]))):
            value = von_neumann_entropy(rho)
            assert value == parent_entropy_sum(rho.spectrum) == 0.0
            assert math.copysign(1.0, value) == 1.0  # d = 1: (-1) log 1 is -0.0
        assert math.copysign(1.0, float(entropy_of_spectrum(np.zeros(d)))) == 1.0

    def test_near_floor_spectra_match_parent_sum(self):
        rng = np.random.default_rng(5)
        floor = [1e-12, np.nextafter(1e-12, 1.0), np.nextafter(1e-12, 0.0), 5e-13, 0.0, -0.0, -1e-17, -1e-12]
        rows = []
        for _ in range(200):
            w = np.r_[rng.choice(floor, rng.integers(1, 12)), rng.dirichlet(np.ones(rng.integers(1, 12)))]
            rows.append(rng.permutation(w))
        for w in rows:
            assert entropy_of_spectrum(w) == parent_entropy_sum(w)
            assert von_neumann_entropy(np.diag(w)) == parent_entropy_sum(np.linalg.eigvalsh(np.diag(w)))
        block = np.array([np.resize(w, 16) for w in rows])  # rows summed along the last axis
        assert np.array_equal(entropy_of_spectrum(block), [parent_entropy_sum(w) for w in block])


class TestRelativeEntropy:
    def test_self_is_zero(self, gen):
        rho = gen.density(SystemLayout([("A", 3)]))
        assert abs(relative_entropy(rho, rho)) < 1e-9

    def test_support_violation_infinite(self):
        lay = SystemLayout([("A", 2)])
        full = maximally_mixed(lay)
        pure = basis_pure(lay, 0).to_density()
        assert relative_entropy(full, pure) == math.inf
        assert relative_entropy(pure, full) < math.inf

    def test_classical_kl_oracle(self):
        lay = SystemLayout([("A", 3)])
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.5, 0.25, 0.25])
        rho = DensityMatrix(lay, np.diag(p))
        sigma = DensityMatrix(lay, np.diag(q))
        kl = float(np.sum(p * np.log(p / q)))
        assert abs(relative_entropy(rho, sigma) - kl) < 1e-12


def bell(lay):
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    return DensityMatrix(lay, np.outer(vec, vec.conj()))


class TestMutualInformation:
    def test_product_state_zero(self, gen):
        a = gen.density(SystemLayout([("A", 2)]))
        b = gen.density(SystemLayout([("B", 3)]))
        from chanbound.qstate import tensor_product

        joint = tensor_product(a, b)
        assert abs(mutual_information(joint, ("A",), ("B",))) < 1e-9

    def test_bell_pair(self, qubit_pair):
        assert abs(mutual_information(bell(qubit_pair), ("A",), ("B",)) - 2 * math.log(2)) < 1e-10

    def test_upper_bound_twice_min_entropy(self, gen, qubit_pair):
        for _ in range(30):
            rho = gen.density(qubit_pair)
            mi = mutual_information(rho, ("A",), ("B",))
            h_a = von_neumann_entropy(partial_trace(rho, ("A",)))
            h_b = von_neumann_entropy(partial_trace(rho, ("B",)))
            assert mi <= 2 * min(h_a, h_b) + 1e-9
            assert mi >= -1e-9

    def test_partition_must_cover(self, gen):
        lay = SystemLayout([("A", 2), ("B", 2), ("C", 2)])
        with pytest.raises(QStateError):
            mutual_information(gen.density(lay), ("A",), ("B",))


class TestConditionalMutualInformation:
    def test_product_zero(self, gen):
        from chanbound.qstate import tensor_product

        a = gen.density(SystemLayout([("A", 2)]))
        b = gen.density(SystemLayout([("B", 2)]))
        c = gen.density(SystemLayout([("C", 2)]))
        rho = tensor_product(tensor_product(a, b), c)
        assert abs(conditional_mutual_information(rho, ("A",), ("B",), ("C",))) < 1e-9

    def test_trivial_c_reduces_to_mi(self, gen, qubit_pair):
        rho = gen.density(qubit_pair)
        assert abs(
            conditional_mutual_information(rho, ("A",), ("B",))
            - mutual_information(rho, ("A",), ("B",))
        ) < 1e-12

    def test_upper_bound(self, gen):
        lay = SystemLayout([("A", 2), ("B", 2), ("C", 2)])
        for _ in range(30):
            rho = gen.density(lay)
            cmi = conditional_mutual_information(rho, ("A",), ("B",), ("C",))
            hs = {
                lbls: von_neumann_entropy(partial_trace(rho, lbls))
                for lbls in (("A",), ("B",), ("A", "C"), ("B", "C"))
            }
            assert cmi <= 2 * min(hs.values()) + 1e-9
            assert cmi >= -1e-9

    def test_chain_rule(self, gen):
        lay = SystemLayout([(l, 2) for l in "XYZC"])
        for _ in range(20):
            rho = gen.density(lay)
            full = conditional_mutual_information(rho, ("X",), ("Y", "Z"), ("C",))
            first = conditional_mutual_information(
                partial_trace(rho, ("X", "Y", "C")), ("X",), ("Y",), ("C",)
            )
            second = conditional_mutual_information(rho, ("X",), ("Z",), ("Y", "C"))
            assert abs(full - (first + second)) < 1e-8

    def test_almost_affinity(self, gen):
        lay = SystemLayout([(l, 2) for l in "ABC"])
        part = (("A",), ("B",), ("C",))
        for _ in range(10):
            rho, sigma = gen.density(lay), gen.density(lay)
            for p in np.arange(0.1, 0.95, 0.1):
                mix = DensityMatrix(lay, p * rho.entries + (1 - p) * sigma.entries)
                dev = abs(
                    p * conditional_mutual_information(rho, *part)
                    + (1 - p) * conditional_mutual_information(sigma, *part)
                    - conditional_mutual_information(mix, *part)
                )
                assert dev <= h2(p) + 1e-9


class TestHolevo:
    def test_single_state_zero(self, gen):
        lay = SystemLayout([("A", 3)])
        ens = Ensemble([(1.0, gen.density(lay))])
        assert abs(holevo_quantity(ens)) < 1e-12

    def test_orthogonal_alphabet(self):
        lay = SystemLayout([("A", 4)])
        ens = Ensemble([(0.25, basis_pure(lay, i).to_density()) for i in range(4)])
        assert abs(holevo_quantity(ens) - math.log(4)) < 1e-10

    def test_equals_qc_mutual_information(self, gen):
        lay = SystemLayout([("A", 3)])
        for _ in range(20):
            ens = gen.ensemble(lay, 4)
            qc = qc_state(ens, "X")
            assert abs(holevo_quantity(ens) - mutual_information(qc, ("A",), ("X",))) < 1e-9

    def test_separable_bound_on_qc_states(self, gen):
        lay = SystemLayout([("A", 3)])
        for _ in range(15):
            qc = qc_state(gen.ensemble(lay, 3), "X")
            mi = mutual_information(qc, ("A",), ("X",))
            h_a = von_neumann_entropy(partial_trace(qc, ("A",)))
            h_x = von_neumann_entropy(partial_trace(qc, ("X",)))
            assert mi <= min(h_a, h_x) + 1e-9


class TestEnsembleValidation:
    @pytest.mark.parametrize("weights", [[np.nan], [np.nan, 1.0], [np.inf, -np.inf, 1.0], [np.inf]])
    def test_non_finite_weights_rejected(self, weights):
        rho = maximally_mixed(SystemLayout([("A", 2)]))
        with pytest.raises(QStateError):
            Ensemble([(p, rho) for p in weights])

    def test_small_negative_weight_admitted(self):
        rho = maximally_mixed(SystemLayout([("A", 2)]))
        assert len(Ensemble([(-1e-13, rho), (1.0 + 1e-13, rho)])) == 2
        with pytest.raises(QStateError):
            Ensemble([(-1e-11, rho), (1.0 + 1e-11, rho)])


class TestQcState:
    def test_single_element(self, gen):
        lay = SystemLayout([("A", 2)])
        rho = gen.density(lay)
        qc = qc_state(Ensemble([(1.0, rho)]), "X")
        assert np.allclose(qc.entries, rho.entries)  # 1-dim register

    def test_class_marginal_is_diagonal(self, gen):
        lay = SystemLayout([("A", 2)])
        ens = gen.ensemble(lay, 5)
        qc = qc_state(ens, "X")
        marg = partial_trace(qc, ("X",)).entries
        assert np.allclose(marg, np.diag(ens.probabilities), atol=1e-12)

    def test_fresh_label_required(self, gen):
        lay = SystemLayout([("A", 2)])
        with pytest.raises(QStateError):
            qc_state(gen.ensemble(lay, 2), "A")


class TestChannelInformation:
    def test_identity_channel_coherent_info(self, gen):
        lay = SystemLayout([("A", 3)])
        rho = gen.density(lay)
        ic = coherent_information(identity_channel(3), rho)
        assert abs(ic - von_neumann_entropy(rho)) < 1e-9

    def test_erasure_half_maximally_mixed(self):
        rho = maximally_mixed(SystemLayout([("A", 2)]))
        assert abs(coherent_information(erasure_channel(ErasureSpec(2, 0.5)), rho)) < 1e-10

    def test_coherent_equals_mi_minus_entropy(self, gen):
        lay = SystemLayout([("A", 3)])
        ch = random_channel(3, 3, 2, seed=5)
        for _ in range(5):
            rho = gen.density(lay)
            lhs = coherent_information(ch, rho)
            rhs = channel_mutual_information(ch, rho) - von_neumann_entropy(rho)
            assert abs(lhs - rhs) < 1e-9

    def test_channel_mi_identity_max_mixed(self):
        rho = maximally_mixed(SystemLayout([("A", 4)]))
        val = channel_mutual_information(identity_channel(4), rho)
        assert abs(val - 2 * math.log(4)) < 1e-9

    def test_channel_mi_purification_independent(self, gen):
        lay = SystemLayout([("A", 3)])
        ch = random_channel(3, 2, 3, seed=9)
        rho = gen.density(lay)
        v1 = channel_mutual_information(ch, rho, ref_label="R")
        v2 = channel_mutual_information(ch, rho, ref_label="S")
        assert abs(v1 - v2) < 1e-9


class TestPurificationFreedom:
    def test_channel_mi_invariant_under_reference_unitary(self, gen):
        # all purifications are related by a unitary on the reference factor,
        # so the channel mutual information cannot depend on which one is used
        from chanbound.qstate import DensityMatrix, purify

        lay = SystemLayout([("A", 3)])
        ch = random_channel(3, 2, 3, seed=77)
        rho = gen.density(lay)
        psi = purify(rho, "R")
        u = gen.unitary(3)
        rotated = DensityMatrix(
            psi.layout,
            np.kron(np.eye(3), u)
            @ psi.to_density().entries
            @ np.kron(np.eye(3), u).conj().T,
        )
        from chanbound.channels import apply

        out_a = apply(ch, psi.to_density())
        out_b = apply(ch, rotated)
        mi_a = mutual_information(out_a, ("B",), ("R",))
        mi_b = mutual_information(out_b, ("B",), ("R",))
        assert abs(mi_a - mi_b) < 1e-9
