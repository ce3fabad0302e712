import itertools
import math

import numpy as np
import pytest

from chanbound.channels import (
    ErasureSpec,
    StinespringChannel,
    common_stinespring,
    erasure_channel,
    random_channel,
)
from chanbound.energy import EnergyDomainError, Hamiltonian
from chanbound.entropic import Ensemble
from chanbound.harness.generators import Generators
from chanbound.metrics import (
    Bracket,
    EnergyConstraint,
    _batched_output_bures,
    _constrained_minimum,
    _env_overlap,
    _extend_isometry,
    _hermitian_pinch,
    bures_state_distance,
    bures_sup_bruteforce,
    channel_bures_bracket,
    diamond_bracket,
    ensemble_d0,
    ensemble_dk,
    fidelity,
)
from chanbound.qstate import DensityMatrix, QStateError, SystemLayout, basis_pure, trace_norm


class TestFidelity:
    def test_self(self, gen):
        rho = gen.density(SystemLayout([("A", 3)]))
        assert abs(fidelity(rho, rho) - 1.0) < 1e-9

    def test_orthogonal_pure(self):
        lay = SystemLayout([("A", 2)])
        a = basis_pure(lay, 0).to_density()
        b = basis_pure(lay, 1).to_density()
        assert fidelity(a, b) < 1e-12

    def test_zero_vs_plus(self):
        lay = SystemLayout([("A", 2)])
        zero = basis_pure(lay, 0).to_density()
        from chanbound.qstate import PureState

        plus = PureState(lay, np.array([1, 1]) / math.sqrt(2)).to_density()
        assert abs(fidelity(zero, plus) - 0.5) < 1e-12

    def test_symmetric(self, gen):
        lay = SystemLayout([("A", 3)])
        rho, sigma = gen.density(lay), gen.density(lay)
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-10


class TestBuresStateDistance:
    def test_extremes(self, gen):
        lay = SystemLayout([("A", 2)])
        rho = gen.density(lay)
        assert bures_state_distance(rho, rho) < 1e-8
        a = basis_pure(lay, 0).to_density()
        b = basis_pure(lay, 1).to_density()
        assert abs(bures_state_distance(a, b) - math.sqrt(2)) < 1e-12

    def test_sandwich(self, gen):
        lay = SystemLayout([("A", 3)])
        for _ in range(40):
            rho, sigma = gen.density(lay), gen.density(lay)
            half_tn = 0.5 * trace_norm(rho.entries - sigma.entries)
            beta = bures_state_distance(rho, sigma)
            assert half_tn <= beta + 1e-9
            assert beta <= math.sqrt(2 * half_tn) + 1e-9

    def test_triangle(self, gen):
        lay = SystemLayout([("A", 3)])
        for _ in range(25):
            a, b, c = (gen.density(lay) for _ in range(3))
            assert bures_state_distance(a, b) <= (
                bures_state_distance(a, c) + bures_state_distance(c, b) + 1e-9
            )


class TestEnsembleMetrics:
    def test_d0_self(self, gen):
        mu = gen.ensemble(SystemLayout([("A", 2)]), 3)
        assert ensemble_d0(mu, mu) < 1e-12

    def test_d0_swapped_orthogonal(self):
        lay = SystemLayout([("A", 2)])
        zero = basis_pure(lay, 0).to_density()
        one = basis_pure(lay, 1).to_density()
        mu = Ensemble([(0.5, zero), (0.5, one)])
        nu = Ensemble([(0.5, one), (0.5, zero)])
        assert abs(ensemble_d0(mu, nu) - 1.0) < 1e-12
        assert ensemble_dk(mu, nu) < 1e-10

    def test_d0_padding(self, gen):
        lay = SystemLayout([("A", 2)])
        mu = gen.ensemble(lay, 3)
        nu = gen.ensemble(lay, 2)
        val = ensemble_d0(mu, nu)
        assert 0.0 <= val <= 1.0 + 1e-12

    def test_dk_singletons(self, gen):
        lay = SystemLayout([("A", 3)])
        rho, sigma = gen.density(lay), gen.density(lay)
        mu = Ensemble([(1.0, rho)])
        nu = Ensemble([(1.0, sigma)])
        assert abs(ensemble_dk(mu, nu) - 0.5 * trace_norm(rho.entries - sigma.entries)) < 1e-10

    def test_dk_permutation_invariant(self, gen):
        lay = SystemLayout([("A", 2)])
        mu = gen.ensemble(lay, 3)
        items = list(mu.items)
        nu = Ensemble([items[2], items[0], items[1]])
        assert ensemble_dk(mu, nu) < 1e-9

    def test_dk_uniform_equals_best_permutation(self, gen):
        # Birkhoff: with uniform marginals the LP optimum is a permutation
        lay = SystemLayout([("A", 2)])
        for m in (3, 4, 5):
            mu = Ensemble([(1.0 / m, gen.density(lay)) for _ in range(m)])
            nu = Ensemble([(1.0 / m, gen.density(lay)) for _ in range(m)])
            cost = np.array(
                [[0.5 * trace_norm(r.entries - s.entries) for s in nu.states] for r in mu.states]
            )
            brute = min(
                sum(cost[i, p[i]] for i in range(m)) / m
                for p in itertools.permutations(range(m))
            )
            assert abs(ensemble_dk(mu, nu) - brute) < 1e-9

    def test_dk_le_d0_on_matched_probabilities(self, gen):
        # with shared probabilities the diagonal coupling shows D_K <= D_0
        lay = SystemLayout([("A", 2)])
        for _ in range(25):
            mu = gen.ensemble(lay, 3)
            nu = Ensemble([(p, gen.density(lay)) for p, _ in mu.items])
            assert ensemble_dk(mu, nu) <= ensemble_d0(mu, nu) + 1e-9

    def test_dk_d0_not_ordered_in_general(self):
        # frozen counterexample: with mismatched probability vectors the
        # transport distance can exceed the index-locked distance, so the
        # two metrics only share the lower bound by the factor metric
        lay = SystemLayout([("A", 2)])

        def st(a, re, im):
            return DensityMatrix(
                lay, np.array([[a, re + 1j * im], [re - 1j * im, 1 - a]], dtype=complex)
            )

        mu = Ensemble([
            (0.3229249177194393, st(0.3915358208174666, -0.27390279468203677, 0.32053427733005807)),
            (0.6441886053097204, st(0.729194735421132, -0.3745159420726484, 0.2390229789242841)),
            (0.03288647697084027, st(0.1344047411432949, 0.06137294346980957, 0.02686448743787856)),
        ])
        nu = Ensemble([
            (0.2610660132284755, st(0.5734276997821293, -0.185694355445857, 0.18536782043771427)),
            (0.569136018487921, st(0.6433927081586922, -0.41153685487455877, 0.23479649314837145)),
            (0.16979796828360355, st(0.328235635267235, -0.00734449943063762, -0.46327043111111765)),
        ])
        dk = ensemble_dk(mu, nu)
        d0 = ensemble_d0(mu, nu)
        assert dk > d0 + 1e-3  # 0.2484... vs 0.2379...


class TestBracketType:
    def test_ordering_enforced(self):
        with pytest.raises(QStateError):
            Bracket(lower=1.0, upper=0.5, iterations=1, converged=True)

    def test_width_and_midpoint(self):
        br = Bracket(lower=1.0, upper=1.5, iterations=3, converged=False)
        assert br.width == 0.5
        assert br.midpoint == 1.25


class TestChannelBures:
    def test_identical_channels(self):
        ch = random_channel(2, 2, 2, seed=5)
        br = channel_bures_bracket(ch, ch, seed=1)
        assert br.lower <= 1e-9
        assert br.upper <= 1e-6

    def test_erasure_pair_upper_certificate(self):
        x = 0.05
        a = erasure_channel(ErasureSpec(2, 0.5 - x))
        b = erasure_channel(ErasureSpec(2, 0.5))
        br = channel_bures_bracket(a, b, seed=2)
        closed = math.sqrt(2 - math.sqrt(1 - 2 * x) - math.sqrt(1 + 2 * x))
        assert br.upper <= closed + 1e-9

    def test_witnesses_are_sound(self):
        phi = random_channel(2, 2, 2, seed=31)
        psi = random_channel(2, 2, 2, seed=32)
        br = channel_bures_bracket(phi, psi, seed=3)
        assert br.lower_state is not None and br.upper_contraction is not None
        assert abs(np.trace(br.lower_state).real - 1.0) < 1e-9
        assert np.linalg.eigvalsh(br.lower_state).min() > -1e-9
        assert np.linalg.norm(br.upper_contraction, 2) <= 1 + 1e-10
        assert br.upper_multiplier >= 0.0

    def test_constrained_witness_energy(self):
        h = Hamiltonian(np.arange(4.0))
        phi = random_channel(4, 3, 2, seed=33)
        psi = random_channel(4, 3, 2, seed=34)
        br = channel_bures_bracket(phi, psi, EnergyConstraint(h, 1.0), seed=4)
        assert br.lower_state_energy is not None
        assert br.lower_state_energy <= 1.0 + 1e-9

    def test_monotone_in_energy(self):
        h = Hamiltonian(np.array([0.0, 1.0]))
        phi = random_channel(2, 2, 2, seed=35)
        psi = random_channel(2, 2, 2, seed=36)
        tol = 1e-4
        brackets = [
            channel_bures_bracket(phi, psi, EnergyConstraint(h, e), tol=tol, seed=5)
            for e in (0.2, 0.5, 0.9)
        ]
        for a, b in zip(brackets, brackets[1:]):
            assert a.upper <= b.upper + 2 * tol
            assert a.lower <= b.lower + 2 * tol

    def test_constrained_approaches_unconstrained(self):
        h = Hamiltonian(np.array([0.0, 1.0]))
        phi = random_channel(2, 2, 2, seed=37)
        psi = random_channel(2, 2, 2, seed=38)
        free = channel_bures_bracket(phi, psi, seed=6)
        tight = channel_bures_bracket(phi, psi, EnergyConstraint(h, 0.999), seed=6)
        assert tight.upper <= free.upper + 1e-3
        assert tight.lower <= free.upper + 1e-6

    def test_appendix_equivalence_small_scale(self):
        # converged brackets match a brute-force grid maximization
        for k in range(4):
            phi = random_channel(2, 2, 2, seed=300 + 2 * k)
            psi = random_channel(2, 2, 2, seed=301 + 2 * k)
            br = channel_bures_bracket(phi, psi, tol=1e-6, seed=k)
            if br.width > 1e-4:
                continue
            brute = bures_sup_bruteforce(phi, psi, samples=100_000, seed=k)
            assert abs(br.midpoint - brute) <= 2e-3
            assert brute <= br.upper + 1e-9

    def test_energy_bound_below_ground_rejected(self):
        # the rule of energy.cap_weight: a bound below E_0 admits no input,
        # a bound of exactly E_0 admits the ground state
        h = Hamiltonian(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(EnergyDomainError, match="below E_0"):
            EnergyConstraint(h, 1.0 - 1e-13)
        phi = random_channel(3, 2, 2, seed=45)
        psi = random_channel(3, 2, 2, seed=46)
        br = channel_bures_bracket(phi, psi, EnergyConstraint(h, 1.0), seed=8)
        assert 0.0 <= br.lower <= br.upper + 1e-9
        assert br.lower_state_energy <= 1.0 + 1e-9

    @pytest.mark.parametrize("excess", [0.0, 1e-12, 1e-9, 1e-6])
    def test_near_ground_caps(self, excess):
        # at E_0 only ground-eigenspace inputs are feasible, so the bracket
        # is the output Bures distance at |0><0|; just above E_0 the barrier
        # has almost no interior and must still return a sound bracket
        h = Hamiltonian(np.array([1.0, 2.0, 3.0]))
        phi = random_channel(3, 2, 2, seed=45)
        psi = random_channel(3, 2, 2, seed=46)
        cap = 1.0 + excess
        br = channel_bures_bracket(phi, psi, EnergyConstraint(h, cap))
        assert 0.0 <= br.lower <= br.upper + 1e-9
        assert br.lower_state_energy <= cap + 1e-9
        if excess == 0.0:
            ground = np.zeros((3, 3), dtype=complex)
            ground[0, 0] = 1.0
            x = _env_overlap(phi.isometry, psi.isometry, ground, 2, 2)
            closed = math.sqrt(2.0 - 2.0 * trace_norm(x))
            assert br.converged
            assert abs(br.lower - closed) <= 1e-9
            assert abs(br.upper - closed) <= 1e-9

    @pytest.mark.parametrize("kind", ["unconstrained", "constrained", "environments_2_vs_3"])
    def test_endpoints_recomputed_from_witnesses(self, kind):
        # both endpoints are certificate evaluations of the returned witnesses
        constraint = h_mat = e_cap = None
        if kind == "unconstrained":
            phi, psi = random_channel(2, 2, 2, seed=61), random_channel(2, 2, 2, seed=62)
        elif kind == "constrained":
            h = Hamiltonian(np.arange(3.0))
            constraint = EnergyConstraint(h, 0.5)
            h_mat, e_cap = h.to_matrix(), 0.5
            phi, psi = random_channel(3, 2, 2, seed=63), random_channel(3, 2, 2, seed=64)
        else:
            phi, psi = random_channel(2, 2, 2, seed=65), random_channel(2, 2, 3, seed=66)
        br = channel_bures_bracket(phi, psi, constraint)
        a, b = (phi, psi) if phi.d_e == psi.d_e else common_stinespring(phi, psi)
        rho, c = br.lower_state, br.upper_contraction
        x = _env_overlap(a.isometry, b.isometry, rho, a.d_b, a.d_e)
        assert abs(br.lower - math.sqrt(2.0 - 2.0 * trace_norm(x))) <= 1e-12
        _, dual, mu = _constrained_minimum(_hermitian_pinch(a.isometry, b.isometry, c, a.d_b), h_mat, e_cap)
        assert abs(br.upper - math.sqrt(2.0 - 2.0 * dual)) <= 1e-12
        assert br.upper_multiplier == mu
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        if constraint is not None:
            assert np.trace(h_mat @ rho).real <= e_cap + 1e-12
        assert np.linalg.norm(c, 2) <= 1.0 + 1e-12
        assert br.converged

    def test_mismatched_environments_use_common_rep(self, gen):
        phi = random_channel(2, 2, 2, seed=39)
        psi = random_channel(2, 2, 3, seed=40)
        br = channel_bures_bracket(phi, psi, seed=7)
        assert 0.0 <= br.lower <= br.upper <= math.sqrt(2) + 1e-12


class TestDiamond:
    def test_identical_channels(self):
        ch = random_channel(2, 2, 2, seed=8)
        dia = diamond_bracket(ch, ch, seed=1)
        assert dia.lower <= 1e-9
        assert dia.upper <= 2e-6

    def test_bracket_ordering_random_pairs(self):
        for k in range(10):
            phi = random_channel(2, 2, 2, seed=500 + 2 * k)
            psi = random_channel(2, 2, 2, seed=501 + 2 * k)
            dia = diamond_bracket(phi, psi, seed=k)
            assert dia.lower <= dia.upper + 1e-9

    def test_relations_to_bures(self):
        phi = random_channel(2, 2, 2, seed=41)
        psi = random_channel(2, 2, 2, seed=42)
        br = channel_bures_bracket(phi, psi, seed=9)
        dia = diamond_bracket(phi, psi, seed=9, bures_bracket=br)
        assert 0.5 * dia.lower <= br.upper + 1e-6
        assert br.lower <= math.sqrt(dia.upper) + 1e-6

    def test_upper_capped_at_trivial_bound(self):
        # identity against a bit flip: twice the Bures upper bound exceeds 2
        ident = StinespringChannel(np.eye(2), 2, 2, 1)
        flip = StinespringChannel(np.array([[0.0, 1.0], [1.0, 0.0]]), 2, 2, 1)
        br = channel_bures_bracket(ident, flip, seed=3)
        dia = diamond_bracket(ident, flip, seed=3, bures_bracket=br)
        assert 2.0 * br.upper > 2.0
        assert dia.upper <= 2.0
        assert dia.lower <= dia.upper + 1e-9

    def test_constrained_inputs_feasible(self):
        h = Hamiltonian(np.arange(3.0))
        phi = random_channel(3, 2, 2, seed=43)
        psi = random_channel(3, 2, 2, seed=44)
        dia = diamond_bracket(phi, psi, EnergyConstraint(h, 0.8), seed=10)
        assert dia.lower_state_energy is not None
        assert dia.lower_state_energy <= 0.8 + 1e-9


def _spectral_output_bures(w_phi, w_psi, vecs, d_b, d_e1, d_e2, d_r):
    """Output Bures distances through spectral square roots of the output states.

    Accurate only when the outputs have full rank (d_e >= d_b d_r); on
    rank-deficient outputs it square-roots eigenvalues that are rounding noise.
    """
    m = vecs.shape[0]
    n_out = d_b * d_r

    def sqrt_output(w, d_e):
        y = (vecs @ w.T).reshape(m, d_b, d_e, d_r)
        out = np.einsum("nber,nBeR->nbrBR", y, y.conj()).reshape(m, n_out, n_out)
        ev, u = np.linalg.eigh(out)
        return np.einsum("nik,nk,njk->nij", u, np.sqrt(np.clip(ev, 0.0, None)), u.conj())

    sv = np.linalg.svd(sqrt_output(w_phi, d_e1) @ sqrt_output(w_psi, d_e2), compute_uv=False)
    root_f = np.clip(sv.sum(axis=1), 0.0, 1.0)
    return np.sqrt(np.clip(2.0 * (1.0 - root_f), 0.0, None))


def _unit_vectors(rng, m, dim):
    vecs = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


class TestBruteForceOracle:
    @pytest.mark.parametrize("samples", [1, 0, -5])
    def test_rejects_too_few_samples(self, samples):
        ch = random_channel(2, 2, 2, seed=47)
        with pytest.raises(ValueError, match="samples"):
            bures_sup_bruteforce(ch, ch, samples=samples)

    def test_rejects_empty_chunk(self):
        ch = random_channel(2, 2, 2, seed=47)
        with pytest.raises(ValueError, match="chunk"):
            bures_sup_bruteforce(ch, ch, samples=10, chunk=0)

    @pytest.mark.parametrize("d_e1,d_e2", [(2, 3), (3, 2), (2, 2)])
    def test_matches_40_digit_reference(self, d_e1, d_e2):
        # rank-deficient outputs (d_e < d_b d_r = 4), environments mismatched
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        phi = random_channel(2, 2, d_e1, seed=48)
        psi = random_channel(2, 2, d_e2, seed=49)
        w_phi, w_psi = _extend_isometry(phi.isometry, 2), _extend_isometry(psi.isometry, 2)
        vecs = _unit_vectors(np.random.default_rng(50), 12, 4)
        got = _batched_output_bures(w_phi, w_psi, vecs, 2, d_e1, d_e2, 2)

        def to_mp(arr):
            return mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in np.atleast_2d(arr)])

        def sqrt_output(w, d_e, v):
            y = to_mp(w) * to_mp(v).T
            out = mp.matrix(4, 4)
            for b, r, bb, rr in itertools.product(range(2), repeat=4):
                out[2 * b + r, 2 * bb + rr] = mp.fsum(
                    y[(b * d_e + e) * 2 + r] * mp.conj(y[(bb * d_e + e) * 2 + rr]) for e in range(d_e)
                )
            ev, u = mp.eighe(out)
            root = mp.diag([mp.sqrt(max(x, 0)) for x in ev])
            return u * root * u.H

        with mp.workdps(40):
            for v, val in zip(vecs, got):
                prod = sqrt_output(w_phi, d_e1, v) * sqrt_output(w_psi, d_e2, v)
                root_f = mp.fsum(mp.svd_c(prod, compute_uv=False))
                ref = mp.sqrt(2 * (1 - root_f))
                assert abs(val - float(ref)) <= 1e-13

    def test_matches_spectral_square_roots_on_full_rank_outputs(self):
        phi = random_channel(2, 2, 4, seed=51)
        psi = random_channel(2, 2, 4, seed=52)
        w_phi, w_psi = _extend_isometry(phi.isometry, 2), _extend_isometry(psi.isometry, 2)
        vecs = _unit_vectors(np.random.default_rng(53), 2000, 4)
        got = _batched_output_bures(w_phi, w_psi, vecs, 2, 4, 4, 2)
        ref = _spectral_output_bures(w_phi, w_psi, vecs, 2, 4, 4, 2)
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_sample_stream_unchanged_on_certify_pair(self):
        # the benchmark's criterion-07 pair: same draws, same argmax, so the
        # value computed through spectral square roots is reproduced
        gen = Generators.for_trial(7, 0)
        phi, psi = gen.channel(2, 2, 2), gen.channel(2, 2, 2)
        brute = bures_sup_bruteforce(phi, psi, samples=100_000, seed=0)
        assert abs(brute - 1.1601267741302068) <= 1e-12
