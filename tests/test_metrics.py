import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from chanbound.channels import (
    ErasureSpec,
    StinespringChannel,
    apply,
    common_stinespring,
    complex_gaussian,
    erasure_channel,
    random_channel,
)
from chanbound.energy import EnergyCap, EnergyDomainError, Hamiltonian
from chanbound.entropic import Ensemble
from chanbound.harness.generators import Generators
from chanbound.harness.suites import CampaignConfig, run_suite
from chanbound import metrics
from chanbound.metrics import (
    _ORACLE_BLOCK,
    Bracket,
    _batched_output_bures,
    _constrained_minimum,
    _dk_costs,
    _env_overlap,
    _extend_isometry,
    _ground_min_energy_state,
    _hermitian_pinch,
    _trace_norms,
    _transport,
    bures_state_distance,
    bures_sup_bruteforce,
    channel_bures_bracket,
    diamond_bracket,
    ensemble_d0,
    ensemble_dk,
    fidelity,
)
from chanbound.qstate import DensityMatrix, QStateError, SystemLayout, basis_pure, purify, trace_norm


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


def _vertex_oracle(cost, a, b):
    """Least cost over every vertex of the transportation polytope {x >= 0 : rows a, columns b}.

    A vertex is the solution on m + n - 1 cells whose row and column
    equations, the last column's left out as implied, have a nonsingular
    (so unimodular, det = +-1) matrix.  Every vertex of the polytope arises
    so, degenerate ones included; the oracle keeps those with x >= -1e-12.
    """
    m, n = cost.shape
    k = m + n - 1
    subsets = np.array(list(itertools.combinations(range(m * n), k)))
    rows, cols = np.divmod(subsets, n)
    mats = np.zeros((len(subsets), k, k))
    which = np.broadcast_to(np.arange(len(subsets))[:, None], rows.shape)
    pos = np.broadcast_to(np.arange(k), rows.shape)
    mats[which, rows, pos] = 1.0
    keep = cols < n - 1
    mats[which[keep], m + cols[keep], pos[keep]] = 1.0
    bases = np.abs(np.linalg.det(mats)) > 0.5
    rhs = np.broadcast_to(np.concatenate([a, b[:-1]]), (int(bases.sum()), k))
    x = np.linalg.solve(mats[bases], rhs[..., None])[..., 0]
    feasible = x.min(axis=1) >= -1e-12
    return (cost[rows[bases], cols[bases]] * x).sum(axis=1)[feasible].min()


def _transport_instances():
    """(cost, a, b) for m, n <= 4; the degenerate cases are named in their ids."""
    rng = np.random.default_rng(1234)
    cases = []
    for k in range(40):
        m, n = (int(v) for v in rng.integers(1, 5, size=2))
        cases.append((f"random{k}", 2.0 * rng.random((m, n)), rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))))
    a, b = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(3))
    a[1] = 0.0
    cases.append(("zero_weight", 2.0 * rng.random((4, 3)), a / a.sum(), b))
    # partial sums meet (0.25 + 0.25 = 0.5), so the northwest corner ships a zero
    a, b = np.array([0.25, 0.25, 0.5]), np.array([0.5, 0.25, 0.25])
    cases.append(("equal_partial_sums", 2.0 * rng.random((3, 3)), a, b))
    cases.append(("uniform_4x4", 2.0 * rng.random((4, 4)), np.full(4, 0.25), np.full(4, 0.25)))
    for k in range(6):
        cost = rng.integers(0, 2, size=(4, 4)).astype(float)  # many tied costs
        cases.append((f"tied_costs{k}", cost, np.full(4, 0.25), np.array([0.5, 0.25, 0.125, 0.125])))
    cases.append(("all_costs_tied", np.ones((3, 4)), rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4))))
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


class TestTransport:
    """The transportation simplex behind ensemble_dk against vertex enumeration."""

    @pytest.mark.parametrize("cost,a,b", _transport_instances())
    def test_matches_vertex_enumeration_with_certificate(self, cost, a, b):
        x, u, v = _transport(cost, a, b)
        primal = (cost * x).sum()
        assert abs(primal - _vertex_oracle(cost, a, b)) <= 1e-12
        assert x.min() >= 0.0
        assert np.abs(x.sum(axis=1) - a).max() <= 1e-12
        assert np.abs(x.sum(axis=0) - b).max() <= 1e-12
        assert (cost - u[:, None] - v[None, :]).min() >= -1e-12  # dual feasible
        assert abs(primal - (a @ u + b @ v)) <= 1e-12

    @pytest.mark.parametrize("side", ["rows", "columns"])
    def test_marginal_imbalance(self, side):
        rng = np.random.default_rng(99)
        for _ in range(20):
            m, n = (int(v) for v in rng.integers(1, 5, size=2))
            cost = 2.0 * rng.random((m, n))
            a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            if side == "rows":
                a[0] += 1e-10
            else:
                b[-1] += 1e-10
            imbalance = abs(a.sum() - b.sum())
            x, u, v = _transport(cost, a, b)
            assert abs((cost * x).sum() - _vertex_oracle(cost, a, b)) <= 1e-12 + 2.0 * imbalance
            assert x.min() >= 0.0
            assert max(np.abs(x.sum(axis=1) - a).max(), np.abs(x.sum(axis=0) - b).max()) <= 1e-12 + imbalance
            assert (cost - u[:, None] - v[None, :]).min() >= -1e-12

    def test_ensemble_dk_clips_tiny_negative_weight(self, gen):
        lay = SystemLayout([("A", 2)])
        mu = Ensemble([(-1e-13, gen.density(lay)), (0.6, gen.density(lay)), (0.4 + 1e-13, gen.density(lay))])
        nu = gen.ensemble(lay, 3)
        cost = np.array([[trace_norm(r.entries - s.entries) for s in nu.states] for r in mu.states])
        oracle = _vertex_oracle(cost, np.maximum(mu.probabilities, 0.0), nu.probabilities)
        assert abs(ensemble_dk(mu, nu) - 0.5 * oracle) <= 1e-12

    def test_ensemble_dk_admits_imbalanced_ensembles(self, gen):
        lay = SystemLayout([("A", 3)])
        p, q = gen.probabilities(3), gen.probabilities(4)
        mu = Ensemble([(w * (1 - 5e-11) / p.sum(), gen.density(lay)) for w in p])
        nu = Ensemble([(w * (1 + 5e-11) / q.sum(), gen.density(lay)) for w in q])
        cost = _dk_costs(mu, nu)
        oracle = _vertex_oracle(cost, mu.probabilities, nu.probabilities)
        assert abs(ensemble_dk(mu, nu) - 0.5 * oracle) <= 1e-12 + 2e-10

    @pytest.mark.parametrize("d", [2, 3, 8, 40])
    def test_cost_rows_equal_pairwise_trace_norms(self, gen, d):
        lay = SystemLayout([("A", d)])
        for m, n in ((1, 1), (3, 2), (4, 5)):
            mu, nu = gen.ensemble(lay, m), gen.ensemble(lay, n)
            pairwise = np.array([[trace_norm(r.entries - s.entries) for s in nu.states] for r in mu.states])
            assert np.array_equal(_dk_costs(mu, nu), pairwise)

    @pytest.mark.parametrize("tamper", ["potentials_too_high", "independent_coupling", "plan_short_of_marginal"])
    def test_certificate_rejects_tampered_solution(self, gen, monkeypatch, tamper):
        lay = SystemLayout([("A", 2)])
        mu, nu = gen.ensemble(lay, 3), gen.ensemble(lay, 3)
        assert ensemble_dk(mu, nu) > 1e-3
        solve = metrics._transport

        def tampered(cost, a, b):
            x, u, v = solve(cost, a, b)
            if tamper == "potentials_too_high":
                return x, u + 1e-9, v
            if tamper == "independent_coupling":
                return np.outer(a, b), u, v
            x = x.copy()
            x[x > 0] *= 1 - 1e-9
            return x, u, v

        monkeypatch.setattr(metrics, "_transport", tampered)
        with pytest.raises(RuntimeError):
            ensemble_dk(mu, nu)


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
        br = channel_bures_bracket(phi, psi, EnergyCap(h, 1.0), seed=4)
        assert br.lower_state_energy is not None
        assert br.lower_state_energy <= 1.0 + 1e-9

    def test_monotone_in_energy(self):
        h = Hamiltonian(np.array([0.0, 1.0]))
        phi = random_channel(2, 2, 2, seed=35)
        psi = random_channel(2, 2, 2, seed=36)
        tol = 1e-4
        brackets = [
            channel_bures_bracket(phi, psi, EnergyCap(h, e), tol=tol, seed=5)
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
        tight = channel_bures_bracket(phi, psi, EnergyCap(h, 0.999), seed=6)
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
            EnergyCap(h, 1.0 - 1e-13)
        phi = random_channel(3, 2, 2, seed=45)
        psi = random_channel(3, 2, 2, seed=46)
        br = channel_bures_bracket(phi, psi, EnergyCap(h, 1.0), seed=8)
        assert 0.0 <= br.lower <= br.upper + 1e-9
        assert br.lower_state_energy <= 1.0 + 1e-9

    @pytest.mark.parametrize("bracket", [channel_bures_bracket, diamond_bracket])
    def test_cap_layout_must_be_the_input(self, bracket):
        # the cap sits on one factor of dimension d_a, or the bracket refuses it
        phi = random_channel(3, 2, 2, seed=45)
        psi = random_channel(3, 2, 2, seed=46)
        for cap in (EnergyCap(Hamiltonian(np.arange(2.0)), 0.5),
                    EnergyCap(Hamiltonian(np.arange(3.0)), 0.5, SystemLayout([("A", 3), ("R", 2)]))):
            with pytest.raises(QStateError, match="one factor"):
                bracket(phi, psi, cap)

    @pytest.mark.parametrize("excess", [0.0, 1e-12, 1e-9, 1e-6])
    def test_near_ground_caps(self, excess):
        # at E_0 only ground-eigenspace inputs are feasible, so the bracket
        # is the output Bures distance at |0><0|; just above E_0 the barrier
        # has almost no interior and must still return a sound bracket
        h = Hamiltonian(np.array([1.0, 2.0, 3.0]))
        phi = random_channel(3, 2, 2, seed=45)
        psi = random_channel(3, 2, 2, seed=46)
        cap = 1.0 + excess
        br = channel_bures_bracket(phi, psi, EnergyCap(h, cap))
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
            constraint = EnergyCap(h, 0.5)
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


def _bisected_constrained_minimum(m, h_mat, e_cap):
    """`_constrained_minimum` as it was: doubling, then up to 90 bisection steps on mu."""
    rho0, e0, lam0, _ = _ground_min_energy_state(m, h_mat)
    if e0 <= e_cap + 1e-12:
        return rho0, lam0, 0.0
    duals = [(lam0, 0.0)]
    mu_hi = 1.0
    for _ in range(120):
        rho_b, e_b, lam_b, _ = _ground_min_energy_state(m + mu_hi * h_mat, h_mat)
        duals.append((lam_b - mu_hi * e_cap, mu_hi))
        if e_b <= e_cap:
            break
        mu_hi *= 2.0
    mu_lo, rho_a, e_a = 0.0, rho0, e0
    for _ in range(90):
        if mu_hi - mu_lo <= 1e-13 * max(1.0, mu_hi):
            break
        mid = 0.5 * (mu_lo + mu_hi)
        rho_m, e_m, lam_m, _ = _ground_min_energy_state(m + mid * h_mat, h_mat)
        duals.append((lam_m - mid * e_cap, mid))
        if e_m <= e_cap:
            mu_hi, rho_b, e_b = mid, rho_m, e_m
        else:
            mu_lo, rho_a, e_a = mid, rho_m, e_m
    if e_a > e_cap >= e_b and e_a - e_b > 1e-15:
        t = (e_cap - e_b) / (e_a - e_b)
        rho = t * rho_a + (1.0 - t) * rho_b
    else:
        rho = rho_b
    dual, mu = max(duals, key=lambda pair: pair[0])
    return rho, dual, mu


def _multiplier_instances(seed, count):
    """(m, H, E) with d from 2 to 7, degenerate H, caps in (E_0, uniform energy)."""
    gen = Generators(np.random.default_rng(seed))
    for k in range(count):
        d = 2 + k % 6
        ev = np.sort(gen.rng.uniform(0.0, 3.0, d))
        if k % 3 == 0:
            ev[1] = ev[0]
        h = Hamiltonian(ev)
        a = gen.rng.standard_normal((d, d)) + 1j * gen.rng.standard_normal((d, d))
        m = gen.rng.uniform(0.1, 3.0) * (a + a.conj().T) / 2.0
        e_cap = h.ground_energy + gen.rng.uniform(1e-6, 1.0) * (h.uniform_energy - h.ground_energy)
        yield m, h.to_matrix(), e_cap


class TestConstrainedMinimum:
    def test_newton_dual_matches_bisection(self, monkeypatch):
        real_eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            calls[-1] += 1
            return real_eigh(a, *args, **kwargs)

        solved = 0
        for m, h_mat, e_cap in _multiplier_instances(71, 400):
            ref_rho, ref_dual, _ = _bisected_constrained_minimum(m, h_mat, e_cap)
            calls.append(0)
            monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
            rho, dual, mu = _constrained_minimum(m, h_mat, e_cap)
            monkeypatch.setattr(np.linalg, "eigh", real_eigh)
            solved += mu > 0.0
            assert dual >= ref_dual - 1e-12 * max(1.0, abs(ref_dual))
            assert np.linalg.eigvalsh(rho).min() >= -1e-12
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert np.einsum("ij,ji->", h_mat, rho).real <= e_cap + 1e-12
            again = _constrained_minimum(m, h_mat, e_cap)
            assert np.array_equal(again[0], rho) and again[1] == dual and again[2] == mu
        assert solved >= 250  # the cap binds, so the multiplier is solved for
        assert np.mean(calls) <= 20.0  # the bisection averages about 80

    @pytest.mark.parametrize("rotated", [False, True])
    def test_level_crossing_terminates(self, rotated):
        # m and H commute, so the ground state of m + mu H switches from energy
        # 2 to energy 0 at mu = 1/2: e(mu) jumps across E = 1 and the curvature
        # is 0 on both sides
        m, h_mat = np.diag([0.0, 1.0, 2.0]).astype(complex), np.diag([2.0, 0.0, 1.0]).astype(complex)
        if rotated:
            u = Generators(np.random.default_rng(5)).unitary(3)
            m, h_mat = u @ m @ u.conj().T, u @ h_mat @ u.conj().T
        rho, dual, mu = _constrained_minimum(m, h_mat, 1.0)
        _, ref_dual, ref_mu = _bisected_constrained_minimum(m, h_mat, 1.0)
        assert abs(dual - ref_dual) <= 1e-12
        assert abs(mu - 0.5) <= 1e-12 and abs(ref_mu - 0.5) <= 1e-12
        assert abs(dual - 0.5) <= 1e-12  # the two crossing levels mixed half and half
        assert np.einsum("ij,ji->", h_mat, rho).real <= 1.0 + 1e-12
        assert abs(np.einsum("ij,ji->", m, rho).real - dual) <= 1e-12

    @pytest.mark.two_blas_threads
    @pytest.mark.parametrize("rotated", [False, True])
    def test_level_crossing_takes_one_cut(self, rotated, monkeypatch):
        # mu = 0 and mu = 1 bracket the crossing of the levels 2 mu and 1, and their
        # tangents meet at the crossing mu = 1/2: three evaluations in all
        m, h_mat = np.diag([0.0, 1.0, 2.0]).astype(complex), np.diag([2.0, 0.0, 1.0]).astype(complex)
        if rotated:
            u = Generators(np.random.default_rng(5)).unitary(3)
            m, h_mat = u @ m @ u.conj().T, u @ h_mat @ u.conj().T
        real = metrics._ground_min_energy_state
        calls = []
        monkeypatch.setattr(metrics, "_ground_min_energy_state", lambda a, h: calls.append(a) or real(a, h))
        _, _, mu = _constrained_minimum(m, h_mat, 1.0)
        assert len(calls) == 3
        assert abs(mu - 0.5) <= 1e-12

    @pytest.mark.two_blas_threads
    @pytest.mark.parametrize("suite, most", [("prop5", 140), ("prop8", 108)])
    def test_capped_brackets_eval_count(self, suite, most, monkeypatch):
        # the default capped systems at seed 7, one trial each: 216 and 113 evaluations
        # when the safeguard bisected at every level crossing
        real = metrics._ground_min_energy_state
        calls = []
        monkeypatch.setattr(metrics, "_ground_min_energy_state", lambda a, h: calls.append(a) or real(a, h))
        run_suite(CampaignConfig(suite=suite, trials=1, seed=7))
        assert 0 < len(calls) <= most

    @pytest.mark.two_blas_threads
    @pytest.mark.parametrize("tracker", [metrics._SaddleTracker, metrics._DiamondTracker])
    def test_multiplier_reproducible_across_parent_loop(self, tracker):
        # the capped pairs of `test_factor_reuse_matches_parent_loop`: contractions that differ
        # by rounding give multipliers that agree to 2e-9 relative (5e-5 when the first maximal
        # dual picked the multiplier), the worst at a multiplier of 2.3e-7
        parent = type("Parent", (tracker,), {"descend": _parent_descend})
        h = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        for k in range(20):
            d_a = 2 + k % 2
            phi, psi = random_channel(d_a, 2, 2, seed=8100 + 2 * k), random_channel(d_a, 2, 2, seed=8101 + 2 * k)
            cap = EnergyCap(Hamiltonian(h.eigenvalues[:d_a]), 0.2 + 0.02 * k)
            got = metrics._solve_bracket(tracker, phi, psi, cap, 500, metrics.BRACKET_TOL)
            ref = metrics._solve_bracket(parent, phi, psi, cap, 500, metrics.BRACKET_TOL)
            assert abs(got.upper_multiplier - ref.upper_multiplier) <= 2e-9 * abs(ref.upper_multiplier), k


def _general_ground_min_energy_state(m, h_mat):
    """`_ground_min_energy_state` with the bottom eigenspace always diagonalised by a second `eigh`."""
    w, u = np.linalg.eigh(m)
    lam0 = float(w[0])
    sel = w <= lam0 + 1e-11 + abs(lam0) * 1e-12
    basis = u[:, sel]
    hr = basis.conj().T @ h_mat @ basis
    hw, hu = np.linalg.eigh((hr + hr.conj().T) / 2.0)
    vec = basis @ hu[:, 0]
    coupling = u[:, ~sel].conj().T @ (h_mat @ vec)
    curvature = 2.0 * float(np.sum(np.abs(coupling) ** 2 / (lam0 - w[~sel])))
    return np.outer(vec, vec.conj()), float(hw[0].real), lam0, curvature


def _parent_descend(self, budget, tol):
    """`_SaddleTracker.descend` as it was with a boolean step test: every block is
    factored again by each Newton step, and block 0 by each certification."""

    def feasible(y):
        if self.cap is not None and not y[-1] > 0.0:
            return False
        try:
            for f in self._blocks(y):
                np.linalg.cholesky(f)
        except np.linalg.LinAlgError:
            return False
        return True

    def newton_step(y, tau):
        barriers = []
        for f, (_, a) in zip(self._blocks(y), self.blocks):
            s = np.linalg.inv(np.linalg.cholesky(f))
            hat = s @ a @ s.conj().T
            flat = hat.reshape(len(a), -1)
            barriers.append((-np.einsum("kii->k", hat).real, (flat.conj() @ flat.T).real))
        grad = sum((g for g, _ in barriers), tau * self.objective)
        hess = sum(h for _, h in barriers)
        if self.cap is not None:
            grad[-1] -= 1.0 / y[-1]
            hess[-1, -1] += 1.0 / y[-1] ** 2
        scale = 1.0 / np.sqrt(np.diagonal(hess))
        step = -scale * np.linalg.solve(hess * np.outer(scale, scale), scale * grad)
        return step, float(-grad @ step)

    def certify(y):
        self._certify(y, np.linalg.cholesky(self._blocks(y)[0]))

    y = self.y0
    certify(y)
    tau = 1.0
    try:
        while True:
            for _ in range(metrics._CENTERING_STEPS):
                if self.iterations >= budget:
                    break
                step, lam2 = newton_step(y, tau)
                if not np.isfinite(lam2) or lam2 / 2.0 <= metrics._CENTERED:
                    break
                self.iterations += 1
                alpha = 1.0 if lam2 <= 1.0 / 16.0 else 1.0 / (1.0 + math.sqrt(lam2))
                while not feasible(y + alpha * step):
                    alpha /= 2.0
                    if alpha < 1e-12:
                        return
                y = y + alpha * step
            certify(y)
            if self.width <= tol or self.nu / tau <= metrics._BARRIER_GAP or self.iterations >= budget:
                return
            tau *= metrics._TAU_GROWTH
    except np.linalg.LinAlgError:
        return


def _every_centering_descend(self, budget, tol):
    """`_SaddleTracker.descend` as it was when it certified the start point and every
    centering, and nothing at a step underflow or a numerical failure."""
    y = self.y0
    factor = np.linalg.cholesky(self._matrix(y))
    barrier = None
    self._certify(y, factor)
    tau = 1.0
    try:
        while True:
            for _ in range(metrics._CENTERING_STEPS):
                if self.iterations >= budget:
                    break
                if barrier is None:
                    barrier = self._barrier(factor)
                step, lam2 = self._newton_step(y, barrier, tau)
                if not math.isfinite(lam2) or lam2 / 2.0 <= metrics._CENTERED:
                    break
                self.iterations += 1
                alpha = 1.0 if lam2 <= 1.0 / 16.0 else 1.0 / (1.0 + math.sqrt(lam2))
                while (trial := self._factors(y + alpha * step)) is None:
                    alpha /= 2.0
                    if alpha < 1e-12:
                        return
                y, factor, barrier = y + alpha * step, trial, None
            self._certify(y, factor)
            if self.width <= tol or self.nu / tau <= metrics._BARRIER_GAP or self.iterations >= budget:
                return
            tau *= metrics._TAU_GROWTH
    except np.linalg.LinAlgError:
        return


def _bracket_bits(br):
    """Every field of a Bracket, arrays as their bytes, so that == compares bit for bit."""
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(br).values())


def _lmi_barrier(l, basis):
    """Gradient and Hessian of -log det f along the Hermitian `basis` stack, from f = l l*,
    for one block: the per-block terms that the tracker summed before it fused its blocks."""
    s = np.linalg.inv(l)
    hat = s @ basis @ s.conj().T
    flat = hat.reshape(len(basis), -1)
    return -np.einsum("kii->k", hat).real, (flat.conj() @ flat.T).real


_TRACKERS = [
    (metrics._SaddleTracker, False),
    (metrics._SaddleTracker, True),
    (metrics._DiamondTracker, False),
    (metrics._DiamondTracker, True),
]


class TestTrackerShortcuts:
    @pytest.mark.parametrize("tracker, capped", _TRACKERS)
    def test_flat_blocks_match_tensordot(self, tracker, capped):
        phi, psi = random_channel(3, 2, 2, seed=61), random_channel(3, 2, 2, seed=62)
        cap = EnergyCap(Hamiltonian(np.array([0.0, 1.0, 2.0])), 0.8) if capped else None
        tr = tracker(phi.isometry, psi.isometry, 2, 2, cap)
        y_rand = tr.y0 + 0.1 * np.random.default_rng(63).standard_normal(tr.y0.size)
        for y in (tr.y0, y_rand):
            got = tr._blocks(y)
            ref = [c + np.tensordot(y, a, 1) for c, a in tr.blocks]
            assert len(got) == len(ref)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))

    @pytest.mark.two_blas_threads
    @pytest.mark.parametrize("tracker, capped", _TRACKERS)
    @pytest.mark.parametrize("d_a", [2, 3, 6])
    def test_fused_barrier_matches_block_sum(self, tracker, capped, d_a):
        # one factor, one inverse and one Gram product of the block-diagonal F give the
        # sum of every block's own barrier terms, at the start point and inside the cone
        phi, psi = random_channel(d_a, 2, 3, seed=71), random_channel(d_a, 2, 3, seed=72)
        cap = EnergyCap(Hamiltonian(np.arange(d_a, dtype=float)), 0.4 * d_a) if capped else None
        tr = tracker(phi.isometry, psi.isometry, 2, 3, cap)
        rng = np.random.default_rng(73 + d_a)
        points = [tr.y0]
        for _ in range(3):
            step = 0.3 * rng.standard_normal(tr.y0.size)
            while tr._factors(tr.y0 + step) is None:  # y0 is interior: halving ends inside the cone
                step /= 2.0
            points.append(tr.y0 + step)
        for y in points:
            grad, hess = tr._barrier(tr._factors(y))
            terms = [_lmi_barrier(np.linalg.cholesky(f), a) for f, (_, a) in zip(tr._blocks(y), tr.blocks)]
            ref_grad, ref_hess = sum(g for g, _ in terms), sum(h for _, h in terms)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
            assert np.abs(hess - ref_hess).max() <= 1e-12 * np.abs(ref_hess).max()

    @pytest.mark.parametrize("tracker, capped", _TRACKERS)
    def test_each_iterate_factored_once(self, tracker, capped, monkeypatch):
        # the step test factors the block-diagonal F at the accepted point once; its
        # certification and its barrier terms start from that factor, and the terms
        # serve every tau
        phi, psi = random_channel(3, 2, 2, seed=61), random_channel(3, 2, 2, seed=62)
        cap = EnergyCap(Hamiltonian(np.array([0.0, 1.0, 2.0])), 0.8) if capped else None
        real_cholesky = np.linalg.cholesky
        phase = ["descend"]
        counts = collections.Counter()  # cholesky calls by the method they ran in
        calls = collections.Counter()  # calls of the wrapped methods
        step_tests = []  # (factorisations, accepted) per call of the step test

        def counting_cholesky(a, *args, **kwargs):
            counts[phase[-1]] += 1
            return real_cholesky(a, *args, **kwargs)

        def in_phase(name):
            method = getattr(tracker, name)

            def wrapped(self, *args):
                calls[name] += 1
                start = counts[name]
                phase.append(name)
                try:
                    out = method(self, *args)
                finally:
                    phase.pop()
                if name == "_factors":
                    step_tests.append((counts[name] - start, out is not None))
                return out
            return wrapped

        names = ("_factors", "_barrier", "_newton_step", "_certify")
        counted = type("Counted", (tracker,), {name: in_phase(name) for name in names})
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        br = metrics._solve_bracket(counted, phi, psi, cap, 500, metrics.BRACKET_TOL)
        n_blocks = 1  # the blocks are one block-diagonal matrix
        assert br.converged and br.iterations >= 10
        assert counts["_newton_step"] == 0 and counts["_certify"] == 0 and counts["_barrier"] == 0
        # barrier terms once per iterate, the start included, against one Newton step more per centering
        assert calls["_barrier"] <= n_blocks * (br.iterations + 1)
        assert calls["_newton_step"] >= br.iterations + 3
        assert counts["descend"] == n_blocks  # the start point, factored once
        assert sum(accepted for _, accepted in step_tests) == br.iterations
        assert all(n == n_blocks for n, accepted in step_tests if accepted)
        assert all(n <= n_blocks for n, _ in step_tests)

    @pytest.mark.two_blas_threads
    @pytest.mark.parametrize("tracker, capped", _TRACKERS)
    def test_factor_reuse_matches_parent_loop(self, tracker, capped):
        # one factor of the block-diagonal F, kept from the step test, follows the same
        # path as the loop that factored every block of every iterate again, to rounding:
        # 20 seeded pairs, the same steps, brackets that meet and endpoints that move by
        # less than the reference bracket's own width
        parent = type("Parent", (tracker,), {"descend": _parent_descend})
        h = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        for k in range(20):
            d_a = 2 + k % 2
            phi, psi = random_channel(d_a, 2, 2, seed=8100 + 2 * k), random_channel(d_a, 2, 2, seed=8101 + 2 * k)
            cap = EnergyCap(Hamiltonian(h.eigenvalues[:d_a]), 0.2 + 0.02 * k) if capped else None
            got = metrics._solve_bracket(tracker, phi, psi, cap, 500, metrics.BRACKET_TOL)
            ref = metrics._solve_bracket(parent, phi, psi, cap, 500, metrics.BRACKET_TOL)
            assert (got.iterations, got.converged) == (ref.iterations, ref.converged), k
            assert max(got.lower, ref.lower) <= min(got.upper, ref.upper), k
            assert got.width <= ref.width + 1e-9, k
            assert abs(got.lower - ref.lower) <= ref.width and abs(got.upper - ref.upper) <= ref.width, k
            assert abs(got.upper_multiplier - ref.upper_multiplier) <= 1e-8 * abs(ref.upper_multiplier), k

    @pytest.mark.parametrize("d, shape", [(2, (2, 2)), (3, (2, 2)), (2, (3, 3)), (4, (1, 1)), (2, (2, 3))])
    def test_eye_kron_matches_kron(self, d, shape):
        c = complex_gaussian(np.random.default_rng(64), shape)
        c.flat[0] = complex(-0.0, 0.0)  # signed zeros take the same products
        c.flat[-1] = complex(0.0, -0.0)
        for x in (c, c.real.copy(), c.conj().T):
            assert metrics._eye_kron(d, x).tobytes() == np.kron(np.eye(d), x).tobytes()

    def test_simple_ground_space_skips_second_eigh(self):
        checked = 0
        for m, h_mat, _ in _multiplier_instances(83, 60):
            w = np.linalg.eigvalsh(m)
            if w[1] <= w[0] + 1e-11 + abs(w[0]) * 1e-12:
                continue  # the bottom eigenvalue is not simple
            rho, energy, lam0, curvature = _ground_min_energy_state(m, h_mat)
            ref = _general_ground_min_energy_state(m, h_mat)
            assert rho.tobytes() == ref[0].tobytes()
            assert (energy, lam0, curvature) == ref[1:]
            checked += 1
        assert checked >= 50


def _recording(tracker):
    """`tracker` that records each iterate its step test accepts and each iterate it certifies."""

    def factors(self, y):
        out = tracker._factors(self, y)
        if out is not None:
            self.accepted.append(y)
        return out

    def certify(self, y, factor):
        self.certified.append(y)
        return tracker._certify(self, y, factor)

    def init(self, *args):
        self.accepted, self.certified = [], []
        tracker.__init__(self, *args)

    return type("Recording", (tracker,), {"__init__": init, "_factors": factors, "_certify": certify})


def _exit_pair():
    """The capped pair k = 3 of `test_factor_reuse_matches_parent_loop`, as a tracker's arguments."""
    phi, psi = random_channel(3, 2, 2, seed=8106), random_channel(3, 2, 2, seed=8107)
    return phi.isometry, psi.isometry, 2, 2, EnergyCap(Hamiltonian(np.array([0.0, 1.0, 2.0])), 0.26)


class TestCertifySchedule:
    @pytest.mark.two_blas_threads
    @pytest.mark.parametrize("tracker, capped", _TRACKERS)
    def test_matches_certifying_every_centering(self, tracker, capped):
        # the early centerings' certificates, nu / tau > _CERTIFY_GAP, never moved an endpoint
        # or ended a path: every field of every bracket is bit-identical without them
        every = type("Every", (tracker,), {"descend": _every_centering_descend})
        h = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        for k in range(20):
            d_a = 2 + k % 2
            phi, psi = random_channel(d_a, 2, 2, seed=8100 + 2 * k), random_channel(d_a, 2, 2, seed=8101 + 2 * k)
            cap = EnergyCap(Hamiltonian(h.eigenvalues[:d_a]), 0.2 + 0.02 * k) if capped else None
            got = metrics._solve_bracket(tracker, phi, psi, cap, 500, metrics.BRACKET_TOL)
            ref = metrics._solve_bracket(every, phi, psi, cap, 500, metrics.BRACKET_TOL)
            assert _bracket_bits(got) == _bracket_bits(ref), k

    @pytest.mark.two_blas_threads
    @pytest.mark.parametrize("suite, most", [("prop5", 80), ("prop8", 66)])
    def test_late_certificates_eval_count(self, suite, most, monkeypatch):
        # the default capped systems at seed 7, one trial each: 127 and 104 evaluations
        # when every centering was certified
        real = metrics._ground_min_energy_state
        calls = []
        monkeypatch.setattr(metrics, "_ground_min_energy_state", lambda a, h: calls.append(a) or real(a, h))
        run_suite(CampaignConfig(suite=suite, trials=1, seed=7))
        assert 0 < len(calls) <= most

    @staticmethod
    def _certified_at(tracker, args, ys):
        """(lower, upper) of a fresh tracker that certifies exactly the iterates ys."""
        ref = tracker(*args)
        for y in ys:
            ref._certify(y, ref._factors(y))
        return ref.lower, ref.upper

    @pytest.mark.parametrize("tracker", [metrics._SaddleTracker, metrics._DiamondTracker])
    def test_budget_exit_certifies_last_iterate(self, tracker):
        args = _exit_pair()
        full = tracker(*args).bracket(500, metrics.BRACKET_TOL)
        assert full.converged and full.iterations > 6
        tr = _recording(tracker)(*args)
        br = tr.bracket(6, metrics.BRACKET_TOL)
        assert br.iterations == 6 and not br.converged
        assert len(tr.accepted) == 6
        # the start point and the exit: no centering got to nu / tau <= _CERTIFY_GAP
        assert [y is tr.y0 for y in tr.certified] == [True, False]
        assert tr.certified[-1].tobytes() == tr.accepted[-1].tobytes()
        assert (br.lower, br.upper) == self._certified_at(tracker, args, [tr.y0, tr.accepted[-1]])

    @pytest.mark.parametrize("tracker", [metrics._SaddleTracker, metrics._DiamondTracker])
    @pytest.mark.parametrize("failure", ["underflow", "linalg"])
    def test_failure_exit_certifies_last_iterate(self, tracker, failure):
        # after 4 accepted steps the step test rejects every point, so the step halves to
        # underflow, or the next Newton step fails numerically
        def factors(self, y):
            return None if len(self.accepted) >= 4 else tracker._factors(self, y)

        def newton_step(self, y, barrier, tau):
            if len(self.accepted) >= 4:
                raise np.linalg.LinAlgError("singular Hessian")
            return tracker._newton_step(self, y, barrier, tau)

        override = {"_factors": factors} if failure == "underflow" else {"_newton_step": newton_step}
        args = _exit_pair()
        tr = _recording(type("Failing", (tracker,), override))(*args)
        br = tr.bracket(500, metrics.BRACKET_TOL)
        assert not br.converged and br.iterations == 4 + (failure == "underflow")
        assert len(tr.accepted) == 4 and len(tr.certified) == 2
        assert tr.certified[0] is tr.y0 and tr.certified[-1].tobytes() == tr.accepted[-1].tobytes()
        assert (br.lower, br.upper) == self._certified_at(tracker, args, [tr.y0, tr.accepted[-1]])

    @pytest.mark.parametrize("tracker", [metrics._SaddleTracker, metrics._DiamondTracker])
    @pytest.mark.parametrize("budget", [6, 500])
    def test_failed_certificate_is_dropped(self, tracker, budget):
        # every certificate after the start point's fails: at the exit (budget 6), or at the
        # first late centering (budget 500), which is not tried again at the exit
        def certify(self, y, factor):
            if y is not self.y0:
                self.failed.append(y)
                raise np.linalg.LinAlgError("SVD did not converge")
            return tracker._certify(self, y, factor)

        args = _exit_pair()
        tr = type("Failing", (tracker,), {"_certify": certify})(*args)
        tr.failed = []
        br = tr.bracket(budget, metrics.BRACKET_TOL)
        start = self._certified_at(tracker, args, [tr.y0])
        assert (br.lower, br.upper) == start and not br.converged
        assert len(tr.failed) == 1


@pytest.mark.two_blas_threads
class TestDiamond:
    def test_identical_channels(self):
        ch = random_channel(2, 2, 2, seed=8)
        dia = diamond_bracket(ch, ch)
        assert dia.lower <= 1e-9
        assert dia.upper <= 2e-6

    def test_bracket_ordering_random_pairs(self):
        for k in range(10):
            phi = random_channel(2, 2, 2, seed=500 + 2 * k)
            psi = random_channel(2, 2, 2, seed=501 + 2 * k)
            dia = diamond_bracket(phi, psi)
            assert dia.lower <= dia.upper + 1e-9
            assert dia.converged and dia.width <= 1e-6 and dia.upper <= 2.0

    def test_relations_to_bures(self):
        phi = random_channel(2, 2, 2, seed=41)
        psi = random_channel(2, 2, 2, seed=42)
        br = channel_bures_bracket(phi, psi, seed=9)
        dia = diamond_bracket(phi, psi)
        assert 0.5 * dia.lower <= br.upper + 1e-6
        assert br.lower <= math.sqrt(dia.upper) + 1e-6

    def test_upper_capped_at_trivial_bound(self):
        # identity against a bit flip: twice the Bures upper bound exceeds 2
        ident = StinespringChannel(np.eye(2), 2, 2, 1)
        flip = StinespringChannel(np.array([[0.0, 1.0], [1.0, 0.0]]), 2, 2, 1)
        br = channel_bures_bracket(ident, flip, seed=3)
        dia = diamond_bracket(ident, flip)
        assert 2.0 * br.upper > 2.0
        assert dia.upper <= 2.0
        assert dia.lower <= dia.upper + 1e-9
        # the diamond distance is 2, and the ordering holds with no rounding slack
        assert dia.lower <= dia.upper <= 2.0
        assert dia.lower >= 2.0 - 1e-8 and dia.converged

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
    def test_unitary_pair_closed_form(self, theta):
        # U = I against V = diag(1, e^{i theta}): the numerical range of U* V is the chord
        # from 1 to e^{i theta}, at distance nu = cos(theta / 2) from 0, so the diamond
        # distance is 2 sqrt(1 - nu^2) = 2 sin(theta / 2) (Watrous, TQI Thm 3.55)
        ident = StinespringChannel(np.eye(2), 2, 2, 1)
        phase = StinespringChannel(np.diag([1.0, np.exp(1j * theta)]), 2, 2, 1)
        exact = 2.0 * math.sin(theta / 2.0)
        dia = diamond_bracket(ident, phase, tol=1e-9)
        assert abs(dia.lower - exact) <= 1e-8 and abs(dia.upper - exact) <= 1e-8
        assert dia.lower <= exact + 1e-12

    def test_cap_at_ground_energy_is_ground_output_distance(self):
        # a non-degenerate ground level admits the single input |0><0|, so the reference
        # is trivial and the distance is the trace norm of the two outputs' difference
        h = Hamiltonian(np.array([0.0, 1.0, 2.5]))
        phi = random_channel(3, 2, 2, seed=45)
        psi = random_channel(3, 2, 2, seed=46)
        dia = diamond_bracket(phi, psi, EnergyCap(h, 0.0), tol=1e-9)
        v_phi, v_psi = (ch.isometry[:, 0].reshape(2, 2) for ch in (phi, psi))
        exact = trace_norm(v_phi @ v_phi.conj().T - v_psi @ v_psi.conj().T)
        assert abs(dia.lower - exact) <= 1e-8 and abs(dia.upper - exact) <= 1e-8
        assert dia.lower_state_energy == 0.0

    def test_constrained_inputs_feasible(self):
        h = Hamiltonian(np.arange(3.0))
        phi = random_channel(3, 2, 2, seed=43)
        psi = random_channel(3, 2, 2, seed=44)
        dia = diamond_bracket(phi, psi, EnergyCap(h, 0.8))
        assert dia.lower_state_energy is not None
        assert dia.lower_state_energy <= 0.8 + 1e-9
        # the SDP path has no sign step on rounding-noise eigenvalues, so the lower
        # endpoint keeps its one-thread value under any BLAS thread count
        assert abs(dia.lower - 1.9942118821718031) <= 1e-12
        assert dia.converged and dia.width <= 1e-6

    def test_lower_endpoint_is_output_norm_of_lower_state(self):
        # recomputed through `purify` and `apply`, not the Choi matrix: the lower
        # state of J in place of J-bar misses the endpoint on this complex pair
        h = Hamiltonian(np.arange(3.0))
        phi = random_channel(3, 2, 2, seed=43)
        psi = random_channel(3, 2, 2, seed=44)
        dia = diamond_bracket(phi, psi, EnergyCap(h, 0.8))
        pure = purify(DensityMatrix(SystemLayout([("A", 3)]), dia.lower_state), "R").to_density()
        assert abs(dia.lower - trace_norm(apply(phi, pure).entries - apply(psi, pure).entries)) <= 1e-10
        assert dia.lower_state_energy <= 0.8 + 1e-12 and dia.converged


class TestExactOracles:
    """Unitary pairs whose channel distances are known exactly: U = I against
    W = Q diag(e^{i phi}) Q*, phi = linspace(0, w, d), Q a seeded Haar unitary.
    The eigenvalues of U* W fill the arc [0, w] (w < pi) and its numerical range
    is their convex hull, at distance nu = cos(w / 2) from 0.  The root fidelity
    min_rho ||X(rho)||_1 of the Bures bracket is nu, so beta = sqrt(2 (1 - nu)),
    and the diamond distance is 2 sqrt(1 - nu^2) = 2 sin(w / 2).  Pure-loss pairs
    under a photon-number cap give the capped Bures bracket an exact value too."""

    W = 2.0

    def _pair(self, d: int):
        q = Generators(np.random.default_rng(100 + d)).unitary(d)
        w = q @ np.diag(np.exp(1j * np.linspace(0.0, self.W, d))) @ q.conj().T
        return StinespringChannel(np.eye(d), d, d, 1), StinespringChannel(w, d, d, 1)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_bures_bracket_holds_beta(self, d):
        exact = math.sqrt(2.0 * (1.0 - math.cos(self.W / 2.0)))
        br = channel_bures_bracket(*self._pair(d))
        assert br.lower - 1e-12 <= exact <= br.upper + 1e-12 and br.converged

    @pytest.mark.parametrize("d", [2, 4])
    def test_diamond_bracket_holds_two_sin(self, d):
        exact = 2.0 * math.sin(self.W / 2.0)
        dia = diamond_bracket(*self._pair(d))
        assert dia.lower - 1e-12 <= exact <= dia.upper + 1e-12 and dia.converged

    @staticmethod
    def _pure_loss(eta: float, n_max: int):
        """Pure loss on Fock levels 0..n_max: V|n> = sum_k sqrt(C(n, k) eta^k (1 - eta)^(n - k)) |k>_B |n - k>_E."""
        d = n_max + 1
        v = np.zeros((d * d, d))
        for n in range(d):
            for k in range(n + 1):
                v[k * d + n - k, n] = math.sqrt(math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k))
        return StinespringChannel(v, d, d, d)

    @pytest.mark.parametrize("n_max, etas, n_bar", [
        (4, (0.9, 0.8), 2.7), (4, (1.0, 0.95), 0.5), (4, (0.5, 0.3), 1.0),
        (6, (0.9, 0.8), 0.25), (6, (1.0, 0.95), 1.0), (6, (0.5, 0.3), 2.7),
        (8, (0.9, 0.8), 1.0), (8, (1.0, 0.95), 2.7),
    ])
    def test_capped_bures_bracket_holds_pure_loss_beta(self, n_max, etas, n_bar):
        """Pure-loss pairs under a mean photon number cap n_bar: input |n> has root
        fidelity c^n, c = sqrt(eta1 eta2) + sqrt((1 - eta1)(1 - eta2)), and c^n is
        convex in n, so the least root fidelity mixes the two levels next to n_bar."""
        (eta1, eta2), k = etas, math.floor(n_bar)
        c = math.sqrt(eta1 * eta2) + math.sqrt((1.0 - eta1) * (1.0 - eta2))
        f = n_bar - k
        exact = math.sqrt(2.0 * (1.0 - ((1.0 - f) * c**k + f * c ** (k + 1))))
        cap = EnergyCap(Hamiltonian(np.arange(n_max + 1) + 0.5), n_bar + 0.5)
        br = channel_bures_bracket(self._pure_loss(eta1, n_max), self._pure_loss(eta2, n_max), cap)
        assert br.lower - 1e-12 <= exact <= br.upper + 1e-12 and br.converged


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


def _parent_bruteforce(phi, psi, samples, seed, chunk):
    """`bures_sup_bruteforce` as it was: complex draws as a + 1j * b, normalised by division."""
    d_r = phi.d_a
    w_phi, w_psi = _extend_isometry(phi.isometry, d_r), _extend_isometry(psi.isometry, d_r)
    rng = np.random.default_rng(seed)
    dim = phi.d_a * d_r

    def evaluate(vecs):
        vals = _batched_output_bures(w_phi, w_psi, vecs, phi.d_b, phi.d_e, psi.d_e, d_r)
        top = int(np.argmax(vals))
        return float(vals[top]), vecs[top]

    best, best_vec = -1.0, None
    coarse = samples // 2
    remaining = coarse
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        vecs = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        val, vec = evaluate(vecs)
        if val > best:
            best, best_vec = val, vec
    radii = (0.3, 0.1, 0.03, 0.01, 0.003)
    per_stage = max((samples - coarse) // len(radii), 1)
    for radius in radii:
        noise = rng.standard_normal((per_stage, dim)) + 1j * rng.standard_normal((per_stage, dim))
        vecs = best_vec[None, :] + radius * noise
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        val, vec = evaluate(vecs)
        if val > best:
            best, best_vec = val, vec
    return max(best, 0.0)


def _sample_first_output_bures(w_phi, w_psi, vecs, d_b, d_e1, d_e2, d_r):
    """`_batched_output_bures` as it was, with the sample axis first in the outer products."""
    m, dim = vecs.shape
    form = np.einsum("beri,bfrj->ijef", w_phi.reshape(d_b, d_e1, d_r, dim),
                     w_psi.reshape(d_b, d_e2, d_r, dim).conj()).reshape(dim * dim, d_e1 * d_e2)
    outer = (vecs[:, :, None] * vecs[:, None, :].conj()).reshape(m, dim * dim)
    root_f = np.clip(_trace_norms((outer @ form).reshape(m, d_e1, d_e2)), 0.0, 1.0)
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

    @pytest.mark.parametrize("kind", ["random", "rank_one", "near_singular"])
    def test_closed_form_2x2_trace_norm_matches_40_digits(self, kind):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(54)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        y = cplx(200, 2, 2) if kind == "random" else cplx(200, 2, 1) @ cplx(200, 1, 2)
        if kind == "near_singular":
            y += 1e-12 * cplx(200, 2, 2)
        y /= np.linalg.norm(y, axis=(1, 2), keepdims=True)  # an overlap has ||Y||_F <= 1
        det = np.abs(np.linalg.det(y))
        if kind == "near_singular":
            assert 1e-14 < np.median(det) < 1e-11
        got = _trace_norms(y)
        with mpmath.mp.workdps(40):
            for mat, val in zip(y, got):
                ref = mpmath.fsum(mpmath.svd_c(mpmath.matrix(mat.tolist()), compute_uv=False))
                assert abs(val - float(ref)) <= 1e-13

    def test_matches_spectral_square_roots_on_full_rank_outputs(self):
        phi = random_channel(2, 2, 4, seed=51)
        psi = random_channel(2, 2, 4, seed=52)
        w_phi, w_psi = _extend_isometry(phi.isometry, 2), _extend_isometry(psi.isometry, 2)
        vecs = _unit_vectors(np.random.default_rng(53), 2000, 4)
        got = _batched_output_bures(w_phi, w_psi, vecs, 2, 4, 4, 2)
        ref = _spectral_output_bures(w_phi, w_psi, vecs, 2, 4, 4, 2)
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.two_blas_threads
    @pytest.mark.parametrize("samples, chunk", [(4000, 20_000), (4000, 700), (100_000, 20_000), (100_000, 15_000)])
    def test_in_place_draws_match_parent_oracle(self, samples, chunk):
        # the in-place draws and the normalisation by 1 / norm give the same bits; a ragged
        # chunk (700 into 2000, 15000 into 50000) ends the coarse grid on a short batch
        for seeds, d_e2 in (((7000, 7001), 2), ((55, 56), 3)):
            phi, psi = random_channel(2, 2, 2, seed=seeds[0]), random_channel(2, 2, d_e2, seed=seeds[1])
            got = bures_sup_bruteforce(phi, psi, samples=samples, seed=3, chunk=chunk)
            assert got == _parent_bruteforce(phi, psi, samples, 3, chunk)

    @pytest.mark.two_blas_threads
    @pytest.mark.parametrize("dims, d_e2", [((2, 2, 2), 2), ((2, 2, 2), 3), ((2, 3, 3), 2), ((3, 2, 4), 4),
                                            ((2, 2, 1), 2), ((3, 3, 2), 5)])
    def test_sample_axis_last_matches_sample_first_bits(self, dims, d_e2):
        # both layouts feed BLAS the same (m, dim^2) x (dim^2, d_e1 d_e2) product,
        # so the closed 2 x 2 form and the SVD path give the same bits
        phi, psi = random_channel(*dims, seed=60), random_channel(dims[0], dims[1], d_e2, seed=61)
        d_r = dims[0]
        w_phi, w_psi = _extend_isometry(phi.isometry, d_r), _extend_isometry(psi.isometry, d_r)
        rng = np.random.default_rng(62)
        for m in (1, 7, 700, 20_000):
            vecs = _unit_vectors(rng, m, dims[0] * d_r)
            args = (w_phi, w_psi, vecs, dims[1], dims[2], d_e2, d_r)
            assert np.array_equal(_batched_output_bures(*args), _sample_first_output_bures(*args))

    def test_sample_stream_unchanged_on_certify_pair(self):
        # the benchmark's criterion-07 pair: same draws, same argmax, so the
        # value computed through spectral square roots is reproduced
        gen = Generators.for_trial(7, 0)
        phi, psi = gen.channel(2, 2, 2), gen.channel(2, 2, 2)
        brute = bures_sup_bruteforce(phi, psi, samples=100_000, seed=0)
        assert abs(brute - 1.1601267741302068) <= 1e-12

    @pytest.mark.parametrize("dims", [(3, 2, 2), (2, 3, 2)])
    def test_rejects_channels_of_differing_dimensions(self, dims, monkeypatch):
        # the brackets' own error, raised before any draw
        def no_draws(rng, shape):
            raise AssertionError("drew samples")

        monkeypatch.setattr(metrics, "complex_gaussian", no_draws)
        phi, psi = random_channel(2, 2, 2, seed=1), random_channel(*dims, seed=2)
        with pytest.raises(QStateError, match="^channels must share input and output dimensions$"):
            bures_sup_bruteforce(phi, psi, samples=10)

    @pytest.mark.parametrize("pair, limit_mib", [("certify", 4), ("4-4-2", 16)])
    def test_memory_does_not_grow_with_the_draw_batch(self, pair, limit_mib):
        # blocks of _ORACLE_BLOCK rows bound the outer products; one (dim^2, chunk)
        # array per batch peaked at 11.6 MiB and 97.7 MiB on these pairs
        if pair == "certify":
            gen = Generators.for_trial(7, 0)
            phi, psi = gen.channel(2, 2, 2), gen.channel(2, 2, 2)
        else:
            phi, psi = random_channel(4, 4, 2, seed=1), random_channel(4, 4, 2, seed=2)
        bures_sup_bruteforce(phi, psi, samples=10)
        tracemalloc.start()
        try:
            bures_sup_bruteforce(phi, psi, samples=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20

    @pytest.mark.two_blas_threads
    @pytest.mark.parametrize("chunk", [1, _ORACLE_BLOCK - 1, _ORACLE_BLOCK, _ORACLE_BLOCK + 1, 50_000])
    @pytest.mark.parametrize("dims, d_e2", [((2, 2, 2), 2), ((3, 3, 2), 2), ((2, 2, 2), 3)],
                             ids=["2-2-2", "3-3-2", "d_e-2-vs-3"])
    def test_block_boundaries_keep_the_parent_bits(self, chunk, dims, d_e2):
        # batches that end one row short of, on, and one row past a block, and
        # stages of 1, 1, 409 and 10000 refinement draws
        phi = random_channel(*dims, seed=63)
        psi = random_channel(dims[0], dims[1], d_e2, seed=64)
        for samples in (2, 11, 4097, 100_000):
            got = bures_sup_bruteforce(phi, psi, samples=samples, seed=5, chunk=chunk)
            assert got == _parent_bruteforce(phi, psi, samples, 5, chunk)

    @pytest.mark.parametrize("samples, chunk", [(4097, 1025), (100_000, 50_000)])
    def test_every_draw_is_evaluated_once_in_blocks(self, samples, chunk, monkeypatch):
        rows = []

        def recording(w_phi, w_psi, vecs, *dims):
            rows.append(len(vecs))
            assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, rtol=0, atol=1e-14)
            return _batched_output_bures(w_phi, w_psi, vecs, *dims)

        monkeypatch.setattr(metrics, "_batched_output_bures", recording)
        phi, psi = random_channel(2, 2, 2, seed=63), random_channel(2, 2, 3, seed=64)
        bures_sup_bruteforce(phi, psi, samples=samples, chunk=chunk)
        coarse, per_stage = samples // 2, (samples - samples // 2) // 5

        def blocks(m):
            return [_ORACLE_BLOCK] * (m // _ORACLE_BLOCK) + ([m % _ORACLE_BLOCK] if m % _ORACLE_BLOCK else [])

        batches = [chunk] * (coarse // chunk) + ([coarse % chunk] if coarse % chunk else [])
        assert rows == [n for m in batches + [per_stage] * 5 for n in blocks(m)]

    @pytest.mark.parametrize("chunk", [700, 50_000])
    def test_ties_go_to_the_earliest_draw(self, chunk, monkeypatch):
        # every coarse-grid value reads 0.5, so the refinement centres on the first
        # draw, as one argmax over the whole grid does; ties span batches and blocks
        samples, seen, batched = 4000, 0, _batched_output_bures

        def tied_grid(w_phi, w_psi, vecs, *dims):
            nonlocal seen
            vals = batched(w_phi, w_psi, vecs, *dims)
            vals[:max(min(samples // 2 - seen, len(vecs)), 0)] = 0.5
            seen += len(vecs)
            return vals

        gen = Generators.for_trial(7, 0)
        phi, psi = gen.channel(2, 2, 2), gen.channel(2, 2, 2)
        monkeypatch.setattr(metrics, "_batched_output_bures", tied_grid)
        got = bures_sup_bruteforce(phi, psi, samples=samples, seed=5, chunk=chunk)
        seen = 0
        monkeypatch.setitem(globals(), "_batched_output_bures", tied_grid)
        assert got == _parent_bruteforce(phi, psi, samples, 5, chunk)
