import itertools
import math

import numpy as np
import pytest

from chanbound.channels import (
    ErasureSpec,
    StinespringChannel,
    apply,
    common_stinespring,
    erasure_channel,
    random_channel,
)
from chanbound.energy import EnergyDomainError, Hamiltonian
from chanbound.entropic import Ensemble
from chanbound.harness.generators import Generators
from chanbound import metrics
from chanbound.metrics import (
    Bracket,
    EnergyConstraint,
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
    """(m, H, E) with d from 2 to 7, degenerate and rotated H, caps in (E_0, uniform energy)."""
    gen = Generators(np.random.default_rng(seed))
    for k in range(count):
        d = 2 + k % 6
        ev = np.sort(gen.rng.uniform(0.0, 3.0, d))
        if k % 3 == 0:
            ev[1] = ev[0]
        h = Hamiltonian(ev, eigenbasis=gen.unitary(d) if k % 2 else None)
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
        dia = diamond_bracket(phi, psi, EnergyConstraint(h, 0.0), tol=1e-9)
        v_phi, v_psi = (ch.isometry[:, 0].reshape(2, 2) for ch in (phi, psi))
        exact = trace_norm(v_phi @ v_phi.conj().T - v_psi @ v_psi.conj().T)
        assert abs(dia.lower - exact) <= 1e-8 and abs(dia.upper - exact) <= 1e-8
        assert dia.lower_state_energy == 0.0

    def test_constrained_inputs_feasible(self):
        h = Hamiltonian(np.arange(3.0))
        phi = random_channel(3, 2, 2, seed=43)
        psi = random_channel(3, 2, 2, seed=44)
        dia = diamond_bracket(phi, psi, EnergyConstraint(h, 0.8))
        assert dia.lower_state_energy is not None
        assert dia.lower_state_energy <= 0.8 + 1e-9
        # the SDP path has no sign step on rounding-noise eigenvalues, so the lower
        # endpoint keeps its one-thread value under any BLAS thread count
        assert abs(dia.lower - 1.9942118821715258) <= 1e-12
        assert dia.converged and dia.width <= 1e-6

    def test_lower_endpoint_is_output_norm_of_lower_state(self):
        # recomputed through `purify` and `apply`, not the Choi matrix; the complex
        # eigenbasis of H tells the input state from its complex conjugate
        h = Hamiltonian(np.arange(3.0), eigenbasis=Generators(np.random.default_rng(11)).unitary(3))
        phi = random_channel(3, 2, 2, seed=43)
        psi = random_channel(3, 2, 2, seed=44)
        dia = diamond_bracket(phi, psi, EnergyConstraint(h, 0.8))
        pure = purify(DensityMatrix(SystemLayout([("A", 3)]), dia.lower_state), "R").to_density()
        assert abs(dia.lower - trace_norm(apply(phi, pure).entries - apply(psi, pure).entries)) <= 1e-10
        assert dia.lower_state_energy <= 0.8 + 1e-12 and dia.converged


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

    def test_sample_stream_unchanged_on_certify_pair(self):
        # the benchmark's criterion-07 pair: same draws, same argmax, so the
        # value computed through spectral square roots is reproduced
        gen = Generators.for_trial(7, 0)
        phi, psi = gen.channel(2, 2, 2), gen.channel(2, 2, 2)
        brute = bures_sup_bruteforce(phi, psi, samples=100_000, seed=0)
        assert abs(brute - 1.1601267741302068) <= 1e-12
