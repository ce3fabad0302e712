"""Distances between states, ensembles, and channels.

Channel distances defined by optimization (Bures, diamond) are never
reported as point values: they come back as certified brackets.  Every
lower endpoint is witnessed by an explicit feasible input and every upper
endpoint by an explicit environment contraction plus Lagrange multiplier,
so the interval is sound even when the alternation has not converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .channels import StinespringChannel, common_stinespring
from .energy import EnergyCap, Hamiltonian, gibbs_state, mix_to_cap
from .entropic import Ensemble
from .qstate import DensityMatrix, QStateError, SystemLayout, trace_norm

BRACKET_TOL = 1e-6


def _sqrt_psd(entries: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(entries)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2, in [0, 1]."""
    if rho.layout != sigma.layout:
        raise QStateError("fidelity requires matching layouts")
    s = np.linalg.svd(_sqrt_psd(rho.entries) @ _sqrt_psd(sigma.entries), compute_uv=False)
    return float(min(max(s.sum() ** 2, 0.0), 1.0))


def bures_state_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """beta(rho, sigma) = sqrt(2 (1 - sqrt(F)))."""
    return math.sqrt(max(0.0, 2.0 * (1.0 - math.sqrt(fidelity(rho, sigma)))))


def _padded_items(mu: Ensemble, target: int):
    items = list(mu.items)
    if len(items) < target:
        filler = mu.average_state()
        items += [(0.0, filler)] * (target - len(items))
    return items


def ensemble_d0(mu: Ensemble, nu: Ensemble) -> float:
    """Index-locked metric (1/2) sum_i ||p_i rho_i - q_i sigma_i||_1.

    The shorter ensemble is padded with zero-probability copies of its own
    average state.
    """
    if mu.layout != nu.layout:
        raise QStateError("ensembles must share a layout")
    n = max(len(mu), len(nu))
    a = _padded_items(mu, n)
    b = _padded_items(nu, n)
    total = 0.0
    for (p, rho), (q, sigma) in zip(a, b):
        total += trace_norm(p * rho.entries - q * sigma.entries)
    return 0.5 * total


def ensemble_dk(mu: Ensemble, nu: Ensemble) -> float:
    """Kantorovich distance: optimal transport with trace-distance ground cost.

    Solved as an exact LP over the transportation polytope.
    """
    if mu.layout != nu.layout:
        raise QStateError("ensembles must share a layout")
    m, n = len(mu), len(nu)
    cost = np.empty((m, n))
    for i, rho in enumerate(mu.states):
        for j, sigma in enumerate(nu.states):
            cost[i, j] = trace_norm(rho.entries - sigma.entries)
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([mu.probabilities, nu.probabilities])
    res = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:  # cannot happen with valid marginals
        raise RuntimeError(f"transportation LP failed: {res.message}")
    return 0.5 * float(res.fun)


@dataclass(frozen=True)
class EnergyConstraint:
    """Mean-energy cap Tr[H rho] <= bound on the channel input marginal."""

    hamiltonian: Hamiltonian
    bound: float

    def __post_init__(self):
        if self.bound < self.hamiltonian.ground_energy - 1e-12:
            raise QStateError(
                f"bound {self.bound} below ground energy {self.hamiltonian.ground_energy}"
            )


@dataclass(frozen=True)
class Bracket:
    """Certified interval for an optimization-defined quantity.

    `lower` is achieved by `lower_state` (a feasible input), `upper` is the
    dual value of `upper_contraction` with multiplier `upper_multiplier`.
    """

    lower: float
    upper: float
    iterations: int
    converged: bool
    lower_state: Optional[np.ndarray] = field(default=None, repr=False)
    upper_contraction: Optional[np.ndarray] = field(default=None, repr=False)
    upper_multiplier: float = 0.0
    lower_state_energy: Optional[float] = None

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-9):
            raise QStateError(f"bracket ordering violated: [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _ground_min_energy_state(m: np.ndarray, h_mat: Optional[np.ndarray]):
    """Least-energy state in the bottom eigenspace of m.

    Returns (pure density matrix, its energy, lambda_min(m)).  Without a
    Hamiltonian the bottom eigenvector is returned with energy 0.
    """
    w, u = np.linalg.eigh(m)
    lam0 = float(w[0])
    if h_mat is None:
        vec = u[:, 0]
        return np.outer(vec, vec.conj()), 0.0, lam0
    sel = w <= lam0 + 1e-11 + abs(lam0) * 1e-12
    basis = u[:, sel]
    hr = basis.conj().T @ h_mat @ basis
    hw, hu = np.linalg.eigh((hr + hr.conj().T) / 2.0)
    vec = basis @ hu[:, 0]
    return np.outer(vec, vec.conj()), float(hw[0].real), lam0


def _constrained_minimum(m: np.ndarray, h_mat: Optional[np.ndarray], e_cap: Optional[float]):
    """Minimize Tr[m rho] over states with Tr[h rho] <= e_cap.

    Returns (feasible minimizer, certified dual lower bound on the minimum,
    multiplier).  The dual value max_mu lambda_min(m + mu h) - mu E is sound
    for any mu >= 0, so bisection inaccuracy never breaks certification.
    """
    rho0, e0, lam0 = _ground_min_energy_state(m, h_mat)
    if h_mat is None or e_cap is None or e0 <= e_cap + 1e-12:
        return rho0, lam0, 0.0
    duals = [(lam0, 0.0)]
    mu_hi = 1.0
    rho_b = e_b = None
    for _ in range(120):
        rho_b, e_b, lam_b = _ground_min_energy_state(m + mu_hi * h_mat, h_mat)
        duals.append((lam_b - mu_hi * e_cap, mu_hi))
        if e_b <= e_cap:
            break
        mu_hi *= 2.0
    else:
        raise QStateError("no multiplier makes the energy cap feasible")
    mu_lo, rho_a, e_a = 0.0, rho0, e0
    for _ in range(90):
        if mu_hi - mu_lo <= 1e-13 * max(1.0, mu_hi):
            break
        mid = 0.5 * (mu_lo + mu_hi)
        rho_m, e_m, lam_m = _ground_min_energy_state(m + mid * h_mat, h_mat)
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


def _env_overlap(v_phi: np.ndarray, v_psi: np.ndarray, rho: np.ndarray, d_b: int, d_e: int) -> np.ndarray:
    """X = Tr_B(V_psi rho V_phi*); its trace norm is the root-fidelity of the outputs."""
    m = v_psi @ rho @ v_phi.conj().T
    return np.einsum("bebf->ef", m.reshape(d_b, d_e, d_b, d_e))


def _polar_contraction(x: np.ndarray):
    """Contraction maximizing Re Tr[C X] (the adjoint polar factor) and ||X||_1."""
    u, s, wh = np.linalg.svd(x)
    c = wh.conj().T @ u.conj().T
    return c, float(s.sum())


def _segment_min_trace_norm(x0: np.ndarray, x1: np.ndarray):
    """Minimize ||(1-t) x0 + t x1||_1 over t in [0, 1] (convex in t)."""

    def val(t: float) -> float:
        return float(np.linalg.svd((1.0 - t) * x0 + t * x1, compute_uv=False).sum())

    lo, hi = 0.0, 1.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    fa, fb = val(a), val(b)
    for _ in range(42):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = val(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = val(b)
    candidates = [(val(0.0), 0.0), (val(1.0), 1.0), (fa, a), (fb, b)]
    best_val, best_t = min(candidates)
    return best_t, best_val


def _hermitian_pinch(v_phi: np.ndarray, v_psi: np.ndarray, c: np.ndarray, d_b: int):
    k = v_phi.conj().T @ np.kron(np.eye(d_b), c) @ v_psi
    return (k + k.conj().T) / 2.0


def channel_bures_bracket(
    phi: StinespringChannel,
    psi: StinespringChannel,
    constraint: Optional[EnergyConstraint] = None,
    budget: int = 500,
    tol: float = BRACKET_TOL,
    starts: int = 8,
    seed: int = 0,
) -> Bracket:
    """Certified bracket for the (energy-constrained) channel Bures distance.

    See-saw alternation on the minimax representation: the Uhlmann step
    turns a feasible input state into the optimal environment contraction
    (lower certificate 2 - 2 ||Tr_B(V_psi rho V_phi*)||_1), and the
    worst-state step turns a contraction into the constrained minimizer of
    the pinched Hermitian form (upper certificate from the Lagrange dual).
    Budget exhaustion returns converged=False, never an exception.
    """
    if phi.d_a != psi.d_a or phi.d_b != psi.d_b:
        raise QStateError("channels must share input and output dimensions")
    if (phi.d_b, phi.d_e) == (psi.d_b, psi.d_e):
        v_phi, v_psi = phi.isometry, psi.isometry
        d_b, d_e = phi.d_b, phi.d_e
    else:
        cph, cps = common_stinespring(phi, psi)
        v_phi, v_psi = cph.isometry, cps.isometry
        d_b, d_e = cph.d_b, cph.d_e
    d_a = phi.d_a
    h_mat = e_cap = cap = None
    if constraint is not None:
        if constraint.hamiltonian.dim != d_a:
            raise QStateError("constraint Hamiltonian does not match the input dimension")
        cap = EnergyCap(constraint.hamiltonian, constraint.bound)
        h_mat, e_cap = cap.operator, cap.bound

    rng = np.random.default_rng(seed)
    start_states = [np.eye(d_a, dtype=np.complex128) / d_a]
    if constraint is not None:
        try:
            start_states.append(gibbs_state(constraint.hamiltonian, e_cap).entries)
        except QStateError:
            pass  # cap above the spectrum ceiling: maximally mixed start suffices
    for _ in range(starts):
        gmat = rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a))
        w = gmat @ gmat.conj().T
        start_states.append(w / np.trace(w).real)
    if cap is not None:
        start_states = [mix_to_cap(s, cap) for s in start_states]

    tracker = _SaddleTracker(v_phi, v_psi, d_b, d_e, h_mat, e_cap)

    # contraction-first pass: the identity contraction reproduces the
    # operator-norm upper bound of the given common representation
    m0 = _hermitian_pinch(v_phi, v_psi, np.eye(d_e, dtype=np.complex128), d_b)
    rho0, dual0, mu0 = _constrained_minimum(m0, h_mat, e_cap)
    tracker.offer_upper(dual0, np.eye(d_e, dtype=np.complex128), mu0)
    start_states.insert(0, rho0)

    # the overlap norm is convex in the state, so descents from different
    # starts chase one global minimum; cap each pre-polish descent and stop
    # early once extra starts stop moving the bracket
    stale_starts = 0
    for rho in start_states:
        width_before = tracker.width
        tracker.descend(rho, min(budget, 60), tol)
        if tracker.width <= tol:
            break
        if tracker.width > width_before - 1e-9:
            stale_starts += 1
            if stale_starts >= 2:
                break
        else:
            stale_starts = 0

    # alternating polish: nonsmooth-tolerant state descent, then the
    # concave dual maximization, until the certificates meet
    for _ in range(4):
        if tracker.width <= tol:
            break
        width_before = tracker.width
        if tracker.low_state is not None:
            polished = _polish_state(v_phi, v_psi, d_b, d_e, tracker.low_state, cap)
            tracker.descend(polished, max(budget // 4, 50), tol)
        if tracker.width > tol:
            tracker.polish_dual(tol)
        if tracker.width > width_before - 1e-12:
            break

    return tracker.bracket(tol)


class _SaddleTracker:
    """Runs see-saw descents and keeps the best certified endpoints."""

    def __init__(self, v_phi, v_psi, d_b, d_e, h_mat, e_cap):
        self.v_phi, self.v_psi = v_phi, v_psi
        self.d_b, self.d_e = d_b, d_e
        self.h_mat, self.e_cap = h_mat, e_cap
        self.low_sq = 0.0  # certified lower bound on beta^2
        self.up_sq = 2.0
        self.low_state = None
        self.low_energy = None
        self.up_contraction = None
        self.up_mu = 0.0
        self.iterations = 0

    def offer_lower(self, tn: float, rho: np.ndarray):
        cand = 2.0 - 2.0 * tn
        if cand > self.low_sq or self.low_state is None:
            self.low_sq = max(cand, 0.0)
            self.low_state = rho
            self.low_energy = (
                float(np.real(np.trace(self.h_mat @ rho))) if self.h_mat is not None else None
            )

    def offer_upper(self, dual: float, contraction: np.ndarray, mu: float):
        cand = 2.0 - 2.0 * dual
        if cand < self.up_sq:
            self.up_sq = max(cand, 0.0)
            self.up_contraction = contraction
            self.up_mu = mu

    @property
    def width(self) -> float:
        return math.sqrt(max(self.up_sq, 0.0)) - math.sqrt(max(self.low_sq, 0.0))

    def descend(self, rho: np.ndarray, budget: int, tol: float):
        """Frank-Wolfe descent on the convex overlap norm, certifying as it goes."""
        x_cur = _env_overlap(self.v_phi, self.v_psi, rho, self.d_b, self.d_e)
        tn_cur = float(np.linalg.svd(x_cur, compute_uv=False).sum())
        self.offer_lower(tn_cur, rho)
        stalls = 0
        for _ in range(budget):
            self.iterations += 1
            c, tn_cur = _polar_contraction(x_cur)
            self.offer_lower(tn_cur, rho)
            m = _hermitian_pinch(self.v_phi, self.v_psi, c, self.d_b)
            rho_hat, dual, mu = _constrained_minimum(m, self.h_mat, self.e_cap)
            self.offer_upper(dual, c, mu)
            if self.width <= tol:
                return
            x_hat = _env_overlap(self.v_phi, self.v_psi, rho_hat, self.d_b, self.d_e)
            t_step, tn_new = _segment_min_trace_norm(x_cur, x_hat)
            if tn_new >= tn_cur - 1e-13:
                stalls += 1
                if stalls >= 3:
                    return
            else:
                stalls = 0
            if tn_new < tn_cur:
                rho = (1.0 - t_step) * rho + t_step * rho_hat
                x_cur = (1.0 - t_step) * x_cur + t_step * x_hat
                tn_cur = tn_new
                self.offer_lower(tn_cur, rho)

    def _offer_contraction(self, c: np.ndarray):
        m = _hermitian_pinch(self.v_phi, self.v_psi, c, self.d_b)
        _, dual, mu = _constrained_minimum(m, self.h_mat, self.e_cap)
        self.offer_upper(dual, c, mu)

    def polish_dual(self, tol: float):
        """Maximize the concave Lagrange dual over the contraction ball.

        At the optimum the overlap matrix is typically rank-deficient, so
        the polar factor of the best state fixes the contraction only on
        the overlap's support; the kernel block stays free and is searched
        directly (a small concave maximization).  Every evaluated
        contraction is certified exactly, so the search method cannot
        affect soundness.
        """
        if self.low_state is None:
            return
        from scipy.optimize import minimize

        x = _env_overlap(self.v_phi, self.v_psi, self.low_state, self.d_b, self.d_e)
        u, s, wh = np.linalg.svd(x)
        d_e = self.d_e
        rank = int(np.sum(s > max(1e-9 * s[0] if s[0] > 0 else 0.0, 1e-13)))
        kdim = d_e - rank

        def dual_of(c: np.ndarray) -> float:
            m = _hermitian_pinch(self.v_phi, self.v_psi, c, self.d_b)
            _, dual, _ = _constrained_minimum(m, self.h_mat, self.e_cap)
            return dual

        # during the search the multiplier is held fixed, so each objective
        # eval costs one eigendecomposition; the winner is re-certified with
        # the exact multiplier solve afterwards
        def fast_dual(c: np.ndarray, mu: float) -> float:
            m = _hermitian_pinch(self.v_phi, self.v_psi, c, self.d_b)
            if self.h_mat is None or mu == 0.0:
                return float(np.linalg.eigvalsh(m)[0])
            return float(np.linalg.eigvalsh(m + mu * self.h_mat)[0]) - mu * self.e_cap

        mu_fixed = self.up_mu

        if 0 < kdim:
            w_support = wh.conj().T[:, :rank] @ u.conj().T[:rank, :] if rank else np.zeros((d_e, d_e), dtype=np.complex128)
            w_k = wh.conj().T[:, rank:]
            u_k = u.conj().T[rank:, :]

            def c_of(params: np.ndarray) -> np.ndarray:
                z = (params[: kdim * kdim] + 1j * params[kdim * kdim :]).reshape(kdim, kdim)
                norm = np.linalg.norm(z, 2)
                if norm > 1.0:
                    z = z / norm
                return w_support + w_k @ z @ u_k

            best_p = None
            best_v = math.inf
            eye_seed = np.concatenate([np.eye(kdim).reshape(-1), np.zeros(kdim * kdim)])
            for p0 in (np.zeros(2 * kdim * kdim), eye_seed, -eye_seed):
                res = minimize(lambda q: -fast_dual(c_of(q), mu_fixed), p0, method="Nelder-Mead",
                               options={"maxfev": 1200, "xatol": 1e-12, "fatol": 1e-14})
                if res.fun < best_v:
                    best_v, best_p = res.fun, res.x
            self._offer_contraction(c_of(best_p))
            mu_fixed = self.up_mu
            if self.width <= tol:
                return

        # full-ball refinement from the polar factor
        c0, _ = _polar_contraction(x)

        def c_full(params: np.ndarray) -> np.ndarray:
            z = (params[: d_e * d_e] + 1j * params[d_e * d_e :]).reshape(d_e, d_e)
            norm = np.linalg.norm(z, 2)
            return z if norm <= 1.0 else z / norm

        p0 = np.concatenate([c0.reshape(-1).real, c0.reshape(-1).imag])
        if self.up_contraction is not None:
            p0 = np.concatenate(
                [self.up_contraction.reshape(-1).real, self.up_contraction.reshape(-1).imag]
            )
        for _ in range(2):
            if 2 * d_e * d_e <= 40:
                res = minimize(lambda q: -fast_dual(c_full(q), mu_fixed), p0, method="Nelder-Mead",
                               options={"maxfev": 2500, "xatol": 1e-12, "fatol": 1e-14})
            else:
                res = minimize(lambda q: -fast_dual(c_full(q), mu_fixed), p0, method="L-BFGS-B",
                               options={"maxiter": 300, "ftol": 1e-15, "gtol": 1e-12})
            self._offer_contraction(c_full(res.x))
            p0 = res.x
            if self.h_mat is None or abs(self.up_mu - mu_fixed) < 1e-12:
                break
            mu_fixed = self.up_mu

    def bracket(self, tol: float) -> Bracket:
        low = math.sqrt(max(self.low_sq, 0.0))
        up = math.sqrt(max(self.up_sq, 0.0))
        return Bracket(
            lower=min(low, up + 1e-12),
            upper=up,
            iterations=self.iterations,
            converged=(up - low) <= tol,
            lower_state=self.low_state,
            upper_contraction=self.up_contraction,
            upper_multiplier=self.up_mu,
            lower_state_energy=self.low_energy,
        )


def _polish_state(v_phi, v_psi, d_b, d_e, rho0, cap: Optional[EnergyCap]) -> np.ndarray:
    """Local minimization of the overlap trace norm (nonsmooth at optima).

    The state is parametrized as G G*/Tr(G G*) (all of state space), mixed
    toward the Hamiltonian ground state when an energy cap is active (a
    continuous retraction fixing every feasible state).  Only the returned
    state is used, and only through exact certificate evaluations, so the
    optimizer choice cannot affect soundness.
    """
    from scipy.optimize import minimize

    d = rho0.shape[0]
    w, u = np.linalg.eigh(rho0)
    g0 = u * np.sqrt(np.clip(w, 1e-12, None))

    def unpack(params: np.ndarray) -> np.ndarray:
        gmat = (params[: d * d] + 1j * params[d * d :]).reshape(d, d)
        rho = gmat @ gmat.conj().T
        tr = float(np.trace(rho).real)
        if tr <= 0:
            return np.eye(d, dtype=np.complex128) / d
        rho = rho / tr
        return rho if cap is None else mix_to_cap(rho, cap)

    def objective(params: np.ndarray) -> float:
        x = _env_overlap(v_phi, v_psi, unpack(params), d_b, d_e)
        return float(np.linalg.svd(x, compute_uv=False).sum())

    p0 = np.concatenate([g0.reshape(-1).real, g0.reshape(-1).imag])
    if 2 * d * d <= 40:
        res = minimize(objective, p0, method="Nelder-Mead",
                       options={"maxfev": 3000, "xatol": 1e-13, "fatol": 1e-15})
        res2 = minimize(objective, res.x, method="Nelder-Mead",
                        options={"maxfev": 1500, "xatol": 1e-13, "fatol": 1e-15})
        best = res2 if res2.fun <= res.fun else res
    else:
        best = minimize(objective, p0, method="L-BFGS-B",
                        options={"maxiter": 200, "ftol": 1e-14, "gtol": 1e-12})
    return unpack(best.x)


def _extend_isometry(v: np.ndarray, d_r: int) -> np.ndarray:
    return np.kron(v, np.eye(d_r))


def _apply_ext(w: np.ndarray, rho_ar: np.ndarray, d_b: int, d_e: int, d_r: int) -> np.ndarray:
    """(Phi (x) Id_R)(rho) from the extended isometry w = V (x) I_R."""
    y = w @ rho_ar @ w.conj().T
    y = y.reshape(d_b, d_e, d_r, d_b, d_e, d_r)
    out = np.einsum("berBeR->brBR", y)
    return out.reshape(d_b * d_r, d_b * d_r)


def _embed_out_operator(u_br: np.ndarray, d_b: int, d_e: int, d_r: int) -> np.ndarray:
    u4 = u_br.reshape(d_b, d_r, d_b, d_r)
    u6 = np.einsum("brBR,eE->berBER", u4, np.eye(d_e))
    n = d_b * d_e * d_r
    return u6.reshape(n, n)


def diamond_bracket(
    phi: StinespringChannel,
    psi: StinespringChannel,
    constraint: Optional[EnergyConstraint] = None,
    budget: int = 500,
    samples: int = 64,
    ascent_steps: int = 12,
    tol: float = BRACKET_TOL,
    seed: int = 0,
    bures_bracket: Optional[Bracket] = None,
) -> Bracket:
    """Bracket for the (energy-constrained) diamond-norm distance.

    Lower endpoint: best exact ||(Phi - Psi) (x) Id (rho)||_1 over sampled
    feasible inputs refined by sign-operator reweighting ascent.  Upper
    endpoint: twice the Bures upper bound, via the norm-equivalence
    sandwich, capped at the trivial bound 2.  No exact diamond-norm solver
    is involved.
    """
    if phi.d_a != psi.d_a or phi.d_b != psi.d_b:
        raise QStateError("channels must share input and output dimensions")
    bures = bures_bracket
    if bures is None:
        bures = channel_bures_bracket(phi, psi, constraint, budget=budget, tol=tol, seed=seed + 101)
    upper = min(2.0 * bures.upper, 2.0)
    d_a, d_b = phi.d_a, phi.d_b
    d_r = d_a
    w_phi = _extend_isometry(phi.isometry, d_r)
    w_psi = _extend_isometry(psi.isometry, d_r)
    h_ext = e_cap = cap = None
    if constraint is not None:
        cap = EnergyCap(constraint.hamiltonian, constraint.bound, SystemLayout([("A", d_a), ("R", d_r)]))
        h_ext, e_cap = cap.operator, cap.bound

    rng = np.random.default_rng(seed)
    best_low, low_state, low_energy = 0.0, None, None
    iterations = 0

    def delta_norm(rho: np.ndarray):
        d1 = _apply_ext(w_phi, rho, d_b, phi.d_e, d_r)
        d2 = _apply_ext(w_psi, rho, d_b, psi.d_e, d_r)
        return float(np.abs(np.linalg.eigvalsh(d1 - d2)).sum()), d1 - d2

    for _ in range(samples):
        vec = rng.standard_normal(d_a * d_r) + 1j * rng.standard_normal(d_a * d_r)
        vec /= np.linalg.norm(vec)
        if cap is not None:
            vec = mix_to_cap(vec, cap)
        rho = np.outer(vec, vec.conj())
        for _ in range(ascent_steps):
            iterations += 1
            tn, diff = delta_norm(rho)
            if tn > best_low:
                best_low, low_state = tn, rho
                low_energy = cap.energy(rho) if cap is not None else None
            dw, du = np.linalg.eigh(diff)
            sign_op = (du * np.sign(dw)) @ du.conj().T
            u_ext = _embed_out_operator(sign_op, d_b, phi.d_e, d_r)
            g1 = w_phi.conj().T @ u_ext @ w_phi
            u_ext2 = _embed_out_operator(sign_op, d_b, psi.d_e, d_r)
            g2 = w_psi.conj().T @ u_ext2 @ w_psi
            grad = (g1 + g1.conj().T) / 2.0 - (g2 + g2.conj().T) / 2.0
            rho_next, _, _ = _constrained_minimum(-grad, h_ext, e_cap)
            if np.linalg.norm(rho_next - rho) < 1e-13:
                break
            rho = rho_next
        tn, _ = delta_norm(rho)
        if tn > best_low:
            best_low, low_state = tn, rho
            low_energy = cap.energy(rho) if cap is not None else None

    best_low = min(best_low, upper + 1e-12)
    return Bracket(
        lower=best_low,
        upper=upper,
        iterations=iterations,
        converged=(upper - best_low) <= tol,
        lower_state=low_state,
        upper_contraction=bures.upper_contraction,
        upper_multiplier=bures.upper_multiplier,
        lower_state_energy=low_energy,
    )


def bures_sup_bruteforce(
    phi: StinespringChannel,
    psi: StinespringChannel,
    samples: int = 100_000,
    seed: int = 0,
    chunk: int = 20_000,
) -> float:
    """Grid maximization of the output Bures distance over random pure inputs.

    Independent of the see-saw: channels are applied to sampled pure states
    on A (x) R and the state Bures distance of the outputs is evaluated
    through their spectral square roots.  Half the budget is a flat Haar
    grid; the rest is a random refinement around the running argmax at
    shrinking radii, which keeps the grid's covering radius near the
    maximizer far below the global spacing.
    """
    d_a, d_b = phi.d_a, phi.d_b
    d_r = d_a
    w_phi = _extend_isometry(phi.isometry, d_r)
    w_psi = _extend_isometry(psi.isometry, d_r)
    rng = np.random.default_rng(seed)
    dim = d_a * d_r

    def evaluate(vecs: np.ndarray):
        vals = _batched_output_bures(w_phi, w_psi, vecs, d_b, phi.d_e, psi.d_e, d_r)
        top = int(np.argmax(vals))
        return float(vals[top]), vecs[top]

    best = -1.0
    best_vec = None
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


def _batched_output_bures(w_phi, w_psi, vecs, d_b, d_e1, d_e2, d_r) -> np.ndarray:
    m = vecs.shape[0]
    n_out = d_b * d_r

    def outputs(w, d_e):
        y = vecs @ w.T  # (m, d_b*d_e*d_r)
        y = y.reshape(m, d_b, d_e, d_r)
        out = np.einsum("nber,nBeR->nbrBR", y, y.conj())
        return out.reshape(m, n_out, n_out)

    rho = outputs(w_phi, d_e1)
    sig = outputs(w_psi, d_e2)
    w1, u1 = np.linalg.eigh(rho)
    sq1 = np.einsum("nik,nk,njk->nij", u1, np.sqrt(np.clip(w1, 0.0, None)), u1.conj())
    w2, u2 = np.linalg.eigh(sig)
    sq2 = np.einsum("nik,nk,njk->nij", u2, np.sqrt(np.clip(w2, 0.0, None)), u2.conj())
    sv = np.linalg.svd(sq1 @ sq2, compute_uv=False)
    root_f = np.clip(sv.sum(axis=1), 0.0, 1.0)
    return np.sqrt(np.clip(2.0 * (1.0 - root_f), 0.0, None))
