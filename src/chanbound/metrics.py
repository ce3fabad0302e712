"""Distances between states, ensembles, and channels.

Channel distances defined by optimization (Bures, diamond) are never
reported as point values: they come back as certified brackets.  The
channel Bures distance is beta = sqrt(2 - 2 F), where the root fidelity
F = min_rho ||Tr_B(V_psi rho V_phi*)||_1 (optionally over Tr[H rho] <= E)
is a small SDP.  `channel_bures_bracket` follows a log-barrier path on its
dual and evaluates two witnesses after every centering: the normalised
dual block, retracted onto the feasible inputs, gives the lower endpoint
through its exact overlap norm, and environment contractions give the
upper endpoint through the exact constrained minimum of their pinched
Hermitian form and its Lagrange multiplier.  Every endpoint is such an
evaluation, so solver accuracy moves the width, never the soundness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .channels import StinespringChannel, common_stinespring
from .energy import EnergyCap, EnergyDomainError, Hamiltonian, mix_to_cap
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
        if self.bound < self.hamiltonian.ground_energy:
            raise EnergyDomainError(f"energy bound {self.bound} is below E_0 = {self.hamiltonian.ground_energy}")


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


# Unreachable: kept only because bench/tracer.py looks this name up.
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
    seed: int = 0,
) -> Bracket:
    """Certified bracket for the (energy-constrained) channel Bures distance.

    beta^2 = 2 - 2 F, where the root fidelity F = min_rho ||X(rho)||_1 is
    the value of a small SDP.  A log-barrier path-following solver runs on
    its dual (see `_SaddleTracker`) for at most `budget` Newton steps;
    after each centering the path's input state and contraction are
    evaluated as certificates, and only those evaluations become endpoints.
    A cap at exactly E_0 admits only ground-eigenspace inputs, so that case
    is solved exactly on the ground eigenspace without a constraint.
    Budget exhaustion or a numerical failure of the solver returns the best
    certified endpoints with converged=False, never an exception.  `seed`
    is ignored: the bracket is deterministic.
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
    if constraint is None:
        return _SaddleTracker(v_phi, v_psi, d_b, d_e, None).bracket(budget, tol)
    ham = constraint.hamiltonian
    if ham.dim != phi.d_a:
        raise QStateError("constraint Hamiltonian does not match the input dimension")
    cap = EnergyCap(ham, constraint.bound)
    if cap.bound > ham.ground_energy:
        return _SaddleTracker(v_phi, v_psi, d_b, d_e, cap).bracket(budget, tol)
    basis = ham.eigenbasis if ham.eigenbasis is not None else np.eye(ham.dim, dtype=np.complex128)
    basis = basis[:, ham.eigenvalues <= cap.bound]
    br = _SaddleTracker(v_phi @ basis, v_psi @ basis, d_b, d_e, None).bracket(budget, tol)
    rho = basis @ br.lower_state @ basis.conj().T
    return replace(br, lower_state=rho, lower_state_energy=cap.energy(rho))


_CENTERING_STEPS = 80  # Newton steps per centering
_CENTERED = 1e-10  # centering ends once half the squared Newton decrement is below this
_BARRIER_GAP = 1e-10  # the path ends once the barrier's duality gap nu / tau is below this
_TAU_GROWTH = 20.0


def _lmi_barrier(f: np.ndarray, basis: np.ndarray):
    """Gradient and Hessian of -log det f along the Hermitian `basis` stack.

    With f^-1 = s* s and hat_k = s basis_k s*, they are -Tr hat_k and
    Tr[hat_k hat_l].  Raises LinAlgError unless f is positive definite.
    """
    s = np.linalg.inv(np.linalg.cholesky(f))
    hat = s @ basis @ s.conj().T
    flat = hat.reshape(len(basis), -1)
    return -np.einsum("kii->k", hat).real, (flat.conj() @ flat.T).real


class _SaddleTracker:
    """Barrier path for the dual SDP of the root fidelity; keeps the best certified endpoints.

    The dual is  max t - mu E  over the contraction C (2 d_e^2 real
    coordinates), t and mu >= 0, subject to M(C) + mu H - t I >= 0 (the
    d_a block F1) and [[I, C], [C*, I]] >= 0 (the 2 d_e block F2), where
    M(C) = `_hermitian_pinch` is real-linear in C; without a cap mu and its
    terms are dropped.  The solver shifts H and E by E_0 (t absorbs mu E_0),
    so t stays of order one.  Each centering minimizes
    tau (mu E - t) - log det F1 - log det F2 - log mu by damped Newton
    steps; feasibility of a step is tested by Cholesky factorization,
    halving the step until it succeeds.

    After each centering two witnesses are certified.  The dual block
    F1^-1 / tau, retracted onto the feasible set by `_polish_state`, is an
    input state whose overlap norm gives the lower endpoint; the strict
    contraction C, and the Uhlmann contraction (polar factor) of that
    state's overlap, are re-evaluated by `polish_dual` through the exact
    constrained minimum of M(C) for the upper endpoint.  The solver's
    iterates enter the bracket only through these evaluations, so an
    inaccurate or failed solve can only leave the bracket wider.
    """

    def __init__(self, v_phi, v_psi, d_b, d_e, cap: Optional[EnergyCap]):
        self.v_phi, self.v_psi = v_phi, v_psi
        self.d_b, self.d_e = d_b, d_e
        self.cap = cap
        self.h_mat = cap.operator if cap is not None else None
        self.e_cap = cap.bound if cap is not None else None
        self.low_sq = 0.0  # certified lower bound on beta^2
        self.up_sq = 2.0
        self.low_state = None
        self.low_energy = None
        self.up_contraction = None
        self.up_mu = 0.0
        self.iterations = 0

        # the blocks as linear maps of y = (Re C, Im C, t[, mu]): F1 = sum_k y_k
        # f1[k], F2 = I + sum_k y_k f2[k]; M(E_ef) = Herm(k_ef) with
        # k_ef[a, c] = sum_b conj(V_phi[b, e, a]) V_psi[b, f, c]
        d_a = v_phi.shape[1]
        n_c = d_e * d_e
        k = np.einsum("bea,bfc->efac", v_phi.reshape(d_b, d_e, d_a).conj(),
                      v_psi.reshape(d_b, d_e, d_a)).reshape(n_c, d_a, d_a)
        k = np.concatenate([k, 1j * k])
        blocks = [(k + k.conj().transpose(0, 2, 1)) / 2.0, -np.eye(d_a)[None]]
        unit = np.eye(n_c).reshape(n_c, d_e, d_e)
        zero = np.zeros_like(unit)
        f2 = [np.block([[zero, unit], [unit.transpose(0, 2, 1), zero]]),
              np.block([[zero, 1j * unit], [-1j * unit.transpose(0, 2, 1), zero]])]
        y0 = [np.zeros(2 * n_c), [-1.0]]
        self.objective = np.zeros(2 * n_c + 1)  # minimized: mu E - t
        self.objective[-1] = -1.0
        self.nu = d_a + 2 * d_e  # barrier parameter
        if cap is not None:
            # H - E_0 and E - E_0 keep t at the scale of M(C) however large mu grows
            e_0 = cap.hamiltonian.ground_energy
            blocks.append(self.h_mat[None] - e_0 * np.eye(d_a))
            y0[1] = [-1.0, 1.0]
            self.objective = np.append(self.objective, self.e_cap - e_0)
            self.nu += 1
        self.f1 = np.concatenate(blocks).astype(np.complex128)
        self.f2 = np.concatenate(f2 + [np.zeros((len(self.f1) - 2 * n_c, 2 * d_e, 2 * d_e))])
        self.y0 = np.concatenate(y0)

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
        if cand < self.up_sq or self.up_contraction is None:
            self.up_sq = max(cand, 0.0)
            self.up_contraction = contraction
            self.up_mu = mu

    @property
    def width(self) -> float:
        return math.sqrt(max(self.up_sq, 0.0)) - math.sqrt(max(self.low_sq, 0.0))

    def _blocks(self, y: np.ndarray):
        f1 = np.tensordot(y, self.f1, 1)
        f2 = np.eye(2 * self.d_e) + np.tensordot(y, self.f2, 1)
        return f1, f2

    def _feasible(self, y: np.ndarray) -> bool:
        if self.cap is not None and not y[-1] > 0.0:
            return False
        try:
            for f in self._blocks(y):
                np.linalg.cholesky(f)
        except np.linalg.LinAlgError:
            return False
        return True

    def _newton_step(self, y: np.ndarray, tau: float):
        """Newton direction of the centering objective at tau, and its squared decrement."""
        f1, f2 = self._blocks(y)
        g1, h1 = _lmi_barrier(f1, self.f1)
        g2, h2 = _lmi_barrier(f2, self.f2)
        grad = tau * self.objective + g1 + g2
        hess = h1 + h2
        if self.cap is not None:
            grad[-1] -= 1.0 / y[-1]
            hess[-1, -1] += 1.0 / y[-1] ** 2
        scale = 1.0 / np.sqrt(np.diagonal(hess))
        step = -scale * np.linalg.solve(hess * np.outer(scale, scale), scale * grad)
        return step, float(-grad @ step)

    def descend(self, budget: int, tol: float):
        """Follow the barrier path from C = 0, certifying the start and every centering.

        tau grows 20-fold per centering; each centering takes at most 80
        damped Newton steps (step 1 / (1 + lambda) while the decrement lambda
        exceeds 1/4).  The path ends at width <= tol, at barrier gap
        nu / tau <= 1e-10, after `budget` Newton steps in all, or at the
        first numerical failure, keeping the certificates found so far.
        """
        y = self.y0
        self._certify(y)
        tau = 1.0
        try:
            while True:
                for _ in range(_CENTERING_STEPS):
                    if self.iterations >= budget:
                        break
                    step, lam2 = self._newton_step(y, tau)
                    if not np.isfinite(lam2) or lam2 / 2.0 <= _CENTERED:
                        break
                    self.iterations += 1
                    alpha = 1.0 if lam2 <= 1.0 / 16.0 else 1.0 / (1.0 + math.sqrt(lam2))
                    while not self._feasible(y + alpha * step):
                        alpha /= 2.0
                        if alpha < 1e-12:
                            return
                    y = y + alpha * step
                self._certify(y)
                if self.width <= tol or self.nu / tau <= _BARRIER_GAP or self.iterations >= budget:
                    return
                tau *= _TAU_GROWTH
        except np.linalg.LinAlgError:
            return

    def _certify(self, y: np.ndarray):
        f1, _ = self._blocks(y)
        s = np.linalg.inv(np.linalg.cholesky(f1))
        rho = _polish_state(s.conj().T @ s, self.cap)
        x = _env_overlap(self.v_phi, self.v_psi, rho, self.d_b, self.d_e)
        uhlmann, tn = _polar_contraction(x)
        self.offer_lower(tn, rho)
        n_c = self.d_e * self.d_e
        self.polish_dual((y[:n_c] + 1j * y[n_c:2 * n_c]).reshape(self.d_e, self.d_e))
        self.polish_dual(uhlmann)

    def polish_dual(self, c: np.ndarray):
        """Certify a contraction: the exact constrained minimum of M(c), with its multiplier."""
        m = _hermitian_pinch(self.v_phi, self.v_psi, c, self.d_b)
        _, dual, mu = _constrained_minimum(m, self.h_mat, self.e_cap)
        self.offer_upper(dual, c, mu)

    def bracket(self, budget: int, tol: float) -> Bracket:
        self.descend(budget, tol)
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


def _polish_state(z: np.ndarray, cap: Optional[EnergyCap]) -> np.ndarray:
    """Retract a positive barrier dual block to a feasible input.

    Hermitian part, unit trace, then `mix_to_cap` under an energy cap; a
    feasible state is left unchanged up to rounding.
    """
    rho = (z + z.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    return rho if cap is None else mix_to_cap(rho, cap)


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
        bures = channel_bures_bracket(phi, psi, constraint, budget=budget, tol=tol)
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

    Each candidate is the Bures distance of the two outputs at a sampled
    pure input on A (x) R, a value actually reached, computed from the
    isometries alone; no see-saw state or certificate is read.  Half the
    budget (`samples` >= 2) is a flat Haar grid in batches of `chunk` >= 1;
    the rest refines around the running argmax at shrinking radii, which
    keeps the covering radius near the maximizer far below the global spacing.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
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
    """Output Bures distances for a batch of pure inputs, without output states.

    The dilated output (V (x) I_R) v, read as a d_e x (d_b d_r) matrix Y,
    factors the output exactly as Y^T conj(Y).  By Uhlmann's theorem the root
    fidelity ||sqrt(rho) sqrt(sigma)||_1 is then the trace norm of the small
    overlap Y_phi Y_psi*, so no noisy rank-deficient spectrum is square-rooted.
    """
    m = vecs.shape[0]
    y_phi = (vecs @ w_phi.T).reshape(m, d_b, d_e1, d_r)
    y_psi = (vecs @ w_psi.T).reshape(m, d_b, d_e2, d_r)
    overlap = np.einsum("nber,nbfr->nef", y_phi, y_psi.conj())
    root_f = np.clip(np.linalg.svd(overlap, compute_uv=False).sum(axis=1), 0.0, 1.0)
    return np.sqrt(np.clip(2.0 * (1.0 - root_f), 0.0, None))
