"""Distances between states, ensembles, and channels.

Channel distances defined by optimization (Bures, diamond) are never
reported as point values: they come back as certified brackets from one
log-barrier path solver, `_SaddleTracker`.  The channel Bures distance is
beta = sqrt(2 - 2 F), where the root fidelity
F = min_rho ||Tr_B(V_psi rho V_phi*)||_1 (optionally over Tr[H rho] <= E)
is a small SDP; the diamond distance is Watrous's SDP on the Choi matrix
of Phi - Psi.  After every centering the path's input state and dual point
are evaluated exactly (an overlap or output trace norm, and a dual value
with its multiplier), and only these evaluations become endpoints, so
solver accuracy moves the width, never the soundness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .channels import StinespringChannel, common_stinespring, complex_gaussian
from .energy import EnergyCap, mix_to_cap
from .entropic import Ensemble
from .qstate import DensityMatrix, QStateError, trace_norm

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


#: Reduced-cost threshold below which a cell enters the transportation basis.
_TRANSPORT_ENTER_TOL = 1e-14
#: Slack of the D_K certificate: reduced costs, marginals and duality gap.
_DK_CERT_TOL = 1e-12


def _transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transportation simplex: min <cost, x> over x >= 0 with row sums a, column sums b.

    Starts from the northwest-corner plan, whose m + n - 1 cells (zeros
    included) form a spanning tree of rows and columns.  Each step prices
    that tree with MODI potentials (u_0 = 0, u_i + v_j = c_ij on tree
    cells), enters the first cell in row-major order with reduced cost
    c_ij - u_i - v_j below -_TRANSPORT_ENTER_TOL, and leaves by the first
    cell in the same order among the cycle's minimal decreasing cells
    (Bland's rule, so degenerate pivots cannot cycle).  Weights must be
    nonnegative; when sum(a) != sum(b) the northwest corner leaves the
    difference unshipped on one side, and pivots keep every marginal.
    Returns the plan x and the potentials (u, v) of its final tree.
    """
    m, n = cost.shape
    x = np.zeros((m, n))
    rest_a, rest_b = [float(w) for w in a], [float(w) for w in b]
    tree = []
    i = j = 0
    while True:
        ship = min(rest_a[i], rest_b[j])
        x[i, j] = ship
        rest_a[i] -= ship
        rest_b[j] -= ship
        tree.append((i, j))
        if i == m - 1 and j == n - 1:
            break
        if i < m - 1 and (j == n - 1 or rest_a[i] <= rest_b[j]):
            i += 1
        else:
            j += 1
    max_pivots = 100 * m * n + 100
    for _ in range(max_pivots):
        # root the tree at row 0; node k < m is row k, node m + k is column k
        pot = [0.0] + [None] * (m + n - 1)
        up = [None] * (m + n)  # (parent node, tree cell) of every non-root node
        depth = [0] * (m + n)
        adjacent = [[] for _ in range(m + n)]
        for cell in tree:
            adjacent[cell[0]].append((m + cell[1], cell))
            adjacent[m + cell[1]].append((cell[0], cell))
        order = [0]
        for node in order:
            for nxt, cell in adjacent[node]:
                if pot[nxt] is None:
                    pot[nxt] = cost[cell] - pot[node]
                    up[nxt] = (node, cell)
                    depth[nxt] = depth[node] + 1
                    order.append(nxt)
        u, v = np.array(pot[:m]), np.array(pot[m:])
        entering = np.flatnonzero(cost - u[:, None] - v[None, :] < -_TRANSPORT_ENTER_TOL)
        if entering.size == 0:
            return x, u, v
        ei, ej = divmod(int(entering[0]), n)
        # the tree path from row ei to column ej closes the pivot cycle; along
        # it the cells alternate, starting with one that gives up flow
        from_row, from_col = [], []
        r, c = ei, m + ej
        while r != c:
            if depth[r] >= depth[c]:
                from_row.append(up[r][1])
                r = up[r][0]
            else:
                from_col.append(up[c][1])
                c = up[c][0]
        path = from_row + from_col[::-1]
        give = path[0::2]
        theta = min(x[cell] for cell in give)
        leaving = min(cell for cell in give if x[cell] == theta)
        for cell in give:
            x[cell] -= theta
        for cell in path[1::2]:
            x[cell] += theta
        x[ei, ej] = theta
        x[leaving] = 0.0
        tree[tree.index(leaving)] = (ei, ej)
    raise RuntimeError(f"transportation simplex did not finish in {max_pivots} pivots")


def _dk_costs(mu: Ensemble, nu: Ensemble) -> np.ndarray:
    """Trace norms ||rho_i - sigma_j||_1, one stacked eigvalsh per row i.

    Density matrices are exactly Hermitian, so each entry equals
    `trace_norm(rho_i - sigma_j)`, which takes the same eigvalsh path.
    """
    sigmas = np.stack([sigma.entries for sigma in nu.states])
    return np.stack([np.abs(np.linalg.eigvalsh(rho.entries - sigmas)).sum(axis=1) for rho in mu.states])


def ensemble_dk(mu: Ensemble, nu: Ensemble) -> float:
    """Kantorovich distance: optimal transport with trace-distance ground cost.

    Solved exactly by the transportation simplex `_transport` and certified
    by its potentials before it is returned: the plan is nonnegative, meets
    both marginals to within _DK_CERT_TOL + |sum p - sum q|, every reduced
    cost is >= -_DK_CERT_TOL, and the cost exceeds the dual value
    sum p_i u_i + sum q_j v_j by at most _DK_CERT_TOL (plus what an
    imbalance |sum p - sum q| can move the dual by).  A failed check raises
    RuntimeError.  Weights in [-1e-12, 0), which `Ensemble` admits, count
    as 0.
    """
    if mu.layout != nu.layout:
        raise QStateError("ensembles must share a layout")
    cost = _dk_costs(mu, nu)
    a = np.maximum(mu.probabilities, 0.0)
    b = np.maximum(nu.probabilities, 0.0)
    x, u, v = _transport(cost, a, b)
    primal = float((cost * x).sum())
    dual = float(a @ u + b @ v)
    imbalance = abs(float(a.sum() - b.sum()))
    marginal_miss = max(np.abs(x.sum(axis=1) - a).max(), np.abs(x.sum(axis=0) - b).max())
    certified = (
        x.min() >= 0.0
        and marginal_miss <= _DK_CERT_TOL + imbalance
        and (cost - u[:, None] - v[None, :]).min() >= -_DK_CERT_TOL
        and primal - dual <= _DK_CERT_TOL + imbalance * max(np.abs(u).max(), np.abs(v).max())
    )
    if not certified:  # cannot happen with valid marginals
        raise RuntimeError(
            f"transportation plan failed its certificate: cost {primal!r}, dual {dual!r}, "
            f"marginal miss {marginal_miss:.3e}"
        )
    return 0.5 * primal


@dataclass(frozen=True)
class Bracket:
    """Certified interval for an optimization-defined quantity.

    `lower` is achieved by `lower_state` (a feasible input), `upper` is the
    dual value of `upper_contraction` (an environment contraction for Bures,
    the dual matrix Z for the diamond norm) with multiplier `upper_multiplier`.
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

    Returns (pure density matrix, its energy, lambda_min(m), curvature).
    The curvature is the second-order perturbation estimate
    2 sum_k |<u_k, H vec>|^2 / (lambda_min - w_k) over the eigenvectors
    outside the bottom eigenspace: the derivative of the energy of the
    ground state of m + mu H in mu, taken from the same `eigh`.  Without a
    Hamiltonian the bottom eigenvector is returned with energy and
    curvature 0.
    """
    w, u = np.linalg.eigh(m)
    lam0 = float(w[0])
    if h_mat is None:
        vec = u[:, 0]
        return np.outer(vec, vec.conj()), 0.0, lam0, 0.0
    sel = w <= lam0 + 1e-11 + abs(lam0) * 1e-12
    basis = u[:, sel]
    hr = basis.conj().T @ h_mat @ basis
    if len(hr) == 1:  # the values LAPACK's eigh returns for a 1 x 1 Hermitian matrix
        hw, vec = hr[0].real, basis[:, 0]
    else:
        hw, hu = np.linalg.eigh((hr + hr.conj().T) / 2.0)
        vec = basis @ hu[:, 0]
    coupling = u[:, ~sel].conj().T @ (h_mat @ vec)
    curvature = 2.0 * float(np.sum(np.abs(coupling) ** 2 / (lam0 - w[~sel])))
    return np.outer(vec, vec.conj()), float(hw[0].real), lam0, curvature


_MU_DOUBLINGS = 120  # multiplier evaluations before the cap is declared infeasible
_MU_STEPS = 200  # multiplier evaluations in all
_MU_WIDTH = 1e-13  # relative bracket width that ends the multiplier solve
_MU_GAP = 1e-15  # relative primal-dual gap that ends it


def _constrained_minimum(m: np.ndarray, h_mat: Optional[np.ndarray], e_cap: Optional[float]):
    """Minimize Tr[m rho] over states with Tr[h rho] <= e_cap.

    Returns (feasible minimizer, certified dual lower bound on the minimum,
    multiplier).  The dual value lambda_min(m + mu h) - mu E is sound for
    any mu >= 0, so the returned dual is the maximum over every evaluated
    mu and solver accuracy only moves its tightness.  The multiplier takes
    Newton steps on the energy e(mu) of the least-energy ground state of
    m + mu h, with the curvature of `_ground_min_energy_state`, from mu = 1.
    The bracket [mu_lo, mu_hi] around e(mu) = E is the safeguard: until
    some mu has e(mu) <= E, a step that does not raise mu is replaced by
    doubling mu; after that, a step that leaves the bracket, or that is
    longer than half the step before last, is replaced by its midpoint.
    The solve stops at relative bracket width 1e-13, or once the primal
    value of the minimizer is within 1e-15 max(1, |primal|) of the dual.
    The minimizer interpolates the ground states at mu_lo and mu_hi to
    energy E.  Every step is a function of (m, h, E) alone, so two calls on
    the same input return bit-identical results.
    """
    rho0, e0, lam0, _ = _ground_min_energy_state(m, h_mat)
    if h_mat is None or e_cap is None or e0 <= e_cap + 1e-12:
        return rho0, lam0, 0.0
    best, best_mu = lam0, 0.0  # the first maximal dual and its multiplier
    lo, hi = (0.0, rho0, e0), None
    steps = [math.inf, math.inf]  # the last two moves of mu
    mu = 1.0
    for step in range(_MU_STEPS):
        rho_m, e_m, lam_m, curv = _ground_min_energy_state(m + mu * h_mat, h_mat)
        dual = lam_m - mu * e_cap
        if dual > best:
            best, best_mu = dual, mu
        newton = mu + (e_cap - e_m) / curv if curv < 0.0 else math.nan
        if e_m <= e_cap:
            hi = (mu, rho_m, e_m)
        else:
            lo = (mu, rho_m, e_m)
            if hi is None:
                if step >= _MU_DOUBLINGS:
                    raise QStateError("no multiplier makes the energy cap feasible")
                mu = newton if mu < newton < math.inf else 2.0 * mu
                continue
        (mu_lo, rho_a, e_a), (mu_hi, rho_b, e_b) = lo, hi
        if e_a > e_cap >= e_b and e_a - e_b > 1e-15:
            t = (e_cap - e_b) / (e_a - e_b)
            rho = t * rho_a + (1.0 - t) * rho_b
        else:
            rho = rho_b
        primal = float(np.einsum("ij,ji->", m, rho).real)
        width = mu_hi - mu_lo
        if width <= _MU_WIDTH * max(1.0, mu_hi) or primal - best <= _MU_GAP * max(1.0, abs(primal)):
            break
        if not (mu_lo < newton < mu_hi and abs(newton - mu) <= 0.5 * steps[0]):
            newton = 0.5 * (mu_lo + mu_hi)
        steps = [steps[1], abs(newton - mu)]
        mu = newton
    return rho, best, best_mu


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
    """Retired golden-section search for min ||(1-t) x0 + t x1||_1 over t in [0, 1].

    No code path calls it; the name stays because the benchmark tracer
    wraps it by name.
    """
    raise NotImplementedError("_segment_min_trace_norm is retired; no bracket uses it")


def _eye_kron(d: int, c: np.ndarray) -> np.ndarray:
    """np.kron(np.eye(d), c): the one multiply kron makes, without its shape handling."""
    rows, cols = c.shape
    return np.multiply(np.eye(d)[:, None, :, None], c[None, :, None, :]).reshape(d * rows, d * cols)


def _hermitian_pinch(v_phi: np.ndarray, v_psi: np.ndarray, c: np.ndarray, d_b: int):
    k = v_phi.conj().T @ _eye_kron(d_b, c) @ v_psi
    return (k + k.conj().T) / 2.0


def channel_bures_bracket(
    phi: StinespringChannel,
    psi: StinespringChannel,
    cap: Optional[EnergyCap] = None,
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
    `cap`, an `EnergyCap` on one factor of dimension d_a, bounds the
    input's mean energy.  A cap at exactly E_0 admits only ground-eigenspace
    inputs, so that case is solved exactly on the ground eigenspace without
    a constraint.
    Budget exhaustion or a numerical failure of the solver returns the best
    certified endpoints with converged=False, never an exception.  `seed`
    is ignored: the bracket is deterministic.
    """
    return _solve_bracket(_SaddleTracker, phi, psi, cap, budget, tol)


def _solve_bracket(tracker, phi, psi, cap: Optional[EnergyCap], budget: int, tol: float) -> Bracket:
    """Bracket from `tracker`, a `_SaddleTracker` class, on a common dilation of phi and psi."""
    if phi.d_a != psi.d_a or phi.d_b != psi.d_b:
        raise QStateError("channels must share input and output dimensions")
    if (phi.d_b, phi.d_e) == (psi.d_b, psi.d_e):
        v_phi, v_psi = phi.isometry, psi.isometry
        d_b, d_e = phi.d_b, phi.d_e
    else:
        cph, cps = common_stinespring(phi, psi)
        v_phi, v_psi = cph.isometry, cps.isometry
        d_b, d_e = cph.d_b, cph.d_e
    if cap is None:
        return tracker(v_phi, v_psi, d_b, d_e, None).bracket(budget, tol)
    if cap.layout.dims != (phi.d_a,):
        raise QStateError(f"cap layout {cap.layout.factors} is not one factor of the input dimension {phi.d_a}")
    ham = cap.hamiltonian
    if cap.bound > ham.ground_energy:
        return tracker(v_phi, v_psi, d_b, d_e, cap).bracket(budget, tol)
    basis = ham.eigenbasis if ham.eigenbasis is not None else np.eye(ham.dim, dtype=np.complex128)
    basis = basis[:, ham.eigenvalues <= cap.bound]
    br = tracker(v_phi @ basis, v_psi @ basis, d_b, d_e, None).bracket(budget, tol)
    rho = basis @ br.lower_state @ basis.conj().T
    return replace(br, lower_state=rho, lower_state_energy=cap.energy(rho))


_CENTERING_STEPS = 80  # Newton steps per centering
_CENTERED = 1e-10  # centering ends once half the squared Newton decrement is below this
_BARRIER_GAP = 1e-10  # the path ends once the barrier's duality gap nu / tau is below this
_TAU_GROWTH = 20.0


def _lmi_barrier(l: np.ndarray, basis: np.ndarray):
    """Gradient and Hessian of -log det f along the Hermitian `basis` stack, from f = l l*.

    l is the Cholesky factor the step test kept.  With s = l^-1, so that
    f^-1 = s* s, and hat_k = s basis_k s*, they are -Tr hat_k and
    Tr[hat_k hat_l].
    """
    s = np.linalg.inv(l)
    hat = s @ basis @ s.conj().T
    flat = hat.reshape(len(basis), -1)
    return -np.einsum("kii->k", hat).real, (flat.conj() @ flat.T).real


class _SaddleTracker:
    """Barrier path for a small SDP in LMI form; keeps the best certified endpoints.

    The SDP minimizes objective . y subject to C_i + sum_k y_k A_i[k] > 0
    for each block (C_i, A_i) of `_lmi` and, under a cap, mu = y[-1] > 0.
    mu enters the first block as mu (H - E_0) and the objective as
    mu (E - E_0), so t stays of order one however large mu grows.  Each
    centering minimizes tau objective . y minus the log det of every block
    (and log mu) by damped Newton steps, halving a step until Cholesky
    accepts it.  After each centering `_certify` turns the iterate into
    witnesses, and only their exact evaluations become endpoints, so an
    inaccurate or failed solve can only leave the bracket wider.

    This class solves the dual of the root fidelity:  max t - mu E  over the
    contraction C, t and mu >= 0, subject to M(C) + mu H - t I >= 0 (the d_a
    block F1) and [[I, C], [C*, I]] >= 0, where M(C) = `_hermitian_pinch` is
    real-linear in C.  The dual block F1^-1 / tau, retracted by
    `_polish_state`, is an input state whose overlap norm gives the lower
    endpoint; `polish_dual` certifies the path's C and the Uhlmann
    contraction of that state through the exact constrained minimum of M(C).
    """

    def __init__(self, v_phi, v_psi, d_b, d_e, cap: Optional[EnergyCap]):
        self.v_phi, self.v_psi = v_phi, v_psi
        self.d_b, self.d_e = d_b, d_e
        self.cap = cap
        self.h_mat = cap.operator if cap is not None else None
        self.e_cap = cap.bound if cap is not None else None
        self.lower, self.upper = -math.inf, math.inf
        self.low_state = None
        self.low_energy = None
        self.up_contraction = None
        self.up_mu = 0.0
        self.iterations = 0
        blocks, objective, y0 = self._lmi()
        if cap is not None:
            # mu enters the first block, whose barrier dual is the input state, as mu (H - E_0)
            e_0 = cap.hamiltonian.ground_energy
            terms = [self.h_mat - e_0 * np.eye(len(self.h_mat))] + [np.zeros_like(c) for c, _ in blocks[1:]]
            blocks = [(c, np.concatenate([a, term[None]])) for (c, a), term in zip(blocks, terms)]
            objective, y0 = np.append(objective, self.e_cap - e_0), np.append(y0, 1.0)
        self.blocks, self.objective, self.y0 = blocks, objective, y0
        # each stack as one (k, D^2) matrix: `_blocks` makes tensordot's own dot call
        self.flat = [(c, a.reshape(len(a), -1)) for c, a in blocks]
        self.nu = sum(len(c) for c, _ in blocks) + (cap is not None)  # barrier parameter

    def _lmi(self):
        """Blocks, objective and start point over y = (Re C, Im C, t), with F1 = I at the start.

        M(E_ef) = Herm(k_ef) with k_ef[a, c] = sum_b conj(V_phi[b, e, a]) V_psi[b, f, c].
        """
        d_a, d_b, d_e = self.v_phi.shape[1], self.d_b, self.d_e
        n_c = d_e * d_e
        k = np.einsum("bea,bfc->efac", self.v_phi.reshape(d_b, d_e, d_a).conj(),
                      self.v_psi.reshape(d_b, d_e, d_a)).reshape(n_c, d_a, d_a)
        k = np.concatenate([k, 1j * k])
        f1 = np.concatenate([(k + k.conj().transpose(0, 2, 1)) / 2.0, -np.eye(d_a)[None]])
        unit = np.eye(n_c).reshape(n_c, d_e, d_e)
        zero = np.zeros_like(unit)
        f2 = np.concatenate([np.block([[zero, unit], [unit.transpose(0, 2, 1), zero]]),
                             np.block([[zero, 1j * unit], [-1j * unit.transpose(0, 2, 1), zero]]),
                             np.zeros((1, 2 * d_e, 2 * d_e))])
        objective = np.append(np.zeros(2 * n_c), -1.0)  # minimized: mu E - t
        y0 = np.append(np.zeros(2 * n_c), -1.0)
        return [(np.zeros((d_a, d_a)), f1), (np.eye(2 * d_e), f2)], objective, y0

    def offer_lower(self, value: float, rho: np.ndarray):
        if value > self.lower:
            self.lower = value
            self.low_state = rho
            self.low_energy = self.cap.energy(rho) if self.cap is not None else None

    def offer_upper(self, value: float, witness: np.ndarray, mu: float):
        if value < self.upper:
            self.upper = value
            self.up_contraction = witness
            self.up_mu = mu

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def _blocks(self, y: np.ndarray):
        return [c + np.dot(y[None], a).reshape(c.shape) for c, a in self.flat]

    def _factors(self, y: np.ndarray):
        """The step test: Cholesky factors of every block at y, or None unless y is strictly feasible."""
        if self.cap is not None and not y[-1] > 0.0:
            return None
        try:
            return [np.linalg.cholesky(f) for f in self._blocks(y)]
        except np.linalg.LinAlgError:
            return None

    def _newton_step(self, y: np.ndarray, barriers: list, tau: float):
        """Newton direction of the centering objective at tau, and its squared decrement.

        `barriers` holds `_lmi_barrier` of every block at y; they do not depend on tau.
        """
        grad = sum((g for g, _ in barriers), tau * self.objective)
        hess = sum(h for _, h in barriers)
        if self.cap is not None:
            grad[-1] -= 1.0 / y[-1]
            hess[-1, -1] += 1.0 / y[-1] ** 2
        scale = 1.0 / np.sqrt(np.diagonal(hess))
        step = -scale * np.linalg.solve(hess * np.outer(scale, scale), scale * grad)
        return step, float(-grad @ step)

    def descend(self, budget: int, tol: float):
        """Follow the barrier path from the start point, certifying it and every centering.

        tau grows 20-fold per centering; each centering takes at most 80
        damped Newton steps (step 1 / (1 + lambda) while the decrement lambda
        exceeds 1/4).  The path ends at width <= tol, at barrier gap
        nu / tau <= 1e-10, after `budget` Newton steps in all, or at the
        first numerical failure, keeping the certificates found so far.
        Each iterate is factored once: the step test's Cholesky factors of
        the accepted point serve its certification and its barrier terms,
        which its first Newton step computes and a Newton step at the next
        tau reuses.
        """
        y = self.y0
        factors = [np.linalg.cholesky(f) for f in self._blocks(y)]  # the start point is strictly feasible
        barriers = None
        self._certify(y, factors)
        tau = 1.0
        try:
            while True:
                for _ in range(_CENTERING_STEPS):
                    if self.iterations >= budget:
                        break
                    if barriers is None:
                        barriers = [_lmi_barrier(l, a) for l, (_, a) in zip(factors, self.blocks)]
                    step, lam2 = self._newton_step(y, barriers, tau)
                    if not np.isfinite(lam2) or lam2 / 2.0 <= _CENTERED:
                        break
                    self.iterations += 1
                    alpha = 1.0 if lam2 <= 1.0 / 16.0 else 1.0 / (1.0 + math.sqrt(lam2))
                    while (trial := self._factors(y + alpha * step)) is None:
                        alpha /= 2.0
                        if alpha < 1e-12:
                            return
                    y, factors, barriers = y + alpha * step, trial, None
                self._certify(y, factors)
                if self.width <= tol or self.nu / tau <= _BARRIER_GAP or self.iterations >= budget:
                    return
                tau *= _TAU_GROWTH
        except np.linalg.LinAlgError:
            return

    def _certify(self, y: np.ndarray, factors: list):
        s = np.linalg.inv(factors[0])
        rho = _polish_state(s.conj().T @ s, self.cap)
        x = _env_overlap(self.v_phi, self.v_psi, rho, self.d_b, self.d_e)
        uhlmann, tn = _polar_contraction(x)
        self.offer_lower(math.sqrt(max(2.0 - 2.0 * tn, 0.0)), rho)
        n_c = self.d_e * self.d_e
        self.polish_dual((y[:n_c] + 1j * y[n_c:2 * n_c]).reshape(self.d_e, self.d_e))
        self.polish_dual(uhlmann)

    def polish_dual(self, c: np.ndarray):
        """Certify a contraction: the exact constrained minimum of M(c), with its multiplier."""
        m = _hermitian_pinch(self.v_phi, self.v_psi, c, self.d_b)
        _, dual, mu = _constrained_minimum(m, self.h_mat, self.e_cap)
        self.offer_upper(math.sqrt(max(2.0 - 2.0 * dual, 0.0)), c, mu)

    def bracket(self, budget: int, tol: float) -> Bracket:
        self.descend(budget, tol)
        return Bracket(
            lower=min(self.lower, self.upper),
            upper=self.upper,
            iterations=self.iterations,
            converged=self.width <= tol,
            lower_state=self.low_state,
            upper_contraction=self.up_contraction,
            upper_multiplier=self.up_mu,
            lower_state_energy=self.low_energy,
        )


def _hermitian_basis(n: int) -> np.ndarray:
    """E_ii, E_ij + E_ji and i (E_ij - E_ji) for i < j: a real basis of the n x n Hermitian matrices."""
    e = np.eye(n * n).reshape(n, n, n, n)
    i, j = np.triu_indices(n, 1)
    diag = np.arange(n)
    return np.concatenate([e[diag, diag], e[i, j] + e[j, i], 1j * (e[i, j] - e[j, i])])


class _DiamondTracker(_SaddleTracker):
    """Barrier path for Watrous's SDP of the (energy-constrained) diamond norm.

    1/2 ||Phi - Psi||_diamond = min t + mu (E - E_0) over Hermitian Z on
    B (x) R, t and mu >= 0, subject to t I - Tr_B Z + mu (H - E_0) >= 0,
    Z - J >= 0 and Z >= 0 (Watrous, arXiv:1207.5726; the cap's multiplier as
    in Shirokov, arXiv:1706.00361).  J is the complex conjugate of the Choi
    matrix of Phi - Psi, so the first block's barrier dual is the channel
    input rho itself, not its conjugate on R.  The lower endpoint is
    ||((Phi - Psi) (x) id)(psi)||_1 = ||(1 (x) sqrt(rho)) J (1 (x) sqrt(rho))||_1
    at the purification psi of rho after `_polish_state`.  The upper one is
    twice the dual value of Z + delta I at the least feasible t, capped at
    2, where delta = max(0, -lambda_min(Z - J), -lambda_min(Z)).
    """

    def __init__(self, v_phi, v_psi, d_b, d_e, cap: Optional[EnergyCap]):
        d_r = v_phi.shape[1]
        w_phi, w_psi = (v.reshape(d_b, d_e, d_r).transpose(0, 2, 1).reshape(d_b * d_r, d_e).conj()
                        for v in (v_phi, v_psi))
        self.choi = w_phi @ w_phi.conj().T - w_psi @ w_psi.conj().T
        super().__init__(v_phi, v_psi, d_b, d_e, cap)

    def _lmi(self):
        """Blocks, objective and start point over y = (Z, t), from Z = (lambda_max(J)+ + 1) I."""
        d_b, d_r = self.d_b, self.v_phi.shape[1]
        n = d_b * d_r
        basis = _hermitian_basis(n)
        z = np.concatenate([basis, np.zeros((1, n, n))])
        tr_b = np.einsum("kbrbs->krs", basis.reshape(-1, d_b, d_r, d_b, d_r))
        state = np.concatenate([-tr_b, np.eye(d_r)[None]])
        c = max(np.linalg.eigvalsh(self.choi)[-1], 0.0) + 1.0
        objective = np.append(np.zeros(n * n), 1.0)  # minimized: t + mu (E - E_0)
        y0 = np.append(np.repeat([c, 0.0], [n, n * n - n]), c * d_b + 1.0)
        return [(np.zeros((d_r, d_r)), state), (-self.choi, z), (np.zeros((n, n)), z)], objective, y0

    def _certify(self, y: np.ndarray, factors: list):
        state, _, z = self._blocks(y)
        s = np.linalg.inv(factors[0])
        rho = _polish_state(s.conj().T @ s, self.cap)
        root = _eye_kron(self.d_b, _sqrt_psd(rho))
        out = root @ self.choi @ root
        self.offer_lower(trace_norm((out + out.conj().T) / 2.0), rho)  # exactly Hermitian: |eigvalsh|
        # Z + delta I lowers the state block by delta d_b I; the least t keeping it PSD gives the dual value
        delta = max(0.0, -np.linalg.eigvalsh(z - self.choi)[0], -np.linalg.eigvalsh(z)[0])
        value = float(self.objective @ y) + delta * self.d_b - float(np.linalg.eigvalsh(state)[0])
        mu = float(y[-1]) if self.cap is not None else 0.0
        self.offer_upper(min(2.0 * value, 2.0), z + delta * np.eye(len(z)), mu)


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


def diamond_bracket(
    phi: StinespringChannel,
    psi: StinespringChannel,
    cap: Optional[EnergyCap] = None,
    budget: int = 500,
    tol: float = BRACKET_TOL,
    seed: int = 0,
    bures_bracket: Optional[Bracket] = None,
) -> Bracket:
    """Certified bracket for the (energy-constrained) diamond-norm distance.

    Watrous's SDP follows the barrier path of `_DiamondTracker` (endpoints
    and witnesses as described there) as `channel_bures_bracket` does its
    own, and lower <= upper <= 2 holds exactly.  `lower_state` is the input
    on A, `upper_contraction` the feasible Z and `upper_multiplier` its mu.
    `seed` and `bures_bracket` are accepted and ignored.
    """
    return _solve_bracket(_DiamondTracker, phi, psi, cap, budget, tol)


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
    Draws are built in place by `complex_gaussian` and scaled by 1 / norm,
    which is how numpy divides a complex array by a real one, so the
    samples and the value are those of a + 1j * b divided by its norm.
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
        vecs = complex_gaussian(rng, (m, dim))
        vecs *= 1.0 / np.linalg.norm(vecs, axis=1, keepdims=True)
        val, vec = evaluate(vecs)
        if val > best:
            best, best_vec = val, vec
    radii = (0.3, 0.1, 0.03, 0.01, 0.003)
    per_stage = max((samples - coarse) // len(radii), 1)
    for radius in radii:
        vecs = complex_gaussian(rng, (per_stage, dim))
        vecs *= radius
        vecs += best_vec
        vecs *= 1.0 / np.linalg.norm(vecs, axis=1, keepdims=True)
        val, vec = evaluate(vecs)
        if val > best:
            best, best_vec = val, vec
    return max(best, 0.0)


def _trace_norms(y: np.ndarray) -> np.ndarray:
    """Trace norms of a stack of matrices; 2 x 2 ones in closed form, (s_1 + s_2)^2 = ||Y||_F^2 + 2 |det Y|."""
    if y.shape[1:] != (2, 2):
        return np.linalg.svd(y, compute_uv=False).sum(axis=1)
    det = y[:, 0, 0] * y[:, 1, 1] - y[:, 0, 1] * y[:, 1, 0]
    return np.sqrt(np.einsum("nef,nef->n", y, y.conj()).real + 2.0 * np.abs(det))


def _batched_output_bures(w_phi, w_psi, vecs, d_b, d_e1, d_e2, d_r) -> np.ndarray:
    """Output Bures distances for a batch of pure inputs, without output states.

    The dilated output (V (x) I_R) v, read as a d_e x (d_b d_r) matrix Y,
    factors the output exactly as Y^T conj(Y).  By Uhlmann's theorem the root
    fidelity ||sqrt(rho) sqrt(sigma)||_1 is then the trace norm of the small
    overlap Y_phi Y_psi*, so no noisy rank-deficient spectrum is square-rooted.
    The overlap is sesquilinear in v: the outer products v conj(v)^T times one
    form of the two dilations, summed over B and R once per call.
    """
    m, dim = vecs.shape
    form = np.einsum("beri,bfrj->ijef", w_phi.reshape(d_b, d_e1, d_r, dim),
                     w_psi.reshape(d_b, d_e2, d_r, dim).conj()).reshape(dim * dim, d_e1 * d_e2)
    # the sample axis last and contiguous, so the outer products' inner loops run over the m samples
    cols = np.ascontiguousarray(vecs.T)
    outer = (cols[:, None, :] * cols[None, :, :].conj()).reshape(dim * dim, m)
    root_f = np.clip(_trace_norms((outer.T @ form).reshape(m, d_e1, d_e2)), 0.0, 1.0)
    return np.sqrt(np.clip(2.0 * (1.0 - root_f), 0.0, None))
