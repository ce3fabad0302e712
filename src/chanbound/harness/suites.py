"""Verification campaigns: one suite per statement family.

Each suite draws seeded random instances, computes the left-hand side
exactly, brackets (or computes) epsilon, and classifies the inequality
with the three-way verdict logic.  Same config and seed give identical
results independent of scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import bounds as bnd
from ..channels import StinespringChannel, apply, tensor_power_apply
from ..energy import (
    EnergyCap,
    Hamiltonian,
    OscillatorSpec,
    TruncationTailWarning,
    cap_weight,
    check_s_flag,
    f_bar,
    f_h,
    gamma,
    ground_product,
    mix_to_cap,
    oscillator_f,
    truncate_pure_state,
)
from ..entropic import (
    Ensemble,
    conditional_mutual_information,
    g,
    h2,
    holevo_quantity,
    mutual_information,
    qc_state,
)
from ..metrics import (
    EnergyConstraint,
    bures_state_distance,
    bures_sup_bruteforce,
    channel_bures_bracket,
    diamond_bracket,
    ensemble_d0,
    ensemble_dk,
)
from ..qstate import (
    DensityMatrix,
    HermitianOperator,
    SystemLayout,
    jordan_parts,
    partial_trace,
    partial_trace_hermitian,
    trace_norm,
)
from .generators import Generators
from .verdict import BoundVerdict, DEFAULT_TOL, summarize

SUITE_NAMES = (
    "lemma4",
    "prop2",
    "prop3",
    "prop4",
    "prop5",
    "prop6",
    "prop7",
    "prop8",
    "thm1",
    "thm2",
    "identities",
    "metrics",
)


@dataclass
class CampaignConfig:
    suite: str
    trials: int = 100
    seed: int = 7
    dims: dict = field(default_factory=dict)
    energy: Optional[dict] = None
    budgets: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; expected one of {SUITE_NAMES}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        self.seed = int(self.seed)

    def budget(self, key: str, default):
        return self.budgets.get(key, default)

    def dim(self, key: str, default: int) -> int:
        return int(self.dims.get(key, default))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "dims": dict(self.dims),
            "energy": dict(self.energy) if self.energy else None,
            "budgets": dict(self.budgets),
        }


def config_from_dict(doc: dict) -> CampaignConfig:
    known = {"suite", "trials", "seed", "dims", "energy", "budgets"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return CampaignConfig(
        suite=str(doc["suite"]),
        trials=int(doc.get("trials", 100)),
        seed=int(doc.get("seed", 7)),
        dims=dict(doc.get("dims", {})),
        energy=doc.get("energy"),
        budgets=dict(doc.get("budgets", {})),
    )


def parse_energy(doc: dict):
    """Energy config -> (Hamiltonian or OscillatorSpec, E)."""
    kind = doc.get("kind", "oscillator")
    e = float(doc["E"])
    if kind == "oscillator":
        spec = OscillatorSpec(
            modes=int(doc.get("modes", 1)),
            frequencies=tuple(doc.get("frequencies", [1.0] * int(doc.get("modes", 1)))),
            hbar=float(doc.get("hbar", 1.0)),
            truncation=int(doc.get("truncation", 40)),
        )
        return spec, e
    if kind == "spectrum":
        return Hamiltonian(np.asarray(doc["eigenvalues"], dtype=float)), e
    raise ValueError(f"unknown energy kind {kind!r}")


@dataclass(frozen=True)
class CampaignReport:
    suite: str
    seed: int
    config: dict
    verdicts: tuple
    summary: dict


def run_suite(config: CampaignConfig) -> CampaignReport:
    fn = _SUITES[config.suite]
    verdicts = fn(config)
    return CampaignReport(
        suite=config.suite,
        seed=config.seed,
        config=config.to_dict(),
        verdicts=tuple(verdicts),
        summary=summarize(verdicts),
    )


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _bracket(config: CampaignConfig, trial: int, phi, psi, constraint=None, diamond: bool = False):
    """Bures (or diamond) bracket of a channel pair at the campaign's bracket
    budget and tolerance, seeded by the trial index."""
    fn = diamond_bracket if diamond else channel_bures_bracket
    return fn(phi, psi, constraint, budget=config.budget("bracket_budget", 500),
              tol=config.budget("bracket_tol", 1e-6), seed=trial)


def _trials(config: CampaignConfig):
    """(trial index, the trial's seeded generators) for every trial of the campaign."""
    for trial in range(config.trials):
        yield trial, Generators.for_trial(config.seed, trial)


def _inequality(config: CampaignConfig, trial: int, name: str, value: float, cap: float) -> BoundVerdict:
    """The check value <= cap, with no epsilon: identities and sandwich relations."""
    tol = config.budget("verdict_tol", DEFAULT_TOL)
    return BoundVerdict.exact(config.suite, trial, name, value, 0.0, cap, tol)


def _energy_input(config: CampaignConfig, default: dict):
    """Energy config, or the suite's default -> (spec, Hamiltonian, E, f_bar).

    `spec` is the OscillatorSpec, or None for a spectrum.  f_bar is the
    oscillator closed form, or the spectrum's numeric max entropy.
    """
    handle, e_cap = parse_energy(config.energy or default)
    if isinstance(handle, OscillatorSpec):
        return handle, handle.to_hamiltonian(), e_cap, lambda e: oscillator_f(handle, e + handle.ground_energy)
    return None, handle, e_cap, lambda e: f_bar(handle, e)


def _half_trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    return 0.5 * trace_norm(rho.entries - sigma.entries)


def _output_cmi(channel: StinespringChannel, rho: DensityMatrix) -> float:
    out = apply(channel, rho)
    return conditional_mutual_information(out, (channel.output_label,), ("D",), ("C",))


def _output_holevo(channel: StinespringChannel, ens: Ensemble) -> float:
    return holevo_quantity(Ensemble([(p, apply(channel, state)) for p, state in ens.items]))


# ---------------------------------------------------------------------------
# lemma4: CMI continuity on five qubits, exact epsilon
# ---------------------------------------------------------------------------

def _qubits(labels: str) -> SystemLayout:
    return SystemLayout([(lbl, 2) for lbl in labels])


def _cmi_abcd(state: DensityMatrix) -> float:
    reduced = partial_trace(state, ("A", "B", "C"))
    return conditional_mutual_information(reduced, ("A",), ("B",), ("C",))


def suite_lemma4(config: CampaignConfig) -> list[BoundVerdict]:
    tol = config.budget("verdict_tol", DEFAULT_TOL)
    layout = _qubits("ABCDR")
    layout_adf = SystemLayout([("A", 2), ("D", 2), ("B", 2), ("C", 2), ("R", 2)])
    e_cap = float(config.budget("lemma4_energy", 1.0))
    ham_star = Hamiltonian(np.arange(4.0))
    # H_* acts on A and D together, as one 4-level system
    cap = EnergyCap(ham_star, e_cap, SystemLayout([("AD", 4), ("B", 2), ("C", 2), ("R", 2)]), "AD")
    finite = {"d": 4}
    energy = {"f_handle": lambda e: f_h(ham_star, e), "energy": e_cap}
    # trial % 4 -> (input pair, checks); a check is (bound name, variant, arguments)
    kinds = (
        (lambda gen: (gen.density(layout), gen.density(layout)),
         (("lemma4_finite", "finite", finite),)),
        (lambda gen: (_random_qc_state(gen, layout_adf), _random_qc_state(gen, layout_adf)),
         (("lemma4_finite", "finite", finite), ("lemma4_qc", "qc", finite))),
        (lambda gen: _bc_preserving_pair(gen, layout),
         (("lemma4_finite", "finite", finite),
          ("lemma4_finite_equal_bc", "finite", {**finite, "part_c": True}))),
        (lambda gen: tuple(mix_to_cap(gen.pure(layout_adf), cap).to_density() for _ in range(2)),
         (("lemma4_energy", "energy", energy), ("lemma4_pure", "pure", energy))),
    )
    out: list[BoundVerdict] = []
    for trial, gen in _trials(config):
        draw, checks = kinds[trial % 4]
        rho, sigma = draw(gen)
        eps = _half_trace_distance(rho, sigma)
        lhs = abs(_cmi_abcd(rho) - _cmi_abcd(sigma))
        for name, variant, kwargs in checks:
            out.append(BoundVerdict.exact(
                "lemma4", trial, name, lhs, eps, bnd.lemma4_bound(variant, eps, **kwargs), tol,
            ))
    return out


def _random_qc_state(gen: Generators, layout_adf: SystemLayout) -> DensityMatrix:
    """qc-state over the (AD):(BCR) cut in the fixed computational basis."""
    probs = gen.probabilities(8)
    ad = SystemLayout([("A", 2), ("D", 2)])
    out = np.zeros((32, 32), dtype=np.complex128)
    for i, p in enumerate(probs):
        tau = gen.density(ad).entries
        out[i::8, i::8] = p * tau
    return DensityMatrix(layout_adf, out)


def _bc_preserving_pair(gen: Generators, layout: SystemLayout):
    """A random state and its conjugate by a product unitary on A, D, R: the BC marginal is untouched."""
    rho = gen.density(layout)
    blocks = {lbl: gen.unitary(2) if lbl in "ADR" else np.eye(2) for lbl, _ in layout.factors}
    u = np.ones((1, 1), dtype=np.complex128)
    for lbl, _ in layout.factors:
        u = np.kron(u, blocks[lbl])
    return rho, DensityMatrix(layout, u @ rho.entries @ u.conj().T)


# ---------------------------------------------------------------------------
# prop2 / prop6: output CMI / Holevo quantity under joint channel and input variation
# ---------------------------------------------------------------------------

def _joint_variation(config, d_a, d_b, draw, metric, output, bound, eps_kinds) -> list[BoundVerdict]:
    """A channel pair and an input pair vary together.

    trial % 3 == 1 keeps one channel, so epsilon is the input metric alone;
    trial % 3 == 2 keeps one input, so epsilon is the channels' Bures
    bracket alone; other trials add the two.  The bound takes both flags.
    """
    tol = config.budget("verdict_tol", DEFAULT_TOL)
    d_e = config.dim("d_e", 2)
    out: list[BoundVerdict] = []
    for trial, gen in _trials(config):
        same_channel, same_input = trial % 3 == 1, trial % 3 == 2
        phi = gen.channel(d_a, d_b, d_e)
        psi = phi if same_channel else gen.channel(d_a, d_b, d_e)
        x = draw(gen)
        y = x if same_input else draw(gen)
        metric_eps = 0.0 if same_input else metric(x, y)
        if same_channel:
            eps_lo = eps_hi = metric_eps
            certs = {"epsilon_kind": eps_kinds[0]}
        else:
            br = _bracket(config, trial, phi, psi)
            eps_lo, eps_hi = metric_eps + br.lower, metric_eps + br.upper
            certs = {"epsilon_kind": eps_kinds[1], "beta_lower": br.lower,
                     "beta_upper": br.upper, "converged": br.converged}
        lhs = abs(output(phi, x) - output(psi, y))
        out.append(BoundVerdict.check(
            config.suite, trial, config.suite, lhs, eps_lo, eps_hi,
            bound(eps_lo, d_a, same_channel, same_input),
            bound(eps_hi, d_a, same_channel, same_input),
            tol, certs,
        ))
    return out


def suite_prop2(config: CampaignConfig) -> list[BoundVerdict]:
    d_a = config.dim("d_a", 2)
    layout = SystemLayout([("A", d_a), ("C", 2), ("D", 2)])
    return _joint_variation(
        config, d_a, config.dim("d_b", 2), lambda gen: gen.density(layout),
        _half_trace_distance, _output_cmi, bnd.prop2_bound,
        ("exact_trace_distance", "trace_distance_plus_bures_bracket"),
    )


def suite_prop6(config: CampaignConfig) -> list[BoundVerdict]:
    d_a = config.dim("d_a", 3)
    m = config.dim("ensemble_size", 3)
    layout = SystemLayout([("A", d_a)])
    return _joint_variation(
        config, d_a, config.dim("d_b", 3), lambda gen: gen.ensemble(layout, m),
        lambda mu, nu: min(ensemble_d0(mu, nu), ensemble_dk(mu, nu)), _output_holevo,
        bnd.prop6_bound, ("min_d0_dk", "min_d0_dk_plus_bures_bracket"),
    )


# ---------------------------------------------------------------------------
# prop3 / prop7: output CMI / Holevo quantity of one fixed channel under
# input variation with an input energy cap
# ---------------------------------------------------------------------------

def _capped_inputs(config: CampaignConfig, default: dict, factors: list):
    """The energy cap on A of the layout A + `factors`, E - E_0, f_bar and the fixed channel."""
    _, ham, e_cap, fbar = _energy_input(config, default)
    cap = EnergyCap(ham, e_cap, SystemLayout([("A", ham.dim)] + factors))
    channel = Generators.for_trial(config.seed, 10**9).channel(ham.dim, config.dim("d_b", 3), config.dim("d_e", 2))
    return cap, e_cap - ham.ground_energy, fbar, channel


def suite_prop3(config: CampaignConfig) -> list[BoundVerdict]:
    tol = config.budget("verdict_tol", DEFAULT_TOL)
    default = {"kind": "spectrum", "eigenvalues": list(range(config.dim("d_a", 4))), "E": 1.0}
    cap, e_bar, fbar, channel = _capped_inputs(config, default, [("C", 2), ("D", 2)])
    out: list[BoundVerdict] = []
    for trial, gen in _trials(config):
        pure = trial % 2 == 1
        if pure:
            rho, sigma = (mix_to_cap(gen.pure(cap.layout), cap).to_density() for _ in range(2))
        else:
            rho, sigma = (mix_to_cap(gen.density(cap.layout), cap) for _ in range(2))
        eps = _half_trace_distance(rho, sigma)
        lhs = abs(_output_cmi(channel, rho) - _output_cmi(channel, sigma))
        rhs = bnd.prop3_bound(eps, fbar, e_bar, pure=pure)
        name = "prop3_pure" if pure else "prop3"
        out.append(BoundVerdict.exact("prop3", trial, name, lhs, eps, rhs, tol,
                                      {"epsilon_kind": "exact_trace_distance"}))
    return out


# ---------------------------------------------------------------------------
# prop4 / prop5: n-copy output CMI under channel variation, without and
# with an energy-constrained channel distance
# ---------------------------------------------------------------------------

def _n_copy_layout(n: int, d_a: int):
    labels = [f"A{k}" for k in range(1, n + 1)]
    return labels, SystemLayout([(lbl, d_a) for lbl in labels] + [("C", 2), ("D", 2)])


def _n_copy_cmi(channel: StinespringChannel, n: int, rho: DensityMatrix) -> float:
    labels = [f"A{k}" for k in range(1, n + 1)]
    out = tensor_power_apply(channel, n, rho, labels)
    b_labels = tuple(f"{channel.output_label}{k}" for k in range(1, n + 1))
    return conditional_mutual_information(out, b_labels, ("D",), ("C",))


def _n_copy_verdict(config, trial, bound_name, n, phi, psi, rho, rhs_at, certs, constraint=None):
    """n-copy output CMI of one input under two channels.

    Epsilon is the pair's (energy-constrained) Bures bracket; `certs` adds
    suite certificates after the bracket's own.
    """
    br = _bracket(config, trial, phi, psi, constraint)
    lhs = abs(_n_copy_cmi(phi, n, rho) - _n_copy_cmi(psi, n, rho))
    kind = "bures_bracket" if constraint is None else "energy_constrained_bures_bracket"
    return BoundVerdict.check(
        config.suite, trial, bound_name,
        lhs, br.lower, br.upper, rhs_at(br.lower), rhs_at(br.upper),
        config.budget("verdict_tol", DEFAULT_TOL),
        {"epsilon_kind": kind, "converged": br.converged, "width": br.width, **certs},
    )


def suite_prop4(config: CampaignConfig) -> list[BoundVerdict]:
    d_a = config.dim("d_a", 2)
    n_fixed = config.dims.get("n")
    out: list[BoundVerdict] = []
    for trial, gen in _trials(config):
        n = int(n_fixed) if n_fixed is not None else (1 if trial % 2 == 0 else 2)
        _, layout = _n_copy_layout(n, d_a)
        phi = gen.channel(d_a, config.dim("d_b", 2), config.dim("d_e", 2))
        psi = gen.channel(d_a, config.dim("d_b", 2), config.dim("d_e", 2))
        rho = gen.density(layout)
        out.append(_n_copy_verdict(
            config, trial, f"prop4_n{n}", n, phi, psi, rho,
            lambda eps: bnd.prop4_bound(eps, d_a, n), {},
        ))
    return out


def _copy_energies(rho: DensityMatrix, labels, h_mat: np.ndarray) -> list[float]:
    return [float(np.real(np.trace(h_mat @ partial_trace(rho, (lbl,)).entries))) for lbl in labels]


def suite_prop5(config: CampaignConfig) -> list[BoundVerdict]:
    default = {"kind": "oscillator", "modes": 1, "frequencies": [1.0], "truncation": 6, "E": 1.2}
    spec, ham, e_cap, _ = _energy_input(config, default)
    if spec is None:
        raise ValueError("prop5 runs on oscillator input systems")
    d_a = ham.dim
    e0 = ham.ground_energy
    h_mat = ham.to_matrix()
    constraint = EnergyConstraint(ham, e_cap)
    gamma_fn, d_max = bnd.gamma_fn_from_oscillator(spec)
    e_bar = e_cap - spec.ground_energy
    d_b, d_e = config.dim("d_b", 3), config.dim("d_e", 2)
    out: list[BoundVerdict] = []
    for trial, gen in _trials(config):
        n = 1 if trial % 2 == 0 else 2
        labels, layout = _n_copy_layout(n, d_a)
        rho = gen.density(layout)
        energies = _copy_energies(rho, labels, h_mat)
        # trials 0, 1 (mod 4) cap every copy; trials 2, 3 cap the copies' total
        if trial % 4 < 2:
            t = max(cap_weight(e, e_cap, e0) for e in energies)
        else:
            t = cap_weight(sum(energies), n * e_cap, n * e0)
        if t > 0.0:
            rho = DensityMatrix(layout, (1 - t) * rho.entries + t * ground_product(ham, layout, labels))
            energies = _copy_energies(rho, labels, h_mat)
        t_flag = 0 if all(e <= e_cap + 1e-9 for e in energies) else 1
        phi = gen.channel(d_a, d_b, d_e)
        psi = gen.channel(d_a, d_b, d_e)

        def rhs_at(eps: float) -> float:
            t_val = bnd.t_st(eps, e_bar, gamma_fn, s=0, t=t_flag, d_max=d_max).value
            return n * (t_val + g(eps) + 2.0 * eps * math.log(2.0))

        out.append(_n_copy_verdict(
            config, trial, f"prop5_n{n}_t{t_flag}", n, phi, psi, rho, rhs_at,
            {"per_copy_energies": energies, "truncation": spec.truncation}, constraint,
        ))
    return out


def suite_prop7(config: CampaignConfig) -> list[BoundVerdict]:
    tol = config.budget("verdict_tol", DEFAULT_TOL)
    default = {"kind": "spectrum", "eigenvalues": [0, 1, 2, 3], "E": 1.0}
    cap, e_bar, fbar, channel = _capped_inputs(config, default, [])
    m = config.dim("ensemble_size", 3)
    out: list[BoundVerdict] = []
    for trial, gen in _trials(config):
        mu = mix_to_cap(gen.ensemble(cap.layout, m), cap)
        nu = mix_to_cap(gen.ensemble(cap.layout, m), cap)
        eps = ensemble_dk(mu, nu)
        lhs = abs(_output_holevo(channel, mu) - _output_holevo(channel, nu))
        rhs = bnd.prop7_bound(eps, fbar, e_bar) if eps > 0 else 0.0
        out.append(BoundVerdict.exact("prop7", trial, "prop7", lhs, eps, rhs, tol,
                                      {"epsilon_kind": "kantorovich_exact"}))
    return out


# ---------------------------------------------------------------------------
# prop8: output Holevo quantity under channel variation with energy cap
# ---------------------------------------------------------------------------

def suite_prop8(config: CampaignConfig) -> list[BoundVerdict]:
    tol = config.budget("verdict_tol", DEFAULT_TOL)
    default = {"kind": "spectrum", "eigenvalues": [0, 1, 2, 3], "E": 0.6}
    spec, ham, e_cap, _ = _energy_input(config, default)
    if spec is not None:
        spec_r = float(config.budget("p_r", 0.5))

        def t_handle(eps: float) -> float:
            return bnd.p_r(spec, e_cap, eps, spec_r)

    else:
        gamma_fn, d_max = bnd.gamma_fn_from_hamiltonian(ham)
        s_flag = check_s_flag(ham)
        e_bar = e_cap - ham.ground_energy

        def t_handle(eps: float) -> float:
            return bnd.t_st(eps, e_bar, gamma_fn, s=s_flag, t=0, d_max=d_max).value

    d_a = ham.dim
    m = config.dim("ensemble_size", 3)
    layout = SystemLayout([("A", d_a)])
    mu = mix_to_cap(Generators.for_trial(config.seed, 10**9).ensemble(layout, m), EnergyCap(ham, e_cap, layout))
    constraint = EnergyConstraint(ham, e_cap)
    out: list[BoundVerdict] = []
    for trial, gen in _trials(config):
        phi = gen.channel(d_a, config.dim("d_b", 3), config.dim("d_e", 2))
        psi = gen.channel(d_a, config.dim("d_b", 3), config.dim("d_e", 2))
        br = _bracket(config, trial, phi, psi, constraint)
        lhs = abs(_output_holevo(phi, mu) - _output_holevo(psi, mu))
        out.append(BoundVerdict.check(
            "prop8", trial, "prop8",
            lhs, br.lower, br.upper,
            bnd.prop8_bound(br.lower, t_handle),
            bnd.prop8_bound(br.upper, t_handle),
            tol,
            {"epsilon_kind": "energy_constrained_bures_bracket", "converged": br.converged},
        ))
    return out


# ---------------------------------------------------------------------------
# thm1 / thm2: closed-form capacity verification on the erasure family
# ---------------------------------------------------------------------------

def _erasure_verdicts(config, first_trial, x, m_scale, rhs_at, certs) -> list[BoundVerdict]:
    """Capacity gaps of erase(1/2 - x) over erase(1/2), one verdict per capacity.

    The gaps scale with m_scale (log d, or the max entropy at the energy
    cap); epsilon is the closed-form isometry gap and rhs_at(capacity, eps)
    the bound.  Trials number the rows from first_trial.
    """
    eps = bnd.erasure_isometry_gap(x)
    return [
        BoundVerdict.exact(
            config.suite, first_trial + k, f"{config.suite}_{cap}",
            bnd.erasure_delta(cap, x, m_scale), eps, rhs_at(cap, eps),
            config.budget("verdict_tol", DEFAULT_TOL),
            {"epsilon_kind": "isometry_gap_closed_form", **certs},
        )
        for k, cap in enumerate(bnd.CAPACITIES)
    ]


def suite_thm1(config: CampaignConfig) -> list[BoundVerdict]:
    x_values = config.dims.get("x_grid", [0.01, 0.05])
    out: list[BoundVerdict] = []
    for d in config.dims.get("d_grid", list(range(2, 65))):
        for x in x_values:
            out += _erasure_verdicts(
                config, len(out), x, math.log(d),
                lambda cap, eps: bnd.theorem1_bound(cap, eps, d_a=int(d)), {"d": int(d), "x": float(x)},
            )
    return out


def suite_thm2(config: CampaignConfig) -> list[BoundVerdict]:
    default = {"kind": "oscillator", "modes": 1, "frequencies": [1.0], "truncation": 40, "E": 5.0}
    spec, ham, _, _ = _energy_input(config, default)
    if spec is None:
        raise ValueError("thm2 runs on oscillator input systems")
    x_values = config.dims.get("x_grid", [0.01, 0.05])
    out: list[BoundVerdict] = []
    for e_cap in config.dims.get("e_grid", [2.0, 5.0, 10.0]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationTailWarning)
            m_scale = f_h(ham, e_cap)
        tail_warned = any(issubclass(w.category, TruncationTailWarning) for w in caught)
        r_values = config.dims.get("r_grid", [1.0, 0.3, 1.0 / oscillator_f(spec, e_cap)])
        for x in x_values:
            for r in r_values:
                out += _erasure_verdicts(
                    config, len(out), x, m_scale,
                    lambda cap, eps: bnd.theorem2_bound(cap, eps, lambda t, e: bnd.p_r(spec, e_cap, e, r)),
                    {"E": float(e_cap), "x": float(x), "r": float(r), "M": m_scale, "tail_warned": tail_warned},
                )
    return out


# ---------------------------------------------------------------------------
# identities: equalities and auxiliary inequalities used by the proofs
# ---------------------------------------------------------------------------

def suite_identities(config: CampaignConfig) -> list[BoundVerdict]:
    eq_tol = config.budget("identity_tol", 1e-9)
    out: list[BoundVerdict] = []
    ham8 = Hamiltonian(np.arange(8.0))
    for trial, gen in _trials(config):

        # Holevo quantity equals the qc-state mutual information
        layout_a = SystemLayout([("A", 3)])
        ens = gen.ensemble(layout_a, 4)
        qc = qc_state(ens, "X")
        lhs = abs(holevo_quantity(ens) - mutual_information(qc, ("A",), ("X",)))
        out.append(_inequality(config, trial, "chi_equals_qc_mi", lhs, eq_tol))

        # chain rule on four qubits (the two-body term lives on the marginal)
        lay4 = _qubits("XYZC")
        rho4 = gen.density(lay4)
        full = conditional_mutual_information(rho4, ("X",), ("Y", "Z"), ("C",))
        split = conditional_mutual_information(
            partial_trace(rho4, ("X", "Y", "C")), ("X",), ("Y",), ("C",)
        ) + conditional_mutual_information(rho4, ("X",), ("Z",), ("Y", "C"))
        out.append(_inequality(config, trial, "chain_rule", abs(full - split), config.budget("chain_tol", 1e-8)))

        # almost-affinity of the CMI in the mixing weight
        lay3 = _qubits("ABC")
        r1, r2 = gen.density(lay3), gen.density(lay3)
        p = 0.1 + 0.8 * float(gen.rng.random())
        mix = DensityMatrix(lay3, p * r1.entries + (1 - p) * r2.entries)
        dev = abs(
            p * conditional_mutual_information(r1, ("A",), ("B",), ("C",))
            + (1 - p) * conditional_mutual_information(r2, ("A",), ("B",), ("C",))
            - conditional_mutual_information(mix, ("A",), ("B",), ("C",))
        )
        out.append(_inequality(config, trial, "almost_affinity", dev, h2(p) + eq_tol))

        # isometry perturbation inequalities
        u_iso = gen.unitary(4)[:, :2]
        v_iso = gen.unitary(4)[:, :2]
        rho2 = gen.density(_qubits("Q"))
        mid = trace_norm(u_iso @ rho2.entries @ u_iso.conj().T - v_iso @ rho2.entries @ v_iso.conj().T)
        step1 = 2.0 * trace_norm((u_iso - v_iso) @ rho2.entries)
        step2 = 2.0 * float(np.linalg.norm(u_iso - v_iso, 2))
        out.append(_inequality(config, trial, "isometry_state_step", mid, step1 + eq_tol))
        out.append(_inequality(config, trial, "isometry_norm_step", step1, step2 + eq_tol))

        # scaling inequality x f(z/x) <= y f(z/y) for concave nonnegative f
        x_val = 0.05 + float(gen.rng.random())
        y_val = x_val + 0.05 + float(gen.rng.random())
        z_val = 2.0 * float(gen.rng.random())
        for fname, fn in (("concave_scaling_g", g), ("concave_scaling_sqrt", math.sqrt)):
            out.append(_inequality(
                config, trial, fname, x_val * fn(z_val / x_val), y_val * fn(z_val / y_val) + eq_tol,
            ))

        # scaled-argument monotonicity: x log(a/x^2 + b) increasing for b >= e/2
        a_val = 0.1 + 2.0 * float(gen.rng.random())
        b_val = math.e / 2.0 + 2.0 * float(gen.rng.random())
        grid = np.linspace(0.05, 3.0, 24)
        vals = grid * np.log(a_val / grid**2 + b_val)
        out.append(_inequality(config, trial, "xlog_monotone", float(np.max(-np.diff(vals))), eq_tol))

        # rank-truncation claims on an 8x4 bipartite pure state
        out.extend(_truncation_verdicts(config, gen, trial, ham8))
    return out


def _truncation_verdicts(config, gen, trial, ham) -> list[BoundVerdict]:
    eq_tol = config.budget("identity_tol", 1e-9)
    e_cap = float(config.budget("truncation_energy", 1.2))
    d_keep = 2 if trial % 2 == 0 else 4
    if gamma(ham, d_keep) < e_cap - ham.ground_energy:
        e_cap = ham.ground_energy + 0.9 * gamma(ham, d_keep)
    psi = gen.energy_feasible_pure(SystemLayout([("A", ham.dim), ("B", 4)]), "A", ham, e_cap)
    sigma = truncate_pure_state(psi, "A", ham, e_cap, d_keep)
    rho_m, sig_m = psi.to_density(), sigma.to_density()
    e_bar = e_cap - ham.ground_energy
    gam = gamma(ham, d_keep)

    rank = int(np.sum(np.linalg.eigvalsh(partial_trace(sig_m, ("A",)).entries) > 1e-10))
    energy_a = float(np.real(np.trace(ham.to_matrix() @ partial_trace(sig_m, ("A",)).entries)))
    dist = _half_trace_distance(rho_m, sig_m)
    diff = HermitianOperator.difference(rho_m, sig_m)
    pos, neg = jordan_parts(diff)
    tn = trace_norm(diff.entries)
    h_bar_a = ham.to_matrix(shift=ham.ground_energy)
    j_bounds = []
    for part in (pos, neg):
        part_a = partial_trace_hermitian(part, ("A",))
        j_bounds.append(tn * float(np.real(np.trace(h_bar_a @ part_a.entries))))
    return [
        _inequality(config, trial, "trunc_rank", float(rank), float(d_keep)),
        _inequality(config, trial, "trunc_energy", energy_a, e_cap + eq_tol),
        _inequality(config, trial, "trunc_distance", dist,
                    math.sqrt(e_bar / gam) + eq_tol if gam > 0 else math.inf),
        _inequality(config, trial, "trunc_jordan_pos", j_bounds[0], 2 * e_bar + eq_tol),
        _inequality(config, trial, "trunc_jordan_neg", j_bounds[1], 2 * e_bar + eq_tol),
    ]


# ---------------------------------------------------------------------------
# metrics: sandwich relations and see-saw certification
# ---------------------------------------------------------------------------

def suite_metrics(config: CampaignConfig) -> list[BoundVerdict]:
    eq_tol = config.budget("identity_tol", 1e-9)
    brute_samples = config.budget("brute_samples", 4000)
    out: list[BoundVerdict] = []
    lay = SystemLayout([("A", 3)])
    for trial, gen in _trials(config):
        rho, sigma, tau = gen.density(lay), gen.density(lay), gen.density(lay)
        beta = bures_state_distance(rho, sigma)
        half_tn = _half_trace_distance(rho, sigma)
        out.append(_inequality(config, trial, "bures_lower_sandwich", half_tn, beta + eq_tol))
        out.append(_inequality(config, trial, "bures_upper_sandwich", beta, math.sqrt(2 * half_tn) + eq_tol))
        out.append(_inequality(
            config, trial, "bures_triangle", bures_state_distance(rho, sigma),
            bures_state_distance(rho, tau) + bures_state_distance(tau, sigma) + eq_tol,
        ))

        # D_K <= D_0 holds for shared probability vectors (diagonal coupling);
        # with independent probabilities the two metrics are not ordered
        mu = gen.ensemble(lay, 3)
        nu = Ensemble([(p, gen.density(lay)) for p, _ in mu.items])
        out.append(_inequality(
            config, trial, "dk_le_d0_matched", ensemble_dk(mu, nu), ensemble_d0(mu, nu) + eq_tol,
        ))

        if trial % 5 == 0:
            phi = gen.channel(2, 2, 2)
            psi = gen.channel(2, 2, 2)
            br = _bracket(config, trial, phi, psi)
            dia = _bracket(config, trial, phi, psi, diamond=True)
            out.append(_inequality(config, trial, "half_diamond_le_beta", 0.5 * dia.lower, br.upper + 1e-6))
            out.append(_inequality(config, trial, "beta_le_sqrt_diamond", br.lower, math.sqrt(dia.upper) + 1e-6))
            brute = bures_sup_bruteforce(phi, psi, samples=brute_samples, seed=trial)
            out.append(_inequality(config, trial, "brute_le_upper", brute, br.upper + 1e-4))
    return out


_SUITES = {
    "lemma4": suite_lemma4,
    "prop2": suite_prop2,
    "prop3": suite_prop3,
    "prop4": suite_prop4,
    "prop5": suite_prop5,
    "prop6": suite_prop6,
    "prop7": suite_prop7,
    "prop8": suite_prop8,
    "thm1": suite_thm1,
    "thm2": suite_thm2,
    "identities": suite_identities,
    "metrics": suite_metrics,
}
