"""Verification campaigns: one suite per statement family.

Each suite is a row of `_SUITES`: a setup that builds the campaign's fixed
parts once (energy system, layouts, cap, fixed channel or ensemble, bound
handles) and a draw that turns one trial's seeded generators into rows
(bound name, lhs, epsilon, rhs, certificates).  Epsilon is a float when it
is known exactly, or an (eps_lo, eps_hi) bracket; rhs is the bound's value,
or the bound as a function of epsilon.  `run_suite` alone runs the trials
and classifies each row with the three-way verdict logic, so the same
config and seed give identical results independent of scheduling.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace
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
    f_bar,
    f_h,
    gamma,
    gibbs_spectrum,
    ground_product,
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
    trace_distance,
    trace_norm,
)
from .generators import Generators
from .verdict import BoundVerdict, DEFAULT_TOL, classify, summarize

# trial index of the stream that draws a campaign's fixed channel or ensemble
_FIXED_TRIAL = 10**9

_ENERGY_KEYS = {
    "oscillator": {"kind", "E", "modes", "frequencies", "hbar", "truncation"},
    "spectrum": {"kind", "E", "eigenvalues"},
}


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
        self.trials, self.seed = bnd.check_integer(self.trials, "trials"), bnd.check_integer(self.seed, "seed")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        self.dims, self.budgets = dict(self.dims), dict(self.budgets)
        self.energy = dict(self.energy) if self.energy else None

    def budget(self, key: str, default):
        return self.budgets.get(key, default)

    def dim(self, key: str, default: Optional[int]) -> Optional[int]:
        """dims[key] through `bounds.check_integer`, or `default` when the key is absent."""
        return bnd.check_integer(self.dims[key], key) if key in self.dims else default

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_from_dict(doc: dict) -> CampaignConfig:
    unknown = set(doc) - {f.name for f in dataclasses.fields(CampaignConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return CampaignConfig(**doc)


def parse_energy(doc: dict):
    """Energy config -> (Hamiltonian or OscillatorSpec, E); a key the kind does not take is an error."""
    kind = doc.get("kind", "oscillator")
    if kind not in _ENERGY_KEYS:
        raise ValueError(f"unknown energy kind {kind!r}")
    unknown = set(doc) - _ENERGY_KEYS[kind]
    if unknown:
        raise ValueError(f"unknown {kind} energy keys: {sorted(unknown)}")
    e = float(doc["E"])
    if kind == "spectrum":
        return Hamiltonian(np.asarray(doc["eigenvalues"], dtype=float)), e
    modes = bnd.check_integer(doc.get("modes", 1), "modes")
    spec = OscillatorSpec(
        modes=modes,
        frequencies=tuple(doc.get("frequencies", [1.0] * modes)),
        hbar=float(doc.get("hbar", 1.0)),
        truncation=bnd.check_integer(doc.get("truncation", 40), "truncation"),
    )
    return spec, e


@dataclass(frozen=True)
class CampaignReport:
    suite: str
    seed: int
    config: dict
    verdicts: tuple
    summary: dict


def run_suite(config: CampaignConfig) -> CampaignReport:
    """Set the suite up once, draw every trial, and classify each row (see the module docstring)."""
    setup, draw, dims_keys, budget_keys = _SUITES[config.suite]
    for part, keys in (("dims", dims_keys), ("budgets", budget_keys + ("verdict_tol",))):
        unknown = sorted(set(getattr(config, part)) - set(keys))
        if unknown:
            raise ValueError(f"{config.suite} takes no {part} keys {unknown}; it reads {sorted(keys)}")
    fixed = setup(config)
    if draw is None:
        trials = enumerate([row] for row in fixed)
    else:
        trials = ((t, draw(fixed, Generators.for_trial(config.seed, t), t)) for t in range(config.trials))
    tol = config.budget("verdict_tol", DEFAULT_TOL)
    verdicts = []
    for trial, rows in trials:
        for name, lhs, eps, rhs, certs in rows:
            if isinstance(eps, tuple):
                (eps_lo, eps_hi), rhs_lo, rhs_hi = eps, rhs(eps[0]), rhs(eps[1])
            else:
                eps_lo = eps_hi = eps
                rhs_lo = rhs_hi = rhs(eps) if callable(rhs) else rhs
            verdicts.append(BoundVerdict(config.suite, trial, name, float(lhs), float(eps_lo), float(eps_hi),
                                         float(rhs_lo), float(rhs_hi), classify(lhs, rhs_lo, rhs_hi, tol),
                                         certs or {}))
    return CampaignReport(config.suite, config.seed, config.to_dict(), tuple(verdicts), summarize(verdicts))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _le(name: str, value: float, cap: float):
    """Row for the check value <= cap, with no epsilon: identities and sandwich relations."""
    return name, value, 0.0, cap, {}


def _bracketed(config: CampaignConfig, phi, psi, kind: str, cap=None):
    """(Energy-constrained) Bures bracket of a channel pair at the campaign's
    bracket budget and tolerance, and the certificate every bracketed row carries."""
    br = channel_bures_bracket(phi, psi, cap, budget=config.budget("bracket_budget", 500),
                               tol=config.budget("bracket_tol", 1e-6))
    return br, {"epsilon_kind": kind, "beta_lower": br.lower, "beta_upper": br.upper,
                "width": br.width, "converged": br.converged}


def _pair_setup(config: CampaignConfig, d_a: int, d_b: int, **parts):
    """Fixed parts of a suite that draws channel pairs of dims (d_a, d_b, d_e)."""
    return SimpleNamespace(config=config, dims=(d_a, config.dim("d_b", d_b), config.dim("d_e", 2)), **parts)


def _channel_pair(gen: Generators, dims: tuple, same: bool = False):
    """Two random channels of dims (d_a, d_b, d_e), or one channel twice."""
    phi = gen.channel(*dims)
    return phi, phi if same else gen.channel(*dims)


def _channel_variation(config, name, pair, value, rhs_at, cap=None, **certs):
    """Row for one input under a channel pair: lhs |value(phi) - value(psi)|,
    epsilon the pair's (energy-constrained) Bures bracket."""
    kind = "bures_bracket" if cap is None else "energy_constrained_bures_bracket"
    br, bracket_certs = _bracketed(config, *pair, kind, cap)
    lhs = abs(value(pair[0]) - value(pair[1]))
    return name, lhs, (br.lower, br.upper), rhs_at, {**bracket_certs, **certs}


def _energy_input(config: CampaignConfig, default: dict):
    """Energy config, or the suite's default -> (spec, Hamiltonian, E).

    `spec` is the OscillatorSpec, or None for a spectrum.  A suite whose
    default is an oscillator uses its closed forms, so it takes no spectrum.
    """
    handle, e_cap = parse_energy(config.energy or default)
    if isinstance(handle, OscillatorSpec):
        return handle, handle.to_hamiltonian(), e_cap
    if default["kind"] == "oscillator":
        raise ValueError(f"{config.suite} runs on oscillator input systems")
    return None, handle, e_cap


def _tail_probe(fn, ham: Hamiltonian, e_cap: float):
    """fn(ham, e_cap), and whether it warned that the truncated spectrum's top
    level carries Gibbs weight at the cap (the warning itself is recorded)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationTailWarning)
        value = fn(ham, e_cap)
    return value, any(issubclass(w.category, TruncationTailWarning) for w in caught)


def _output_cmi(channel: StinespringChannel, rho) -> float:
    out = apply(channel, rho)
    return conditional_mutual_information(out, (channel.output_label,), ("D",), ("C",))


def _output_holevo(channel: StinespringChannel, ens: Ensemble) -> float:
    return holevo_quantity(Ensemble([(p, apply(channel, state)) for p, state in ens.items]))


# ---------------------------------------------------------------------------
# lemma4: CMI continuity on five qubits, exact epsilon
# ---------------------------------------------------------------------------

def _qubits(labels: str) -> SystemLayout:
    return SystemLayout([(lbl, 2) for lbl in labels])


def _cmi_abc(state: DensityMatrix) -> float:
    return conditional_mutual_information(state, ("A",), ("B",), ("C",))


def _cmi_abcd(state) -> float:
    return _cmi_abc(partial_trace(state, ("A", "B", "C")))


def _lemma4_setup(config: CampaignConfig):
    """trial % 4 -> (input pair, checks); a check is (bound name, variant, arguments)."""
    layout = _qubits("ABCDR")
    layout_adf = SystemLayout([("A", 2), ("D", 2), ("B", 2), ("C", 2), ("R", 2)])
    e_cap = float(config.budget("lemma4_energy", 1.0))
    ham_star = Hamiltonian(np.arange(4.0))
    # H_* acts on A and D together, as one 4-level system
    cap = EnergyCap(ham_star, e_cap, SystemLayout([("AD", 4), ("B", 2), ("C", 2), ("R", 2)]), "AD")
    finite = {"d": 4}
    energy = {"f_handle": lambda e: f_h(ham_star, e), "energy": e_cap}
    return (
        (lambda gen: (gen.density(layout), gen.density(layout)),
         (("lemma4_finite", "finite", finite),)),
        (lambda gen: (_random_qc_state(gen, layout_adf), _random_qc_state(gen, layout_adf)),
         (("lemma4_finite", "finite", finite), ("lemma4_qc", "qc", finite))),
        (lambda gen: _bc_preserving_pair(gen, layout),
         (("lemma4_finite", "finite", finite),
          ("lemma4_finite_equal_bc", "finite", {**finite, "part_c": True}))),
        (lambda gen: (gen.pure(layout_adf, cap), gen.pure(layout_adf, cap)),
         (("lemma4_energy", "energy", energy), ("lemma4_pure", "pure", energy))),
    )


def _lemma4_draw(kinds, gen: Generators, trial: int):
    draw, checks = kinds[trial % 4]
    rho, sigma = draw(gen)
    eps = trace_distance(rho, sigma)
    lhs = abs(_cmi_abcd(rho) - _cmi_abcd(sigma))
    return [(name, lhs, eps, bnd.lemma4_bound(variant, eps, **kwargs), {}) for name, variant, kwargs in checks]


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

def _prop2_setup(config: CampaignConfig):
    layout = SystemLayout([("A", config.dim("d_a", 2)), ("C", 2), ("D", 2)])
    return _pair_setup(
        config, layout.dim("A"), 2, draw=lambda gen: gen.density(layout), metric=trace_distance,
        output=_output_cmi, bound=bnd.prop2_bound,
        eps_kinds=("exact_trace_distance", "trace_distance_plus_bures_bracket"),
    )


def _prop6_setup(config: CampaignConfig):
    layout, m = SystemLayout([("A", config.dim("d_a", 3))]), config.dim("ensemble_size", 3)
    return _pair_setup(
        config, layout.dim("A"), 3, draw=lambda gen: gen.ensemble(layout, m),
        metric=lambda mu, nu: min(ensemble_d0(mu, nu), ensemble_dk(mu, nu)), output=_output_holevo,
        bound=bnd.prop6_bound, eps_kinds=("min_d0_dk", "min_d0_dk_plus_bures_bracket"),
    )


def _joint_variation(c, gen: Generators, trial: int):
    """A channel pair and an input pair vary together.

    trial % 3 == 1 keeps one channel, so epsilon is the input metric alone;
    trial % 3 == 2 keeps one input, so epsilon is the channels' Bures
    bracket alone; other trials add the two.  The bound takes both flags.
    """
    same_channel, same_input = trial % 3 == 1, trial % 3 == 2
    phi, psi = _channel_pair(gen, c.dims, same_channel)
    x = c.draw(gen)
    y = x if same_input else c.draw(gen)
    eps = 0.0 if same_input else c.metric(x, y)
    certs = {"epsilon_kind": c.eps_kinds[0]}
    if not same_channel:
        br, certs = _bracketed(c.config, phi, psi, c.eps_kinds[1])
        eps = (eps + br.lower, eps + br.upper)
    lhs = abs(c.output(phi, x) - c.output(psi, y))
    return [(c.config.suite, lhs, eps, lambda e: c.bound(e, c.dims[0], same_channel, same_input), certs)]


# ---------------------------------------------------------------------------
# prop3 / prop7: output CMI / Holevo quantity of one fixed channel under
# input variation with an input energy cap
# ---------------------------------------------------------------------------

def _capped_inputs(config: CampaignConfig, default: dict, factors: list, **parts):
    """The energy cap on A of the layout A + `factors`, E - E_0, f_bar and the fixed channel.

    f_bar is the oscillator closed form, or the spectrum's numeric max entropy.
    """
    spec, ham, e_cap = _energy_input(config, default)
    return SimpleNamespace(
        cap=EnergyCap(ham, e_cap, SystemLayout([("A", ham.dim)] + factors)), e_bar=e_cap - ham.ground_energy,
        fbar=(lambda e: oscillator_f(spec, e + spec.ground_energy)) if spec else (lambda e: f_bar(ham, e)),
        channel=Generators.for_trial(config.seed, _FIXED_TRIAL).channel(
            ham.dim, config.dim("d_b", 3), config.dim("d_e", 2)),
        **parts,
    )


def _prop3_setup(config: CampaignConfig):
    default = {"kind": "spectrum", "eigenvalues": list(range(config.dim("d_a", 4))), "E": 1.0}
    return _capped_inputs(config, default, [("C", 2), ("D", 2)])


def _prop3_draw(c, gen: Generators, trial: int):
    pure = trial % 2 == 1
    draw = gen.pure if pure else gen.density
    rho, sigma = draw(c.cap.layout, c.cap), draw(c.cap.layout, c.cap)
    eps = trace_distance(rho, sigma)
    lhs = abs(_output_cmi(c.channel, rho) - _output_cmi(c.channel, sigma))
    return [("prop3_pure" if pure else "prop3", lhs, eps, bnd.prop3_bound(eps, c.fbar, c.e_bar, pure=pure),
             {"epsilon_kind": "exact_trace_distance"})]


def _prop7_setup(config: CampaignConfig):
    default = {"kind": "spectrum", "eigenvalues": [0, 1, 2, 3], "E": 1.0}
    return _capped_inputs(config, default, [], m=config.dim("ensemble_size", 3))


def _prop7_draw(c, gen: Generators, trial: int):
    mu, nu = gen.ensemble(c.cap.layout, c.m, c.cap), gen.ensemble(c.cap.layout, c.m, c.cap)
    eps = ensemble_dk(mu, nu)
    lhs = abs(_output_holevo(c.channel, mu) - _output_holevo(c.channel, nu))
    return [("prop7", lhs, eps, bnd.prop7_bound(eps, c.fbar, c.e_bar) if eps > 0 else 0.0,
             {"epsilon_kind": "kantorovich_exact"})]


# ---------------------------------------------------------------------------
# prop4 / prop5 / prop8: n-copy output CMI, and output Holevo quantity (n = 1),
# under channel variation, without and with an energy-constrained channel distance
# ---------------------------------------------------------------------------

def _n_copy_layout(n: int, d_a: int):
    labels = [f"A{k}" for k in range(1, n + 1)]
    return labels, SystemLayout([(lbl, d_a) for lbl in labels] + [("C", 2), ("D", 2)])


def _n_copy_cmi(channel: StinespringChannel, n: int, rho: DensityMatrix) -> float:
    labels = [f"A{k}" for k in range(1, n + 1)]
    out = tensor_power_apply(channel, n, rho, labels)
    b_labels = tuple(f"{channel.output_label}{k}" for k in range(1, n + 1))
    return conditional_mutual_information(out, b_labels, ("D",), ("C",))


def _prop4_setup(config: CampaignConfig):
    return _pair_setup(config, config.dim("d_a", 2), 2, n=config.dim("n", None))


def _prop4_draw(c, gen: Generators, trial: int):
    n = c.n if c.n is not None else (1 if trial % 2 == 0 else 2)
    _, layout = _n_copy_layout(n, c.dims[0])
    pair = _channel_pair(gen, c.dims)
    rho = gen.density(layout)
    return [_channel_variation(c.config, f"prop4_n{n}", pair, lambda ch: _n_copy_cmi(ch, n, rho),
                               lambda eps: bnd.prop4_bound(eps, c.dims[0], n))]


def _copy_energies(rho: DensityMatrix, labels, cap: EnergyCap) -> list[float]:
    return [float(np.real(np.trace(cap.operator @ partial_trace(rho, (lbl,)).entries))) for lbl in labels]


def _prop5_setup(config: CampaignConfig):
    default = {"kind": "oscillator", "modes": 1, "frequencies": [1.0], "truncation": 6, "E": 1.2}
    spec, ham, e_cap = _energy_input(config, default)
    return _pair_setup(
        config, ham.dim, 3, cap=EnergyCap(ham, e_cap), t_fn=bnd.t_functional(spec, e_cap),
        certs={"truncation": spec.truncation, "tail_warned": _tail_probe(gibbs_spectrum, ham, e_cap)[1]},
    )


def _prop5_draw(c, gen: Generators, trial: int):
    n = 1 if trial % 2 == 0 else 2
    labels, layout = _n_copy_layout(n, c.dims[0])
    ham, e_cap = c.cap.hamiltonian, c.cap.bound
    e0 = ham.ground_energy
    rho = gen.density(layout)
    energies = _copy_energies(rho, labels, c.cap)
    # trials 0, 1 (mod 4) cap every copy; trials 2, 3 cap the copies' total
    if trial % 4 < 2:
        t = max(cap_weight(e, e_cap, e0) for e in energies)
    else:
        t = cap_weight(sum(energies), n * e_cap, n * e0)
    if t > 0.0:
        rho = DensityMatrix(layout, (1 - t) * rho.entries + t * ground_product(ham, layout, labels))
        energies = _copy_energies(rho, labels, c.cap)
    t_flag = 0 if all(e <= e_cap + 1e-9 for e in energies) else 1
    return [_channel_variation(
        c.config, f"prop5_n{n}_t{t_flag}", _channel_pair(gen, c.dims), lambda ch: _n_copy_cmi(ch, n, rho),
        lambda eps: bnd.prop5_bound(eps, n, functools.partial(c.t_fn, t_flag)), c.cap,
        per_copy_energies=energies, **c.certs,
    )]


def _prop8_setup(config: CampaignConfig):
    spec, ham, e_cap = _energy_input(config, {"kind": "spectrum", "eigenvalues": [0, 1, 2, 3], "E": 0.6})
    # an oscillator takes the closed form P_r in place of T
    t_fn = bnd.t_functional(spec or ham, e_cap, r=float(config.budget("p_r", 0.5)) if spec else None)
    cap = EnergyCap(ham, e_cap)
    mu = Generators.for_trial(config.seed, _FIXED_TRIAL).ensemble(cap.layout, config.dim("ensemble_size", 3), cap)
    return _pair_setup(config, ham.dim, 3, mu=mu, cap=cap,
                       rhs_at=lambda eps: bnd.prop8_bound(eps, functools.partial(t_fn, 0)))


def _prop8_draw(c, gen: Generators, trial: int):
    return [_channel_variation(c.config, "prop8", _channel_pair(gen, c.dims),
                               lambda ch: _output_holevo(ch, c.mu), c.rhs_at, c.cap)]


# ---------------------------------------------------------------------------
# thm1 / thm2: closed-form capacity verification on the erasure family
# ---------------------------------------------------------------------------

def _erasure_rows(suite: str, x, m_scale: float, bound_at, certs: dict):
    """Rows of the capacity gaps of erase(1/2 - x) over erase(1/2), one per capacity."""
    for cap, gap, eps, rhs in bnd.erasure_family(x, m_scale, bound_at):
        yield f"{suite}_{cap}", gap, eps, rhs, {"epsilon_kind": "isometry_gap_closed_form", **certs}


def _thm1_grid(config: CampaignConfig):
    for d in config.dims.get("d_grid", list(range(2, 65))):
        d = bnd.check_integer(d, "d_grid")
        for x in config.dims.get("x_grid", [0.01, 0.05]):
            yield from _erasure_rows("thm1", x, math.log(d), functools.partial(bnd.theorem1_bound, d_a=d),
                                     {"d": d, "x": float(x)})


def _thm2_grid(config: CampaignConfig):
    default = {"kind": "oscillator", "modes": 1, "frequencies": [1.0], "truncation": 40, "E": 5.0}
    spec, ham, _ = _energy_input(config, default)
    for e_cap in config.dims.get("e_grid", [2.0, 5.0, 10.0]):
        m_scale, tail_warned = _tail_probe(f_h, ham, e_cap)
        r_values = config.dims.get("r_grid", [1.0, 0.3, 1.0 / oscillator_f(spec, e_cap)])
        for x in config.dims.get("x_grid", [0.01, 0.05]):
            for r in r_values:
                bound_at = functools.partial(bnd.theorem2_bound, t_fn=bnd.t_functional(spec, e_cap, r=r))
                yield from _erasure_rows("thm2", x, m_scale, bound_at, {
                    "E": float(e_cap), "x": float(x), "r": float(r), "M": m_scale, "tail_warned": tail_warned})


# ---------------------------------------------------------------------------
# identities: equalities and auxiliary inequalities used by the proofs
# ---------------------------------------------------------------------------

def _identities_setup(config: CampaignConfig):
    """One Hamiltonian per campaign (its `gammas` array is cached on the object),
    and the truncation rows' cap for each kept rank d_keep: the truncation
    energy, lowered to E_0 + 0.9 gamma(d_keep) where that exceeds gamma(d_keep)."""
    ham = Hamiltonian(np.arange(8.0))
    layout = SystemLayout([("A", ham.dim), ("B", 4)])
    caps = {}
    for d_keep in (2, 4):
        gam, e_cap = gamma(ham, d_keep), float(config.budget("truncation_energy", 1.2))
        if gam < e_cap - ham.ground_energy:
            e_cap = ham.ground_energy + 0.9 * gam
        caps[d_keep] = (EnergyCap(ham, e_cap, layout, "A"), gam)
    return SimpleNamespace(config=config, ham=ham, caps=caps)


def _identities_draw(c, gen: Generators, trial: int):
    eq_tol = c.config.budget("identity_tol", 1e-9)
    # Holevo quantity equals the qc-state mutual information
    ens = gen.ensemble(SystemLayout([("A", 3)]), 4)
    chi_gap = abs(holevo_quantity(ens) - mutual_information(qc_state(ens, "X"), ("A",), ("X",)))

    # chain rule on four qubits (the two-body term lives on the marginal)
    rho4 = gen.density(_qubits("XYZC"))
    full = conditional_mutual_information(rho4, ("X",), ("Y", "Z"), ("C",))
    split = conditional_mutual_information(
        partial_trace(rho4, ("X", "Y", "C")), ("X",), ("Y",), ("C",)
    ) + conditional_mutual_information(rho4, ("X",), ("Z",), ("Y", "C"))

    # almost-affinity of the CMI in the mixing weight
    lay3 = _qubits("ABC")
    r1, r2 = gen.density(lay3), gen.density(lay3)
    p = 0.1 + 0.8 * float(gen.rng.random())
    mix = DensityMatrix(lay3, p * r1.entries + (1 - p) * r2.entries)
    dev = abs(p * _cmi_abc(r1) + (1 - p) * _cmi_abc(r2) - _cmi_abc(mix))
    rows = [
        _le("chi_equals_qc_mi", chi_gap, eq_tol),
        _le("chain_rule", abs(full - split), c.config.budget("chain_tol", 1e-8)),
        _le("almost_affinity", dev, h2(p) + eq_tol),
    ]

    # isometry perturbation inequalities
    u_iso = gen.unitary(4)[:, :2]
    v_iso = gen.unitary(4)[:, :2]
    rho2 = gen.density(_qubits("Q"))
    mid = trace_norm(u_iso @ rho2.entries @ u_iso.conj().T - v_iso @ rho2.entries @ v_iso.conj().T)
    step1 = 2.0 * trace_norm((u_iso - v_iso) @ rho2.entries)
    step2 = 2.0 * float(np.linalg.norm(u_iso - v_iso, 2))
    rows += [_le("isometry_state_step", mid, step1 + eq_tol), _le("isometry_norm_step", step1, step2 + eq_tol)]

    # scaling inequality x f(z/x) <= y f(z/y) for concave nonnegative f
    x_val = 0.05 + float(gen.rng.random())
    y_val = x_val + 0.05 + float(gen.rng.random())
    z_val = 2.0 * float(gen.rng.random())
    rows += [_le(fname, x_val * fn(z_val / x_val), y_val * fn(z_val / y_val) + eq_tol)
             for fname, fn in (("concave_scaling_g", g), ("concave_scaling_sqrt", math.sqrt))]

    # scaled-argument monotonicity: x log(a/x^2 + b) increasing for b >= e/2
    a_val = 0.1 + 2.0 * float(gen.rng.random())
    b_val = math.e / 2.0 + 2.0 * float(gen.rng.random())
    grid = np.linspace(0.05, 3.0, 24)
    vals = grid * np.log(a_val / grid**2 + b_val)
    rows.append(_le("xlog_monotone", float(np.max(-np.diff(vals))), eq_tol))

    # rank-truncation claims on an 8x4 bipartite pure state
    d_keep = 2 if trial % 2 == 0 else 4
    return rows + _truncation_rows(gen, c.ham, d_keep, *c.caps[d_keep], eq_tol)


def _truncation_rows(gen: Generators, ham: Hamiltonian, d_keep: int, cap: EnergyCap, gam: float,
                     eq_tol: float) -> list:
    e_cap = cap.bound
    psi = gen.pure(cap.layout, cap)
    sig = truncate_pure_state(psi, "A", ham, e_cap, d_keep)
    e_bar = e_cap - ham.ground_energy

    sig_a = partial_trace(sig, ("A",))
    rank = int(np.sum(sig_a.spectrum > 1e-10))
    energy_a = float(np.real(np.trace(ham.to_matrix() @ sig_a.entries)))
    diff = HermitianOperator.difference(psi.to_density(), sig.to_density())
    tn = trace_norm(diff.entries)
    h_bar_a = ham.to_matrix(shift=ham.ground_energy)
    j_pos, j_neg = (tn * float(np.real(np.trace(h_bar_a @ partial_trace_hermitian(part, ("A",)).entries)))
                    for part in jordan_parts(diff))
    return [
        _le("trunc_rank", float(rank), float(d_keep)),
        _le("trunc_energy", energy_a, e_cap + eq_tol),
        _le("trunc_distance", trace_distance(psi, sig),
            math.sqrt(e_bar / gam) + eq_tol if gam > 0 else math.inf),
        _le("trunc_jordan_pos", j_pos, 2 * e_bar + eq_tol),
        _le("trunc_jordan_neg", j_neg, 2 * e_bar + eq_tol),
    ]


# ---------------------------------------------------------------------------
# metrics: sandwich relations and bracket certification
# ---------------------------------------------------------------------------

def _metrics_draw(config: CampaignConfig, gen: Generators, trial: int):
    eq_tol, lay = config.budget("identity_tol", 1e-9), SystemLayout([("A", 3)])
    rho, sigma, tau = gen.density(lay), gen.density(lay), gen.density(lay)
    beta = bures_state_distance(rho, sigma)
    half_tn = trace_distance(rho, sigma)
    rows = [
        _le("bures_lower_sandwich", half_tn, beta + eq_tol),
        _le("bures_upper_sandwich", beta, math.sqrt(2 * half_tn) + eq_tol),
        _le("bures_triangle", beta, bures_state_distance(rho, tau) + bures_state_distance(tau, sigma) + eq_tol),
    ]

    # D_K <= D_0 holds for shared probability vectors (diagonal coupling);
    # with independent probabilities the two metrics are not ordered
    mu = gen.ensemble(lay, 3)
    nu = Ensemble([(p, gen.density(lay)) for p, _ in mu.items])
    rows.append(_le("dk_le_d0_matched", ensemble_dk(mu, nu), ensemble_d0(mu, nu) + eq_tol))

    if trial % 5 == 0:
        phi, psi = _channel_pair(gen, (2, 2, 2))
        br, _ = _bracketed(config, phi, psi, "bures_bracket")
        dia = diamond_bracket(phi, psi, budget=config.budget("bracket_budget", 500),
                              tol=config.budget("bracket_tol", 1e-6))
        brute = bures_sup_bruteforce(phi, psi, samples=config.budget("brute_samples", 4000), seed=trial)
        rows += [
            _le("half_diamond_le_beta", 0.5 * dia.lower, br.upper + 1e-6),
            _le("beta_le_sqrt_diamond", br.lower, math.sqrt(dia.upper) + 1e-6),
            _le("brute_le_upper", brute, br.upper + 1e-4),
        ]
    return rows


def _config_only(config: CampaignConfig) -> CampaignConfig:
    """Setup of a suite whose only fixed parts are its config's budgets."""
    return config


_PAIR_DIMS = ("d_a", "d_b", "d_e")
_BRACKET_BUDGETS = ("bracket_budget", "bracket_tol")

# suite -> (setup, draw, dims keys, budgets keys): setup(config) builds the campaign's
# fixed parts once and draw(fixed, gen, trial) returns the trial's rows; a suite without
# a draw is a closed-form grid whose setup yields the rows themselves.  The keys are the
# ones the suite reads besides verdict_tol; `run_suite` rejects any other.
_SUITES = {
    "lemma4": (_lemma4_setup, _lemma4_draw, (), ("lemma4_energy",)),
    "prop2": (_prop2_setup, _joint_variation, _PAIR_DIMS, _BRACKET_BUDGETS),
    "prop3": (_prop3_setup, _prop3_draw, _PAIR_DIMS, ()),
    "prop4": (_prop4_setup, _prop4_draw, _PAIR_DIMS + ("n",), _BRACKET_BUDGETS),
    "prop5": (_prop5_setup, _prop5_draw, ("d_b", "d_e"), _BRACKET_BUDGETS),
    "prop6": (_prop6_setup, _joint_variation, _PAIR_DIMS + ("ensemble_size",), _BRACKET_BUDGETS),
    "prop7": (_prop7_setup, _prop7_draw, ("d_b", "d_e", "ensemble_size"), ()),
    "prop8": (_prop8_setup, _prop8_draw, ("d_b", "d_e", "ensemble_size"), _BRACKET_BUDGETS + ("p_r",)),
    "thm1": (_thm1_grid, None, ("d_grid", "x_grid"), ()),
    "thm2": (_thm2_grid, None, ("e_grid", "x_grid", "r_grid"), ()),
    "identities": (_identities_setup, _identities_draw, (), ("identity_tol", "chain_tol", "truncation_energy")),
    "metrics": (_config_only, _metrics_draw, (), ("identity_tol", "brute_samples") + _BRACKET_BUDGETS),
}
SUITE_NAMES = tuple(_SUITES)
