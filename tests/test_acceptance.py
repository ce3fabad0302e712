"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance below is pinned; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np

from chanbound.bounds import (
    lemma4_bound,
    p_r,
    prop2_bound,
    prop3_bound,
    prop4_bound,
    prop6_bound,
    prop7_bound,
    prop8_bound,
    t_st,
    theorem1_bound,
    theorem2_bound,
)
from chanbound.channels import ErasureSpec, erasure_channel, random_channel
from chanbound.energy import (
    EnergyCap,
    Hamiltonian,
    OscillatorSpec,
    gamma,
    mix_to_cap,
    oscillator_f,
    truncate_pure_state,
)
from chanbound.entropic import Ensemble, g, holevo_quantity, mutual_information, qc_state
from chanbound.harness.generators import Generators
from chanbound.harness.suites import CampaignConfig, run_suite
from chanbound.harness.sweeps import sweep_tightness
from chanbound.metrics import (
    bures_sup_bruteforce,
    channel_bures_bracket,
    diamond_bracket,
    ensemble_d0,
    ensemble_dk,
)
from chanbound.qstate import (
    HermitianOperator,
    SystemLayout,
    jordan_parts,
    operator_norm,
    partial_trace,
    partial_trace_hermitian,
    trace_norm,
)

LOG2 = math.log(2.0)


def g_oracle(x):
    return 0.0 if x <= 0 else (x + 1.0) * math.log(x + 1.0) - x * math.log(x)


def eta_oracle(x):
    return 0.0 if x <= 0 else -x * math.log(x)


def test_criterion_01_lemma4_suite():
    t0 = time.time()
    rep = run_suite(CampaignConfig(suite="lemma4", trials=1000, seed=7))
    elapsed = time.time() - t0
    names = {v.bound_name for v in rep.verdicts}
    assert rep.summary["violation"] == 0
    assert rep.summary["inconclusive"] == 0  # epsilon is exact throughout
    assert {"lemma4_finite", "lemma4_qc", "lemma4_finite_equal_bc", "lemma4_pure",
            "lemma4_energy"} <= names
    assert elapsed < 120.0
    print(f"ACCEPTANCE 01 lemma4 suite: PASS "
          f"({rep.summary['total']} verdicts, 0 violations, {elapsed:.1f}s)")


def test_criterion_02_erasure_norm_formula():
    worst = 0.0
    for d in (2, 3, 8):
        for x in (0.01, 0.05, 0.1, 0.2):
            va = erasure_channel(ErasureSpec(d, 0.5 - x)).isometry
            vb = erasure_channel(ErasureSpec(d, 0.5)).isometry
            target = math.sqrt(2 - math.sqrt(1 - 2 * x) - math.sqrt(1 + 2 * x))
            worst = max(worst, abs(operator_norm(va - vb) - target))
    assert worst <= 1e-10
    print(f"ACCEPTANCE 02 erasure norm formula: PASS (max deviation {worst:.2e})")


def test_criterion_03_theorem1_closed_forms():
    rep = run_suite(CampaignConfig(
        suite="thm1", trials=1, seed=7,
        dims={"d_grid": list(range(2, 65)), "x_grid": [0.01, 0.05]},
    ))
    assert rep.summary["violation"] == 0
    assert rep.summary["inconclusive"] == 0

    grid = {"log_d": [10.0, 25.0, 50.0, 100.0, 150.0, 200.0], "x": [1e-4], "capacities": ["q"]}
    rows = sweep_tightness("erasure_dim", grid)
    ratios = [r.ratio for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.9
    print(f"ACCEPTANCE 03 thm1 closed-form erasure verification: PASS "
          f"({rep.summary['total']} closed-form checks, q-ratio at log d=200: {ratios[-1]:.4f})")


def test_criterion_04_theorem2_energy_constrained():
    rep = run_suite(CampaignConfig(suite="thm2", trials=1, seed=7))
    assert rep.summary["violation"] == 0
    assert rep.summary["inconclusive"] == 0

    spec = OscillatorSpec(1, (1.0,), truncation=40)
    grid = {
        "oscillator": {"modes": 1, "frequencies": [1.0], "truncation": 40},
        "E": [2.0, 5.0, 10.0], "x": [0.01], "capacities": ["q"],
    }
    rows = sweep_tightness("erasure_energy", grid)  # r defaults to 1/F(E) per point
    ratios = [r.ratio for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    print(f"ACCEPTANCE 04 thm2 energy-constrained erasure: PASS "
          f"({rep.summary['total']} checks, near-optimal-r q-ratios {['%.3f' % r for r in ratios]})")


def test_criterion_05_qc_identity():
    worst = 0.0
    for trial in range(500):
        gen = Generators.for_trial(505, trial)
        d = 2 + trial % 3
        m = 2 + trial % 5
        lay = SystemLayout([("A", d)])
        ens = gen.ensemble(lay, m)
        qc = qc_state(ens, "X")
        dev = abs(holevo_quantity(ens) - mutual_information(qc, ("A",), ("X",)))
        worst = max(worst, dev)
    assert worst <= 1e-9
    print(f"ACCEPTANCE 05 qc-state identity: PASS (500 ensembles, max |chi - I| = {worst:.2e})")


def test_criterion_06_truncation_suite():
    specs = [
        ("diag8", Hamiltonian(np.arange(8.0))),
        ("oscillator8", OscillatorSpec(1, (1.0,), truncation=8).to_hamiltonian()),
    ]
    slack = {"rank": math.inf, "energy": math.inf, "distance": math.inf, "jordan": math.inf}
    count = 0
    for name, ham in specs:
        lay = SystemLayout([("A", ham.dim), ("B", 4)])
        h_bar = ham.to_matrix(shift=ham.ground_energy)
        for trial in range(250):
            gen = Generators.for_trial(606, 1000 * (name == "oscillator8") + trial)
            d_keep = 2 if trial % 2 == 0 else 4
            e_cap = ham.ground_energy + min(0.9 * gamma(ham, d_keep), 1.2)
            psi = mix_to_cap(gen.pure(lay), EnergyCap(ham, e_cap, lay))
            sig = truncate_pure_state(psi, "A", ham, e_cap, d_keep)
            rho_m, sig_m = psi.to_density(), sig.to_density()
            sig_a = partial_trace(sig_m, ("A",)).entries
            rank = int((np.linalg.eigvalsh(sig_a) > 1e-10).sum())
            assert rank <= d_keep
            slack["rank"] = min(slack["rank"], d_keep - rank)
            e_val = float(np.real(np.trace(ham.to_matrix() @ sig_a)))
            assert e_val <= e_cap + 1e-9
            slack["energy"] = min(slack["energy"], e_cap - e_val)
            e_bar = e_cap - ham.ground_energy
            dist = 0.5 * trace_norm(rho_m.entries - sig_m.entries)
            dist_cap = math.sqrt(e_bar / gamma(ham, d_keep))
            assert dist <= dist_cap + 1e-9
            slack["distance"] = min(slack["distance"], dist_cap - dist)
            diff = HermitianOperator.difference(rho_m, sig_m)
            tn = trace_norm(diff.entries)
            for part in jordan_parts(diff):
                reduced = partial_trace_hermitian(part, ("A",))
                val = tn * float(np.real(np.trace(h_bar @ reduced.entries)))
                assert val <= 2 * e_bar + 1e-9
                slack["jordan"] = min(slack["jordan"], 2 * e_bar - val)
            count += 1
    assert count == 500
    print("ACCEPTANCE 06 rank-truncation suite: PASS "
          f"(500 instances; min slack rank={slack['rank']}, energy={slack['energy']:.3e}, "
          f"distance={slack['distance']:.3e}, jordan={slack['jordan']:.3e})")


def test_criterion_07_seesaw_certification():
    n_pairs = 100
    converged = 0
    brute_dev = 0.0
    checked_brute = 0
    for k in range(n_pairs):
        phi = random_channel(2, 2, 2, seed=7000 + 2 * k)
        psi = random_channel(2, 2, 2, seed=7001 + 2 * k)
        br = channel_bures_bracket(phi, psi, seed=k)
        dia = diamond_bracket(phi, psi)
        assert 0.5 * dia.lower <= br.upper + 1e-6
        if br.width <= 1e-4:
            converged += 1
            brute = bures_sup_bruteforce(phi, psi, samples=100_000, seed=k)
            brute_dev = max(brute_dev, abs(br.midpoint - brute))
            assert brute <= br.upper + 1e-9
            checked_brute += 1
    assert converged >= 0.9 * n_pairs
    assert brute_dev <= 2e-3
    print(f"ACCEPTANCE 07 see-saw certification: PASS "
          f"({converged}/{n_pairs} brackets within 1e-4; "
          f"max |bracket - brute force| = {brute_dev:.2e} over {checked_brute} converged pairs)")


def test_criterion_08_formula_oracles():
    grid = np.linspace(0.004, 0.8, 20)
    worst = 0.0

    def check(got, oracle):
        nonlocal worst
        if oracle != 0:
            worst = max(worst, abs(got - oracle) / abs(oracle))
        assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))

    spec = OscillatorSpec(1, (1.0,), truncation=40)
    for eps in grid:
        check(lemma4_bound("finite", eps, d=4), 2 * eps * math.log(4) + 2 * g_oracle(eps))
        check(lemma4_bound("qc", eps, d=4), eps * math.log(4) + 2 * g_oracle(eps))
        root = math.sqrt(2 * eps)
        f_at = math.log((1.5 / eps + 0.5)) + 1.0
        check(lemma4_bound("energy", eps, f_handle=lambda e: oscillator_f(spec, e), energy=1.5),
              2 * root * f_at + 2 * g_oracle(root))
        check(prop2_bound(eps, 2), 2 * eps * math.log(2) + 2 * eps * LOG2 + 2 * g_oracle(eps))
        fbar = lambda e: math.log(e + 1.0) + 1.0
        check(prop3_bound(eps, fbar, 4.5), 2 * root * (math.log(4.5 / eps + 1.0) + 1.0) + 2 * g_oracle(root))
        check(prop4_bound(eps, 2, 3), 3 * (2 * eps * math.log(4.0) + g_oracle(eps)))
        check(prop6_bound(eps, 4), eps * math.log(4) + eps * LOG2 + 2 * g_oracle(eps))
        check(prop7_bound(eps, fbar, 4.5), 2 * root * (math.log(4.5 / eps + 1.0) + 1.0) + 2 * g_oracle(root))
        check(prop8_bound(eps, lambda e: 1.5 + e), 1.5 + eps + g_oracle(eps) + 2 * eps * LOG2)
        f5 = math.log(5.5) + 1.0
        check(p_r(spec, 5.0, eps, 0.3),
              2 * eps * 1.6 * f5 + 4 * (2 + 1 / 0.3) * eta_oracle(0.3 * eps)
              + 4 * g_oracle(0.3 * eps) + 6 * eps * math.exp(-1.0))
        for cap, (a, b) in {"chi": (1, 1), "c": (2, 1), "q": (2, 1), "pbar": (2, 2), "p": (4, 2)}.items():
            check(theorem1_bound(cap, eps, d_a=64), a * eps * (math.log(64) + LOG2) + b * g_oracle(eps))
            m = 2.0 if cap in ("pbar", "p") else 1.0
            t_flag = 1 if cap in ("q", "p") else 0
            t_fn = lambda t, e: (2.0 if t else 1.0) + e
            check(theorem2_bound(cap, eps, t_fn),
                  m * ((2.0 if t_flag else 1.0) + eps + g_oracle(eps) + 2 * eps * LOG2))

    # T functional: exact agreement with an independent direct scan, whose g is entropic's on every r at once
    got = t_st(0.01, 4.5, spec, s=0, t=0)
    ds, rs = [], []
    for d in range(3, 10**6 + 1):
        gam = (1.0 / math.e) * 1.0 * float(d) ** 1.0 - 1.0
        if gam <= 0 or gam < 9.0:
            continue
        ds.append(d)
        rs.append(math.sqrt(1.0 * 4.5 / gam))
    best_val, best_d = math.inf, 0
    for d, r, g_r in zip(ds, rs, g(np.array(rs)).tolist()):
        obj = (4.0 * r + 2.0 * 0.01) * math.log(d) + 4.0 * g_r
        if obj < best_val:
            best_val, best_d = obj, d
    assert got.value == best_val and got.d_star == best_d
    print(f"ACCEPTANCE 08 formula oracles: PASS "
          f"(20-point grids, worst relative error {worst:.2e}; T scan exact at d*={best_d})")


def test_criterion_09_prop4_two_copies():
    rep = run_suite(CampaignConfig(suite="prop4", trials=200, seed=7, dims={"n": 2}))
    assert rep.summary["violation"] == 0
    inc_rate = rep.summary["inconclusive"] / rep.summary["total"]
    print(f"ACCEPTANCE 09 prop4 two-copy suite: PASS "
          f"(200 triples, 0 violations, inconclusive rate {inc_rate:.1%})")


def test_criterion_10_invariant_suites():
    ident = run_suite(CampaignConfig(suite="identities", trials=60, seed=7))
    assert ident.summary["violation"] == 0
    assert ident.summary["inconclusive"] == 0
    met = run_suite(CampaignConfig(suite="metrics", trials=40, seed=7))
    assert met.summary["violation"] == 0
    assert met.summary["inconclusive"] == 0

    # D_K <= D_0 only holds with matched probability vectors (diagonal
    # coupling); the general unordered case has a frozen counterexample in
    # test_metrics, so the invariant is checked where it is a theorem
    gen = Generators(1)
    lay = SystemLayout([("A", 2)])
    ordered = 0
    for _ in range(50):
        mu = gen.ensemble(lay, 3)
        nu = Ensemble([(p, gen.density(lay)) for p, _ in mu.items])
        if ensemble_dk(mu, nu) <= ensemble_d0(mu, nu) + 1e-9:
            ordered += 1
    assert ordered == 50
    print(f"ACCEPTANCE 10 invariant suites: PASS "
          f"(identities {ident.summary['total']} checks, metrics {met.summary['total']} checks, "
          f"0 violations; D_K <= D_0 on 50/50 matched-probability pairs)")
