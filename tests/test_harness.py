import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chanbound.energy import EnergyCap, Hamiltonian, OscillatorSpec, mix_to_cap
from chanbound.entropic import Ensemble
from chanbound.harness import suites
from chanbound.harness.cli import main as cli_main
from chanbound.harness.generators import Generators
from chanbound.harness.report import emit_report, load_report
from chanbound.harness.suites import CampaignConfig, config_from_dict, parse_energy, run_suite
from chanbound.harness.sweeps import sweep_tightness
from chanbound.harness.verdict import (
    CSV_HEADER,
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    BoundVerdict,
    classify,
    exit_code,
    summarize,
)
from chanbound.qstate import DensityMatrix, QStateError, SystemLayout


class TestGenerators:
    def test_density_invariants(self, gen):
        lay = SystemLayout([("A", 4)])
        rho = gen.density(lay)
        w = np.linalg.eigvalsh(rho.entries)
        assert abs(w.sum() - 1) < 1e-10 and w.min() > -1e-12

    def test_seed_determinism(self):
        a = Generators.for_trial(7, 3).density(SystemLayout([("A", 3)]))
        b = Generators.for_trial(7, 3).density(SystemLayout([("A", 3)]))
        assert np.array_equal(a.entries, b.entries)

    def test_trials_get_distinct_streams(self):
        a = Generators.for_trial(7, 0).density(SystemLayout([("A", 3)]))
        b = Generators.for_trial(7, 1).density(SystemLayout([("A", 3)]))
        assert not np.allclose(a.entries, b.entries)

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 17, 64])
    def test_pure_projector_built_hermitian_matches_checked_path(self, d, monkeypatch):
        """|v><v| is symmetrised where it is built: construction copies it, and its bytes
        are the checked path's result on the raw outer product, signed zeros included."""
        lay = SystemLayout([("A", d)])
        states = [Generators(seed).pure(lay) for seed in range(8)]
        want = [DensityMatrix(lay, np.outer(psi.amplitudes, psi.amplitudes.conj())).entries.tobytes()
                for psi in states]

        import chanbound.qstate as qstate

        symmetrize, copied = qstate._check_and_symmetrize, []
        monkeypatch.setattr(qstate, "_check_and_symmetrize",
                            lambda a, what: copied.append(not (a - a.conj().T).any()) or symmetrize(a, what))
        assert [psi.to_density().entries.tobytes() for psi in states] == want
        assert copied == [True] * len(states)

    def test_probabilities_normalized(self, gen):
        p = gen.probabilities(6)
        assert abs(p.sum() - 1) < 1e-12 and p.min() >= 0

    def test_energy_feasible_density(self, gen):
        h = Hamiltonian(np.arange(4.0))
        lay = SystemLayout([("A", 4), ("B", 2)])
        for _ in range(20):
            rho = gen.energy_feasible_density(lay, "A", h, 0.9)
            from chanbound.qstate import partial_trace

            e = float(np.real(np.trace(h.to_matrix() @ partial_trace(rho, ("A",)).entries)))
            assert e <= 0.9 + 1e-10

    def test_energy_feasible_pure(self, gen):
        h = Hamiltonian(np.arange(4.0))
        lay = SystemLayout([("A", 4), ("B", 2)])
        for _ in range(20):
            psi = gen.energy_feasible_pure(lay, "A", h, 0.9)
            from chanbound.qstate import partial_trace

            e = float(np.real(np.trace(h.to_matrix() @ psi.marginal(("A",)).entries)))
            assert e <= 0.9 + 1e-9


# the benchmark's prop3 / prop7 configuration: oscillator input at truncation 40
OSC40 = {"energy": {"kind": "oscillator", "modes": 1, "frequencies": [1.0], "truncation": 40, "E": 1.5},
         "dims": {"d_b": 8, "d_e": 5}}


def _mixed_ensemble(ens: Ensemble, cap: EnergyCap) -> Ensemble:
    """An ensemble under the cap as it was mixed after validation: every member with
    the weight of the validated members' average."""
    t = cap.weight(ens.average_entries())
    if t == 0.0:
        return ens
    return Ensemble([(p, DensityMatrix(ens.layout, (1.0 - t) * rho.entries + t * cap.ground_state))
                     for p, rho in ens.items])


class TestCappedDraws:
    """A capped draw is mixed as a raw array and validated once, after the mix."""

    @pytest.mark.parametrize("suite, trial, states", [("prop3", 0, 2), ("prop7", 0, 6), ("prop7", 1, 6)])
    def test_one_validation_per_state_used(self, suite, trial, states, monkeypatch):
        setup, draw = suites._SUITES[suite][:2]
        fixed = setup(CampaignConfig(suite=suite, trials=1, seed=7, **OSC40))
        built = []
        post_init = DensityMatrix.__post_init__

        def counted(rho):
            built.append(rho.layout)
            post_init(rho)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        rows = draw(fixed, Generators.for_trial(7, trial), trial)
        assert [name for name, *_ in rows] == [suite]
        # a Wishart draw on 40 oscillator levels is far above E = 1.5, so every input was mixed
        assert built.count(fixed.cap.layout) == states

    def test_nan_draw_rejected_after_the_mix(self, monkeypatch):
        lay = SystemLayout([("A", 4), ("B", 2)])
        cap = EnergyCap(Hamiltonian(np.arange(4.0)), 0.9, lay)
        gen = Generators(3)
        gaussian = gen._gaussian

        def poisoned(shape):
            g = gaussian(shape)
            g.flat[1] = np.nan
            return g

        monkeypatch.setattr(gen, "_gaussian", poisoned)
        for draw in (lambda: gen.density(lay, cap), lambda: gen.ensemble(lay, 3, cap), lambda: gen.pure(lay, cap)):
            with pytest.raises(QStateError), np.errstate(invalid="ignore"):
                draw()

    @pytest.mark.parametrize("factors", [[("A", 4), ("C", 2), ("D", 2)], [("A", 40)], [("A", 40), ("C", 2), ("D", 2)]],
                             ids=["d16", "d40", "d160"])
    def test_capped_draws_match_mixing_the_validated_draw(self, factors):
        lay = SystemLayout(factors)
        cap = EnergyCap(OscillatorSpec(1, (1.0,), truncation=lay.dims[0]).to_hamiltonian(), 1.5, lay)
        for seed in range(6):
            new, old = Generators(seed), Generators(seed)
            rho, want = new.density(lay, cap), mix_to_cap(old.density(lay), cap)
            assert rho.entries.tobytes() == want.entries.tobytes()
            psi, want_psi = new.pure(lay, cap), mix_to_cap(old.pure(lay), cap)
            assert psi.amplitudes.tobytes() == want_psi.amplitudes.tobytes()
            if len(factors) == 1:
                ens, want_ens = new.ensemble(lay, 3, cap), _mixed_ensemble(old.ensemble(lay, 3), cap)
                assert [p for p, _ in ens.items] == [p for p, _ in want_ens.items]
                assert [s.entries.tobytes() for s in ens.states] == [s.entries.tobytes() for s in want_ens.states]

    def test_inexact_wishart_draw_moves_by_rounding_only(self):
        # at d = 6 G G* is not exactly Hermitian, so the weight taken before
        # validation sees the raw draw, not its symmetrisation
        lay = SystemLayout([("A", 6)])
        cap = EnergyCap(OscillatorSpec(1, (1.0,), truncation=6).to_hamiltonian(), 1.5, lay)
        for seed in range(20):
            rho, want = Generators(seed).density(lay, cap), mix_to_cap(Generators(seed).density(lay), cap)
            assert np.max(np.abs(rho.entries - want.entries)) <= 1e-16
            ens = Generators(seed).ensemble(lay, 3, cap)
            want_ens = _mixed_ensemble(Generators(seed).ensemble(lay, 3), cap)
            for got, ref in zip(ens.states, want_ens.states):
                assert np.max(np.abs(got.entries - ref.entries)) <= 1e-16


class TestVerdictLogic:
    def test_classify_three_way(self):
        assert classify(1.0, 1.5, 2.0) == PASS
        assert classify(1.7, 1.5, 2.0) == INCONCLUSIVE
        assert classify(2.5, 1.5, 2.0) == VIOLATION

    def test_exact_epsilon_never_inconclusive(self):
        v = BoundVerdict("s", 0, "b", lhs=1.0, eps_lo=0.3, eps_hi=0.3, rhs_lo=0.9, rhs_hi=0.9,
                         outcome=classify(1.0, 0.9, 0.9))
        assert v.outcome == VIOLATION
        v2 = BoundVerdict("s", 0, "b", lhs=0.8, eps_lo=0.3, eps_hi=0.3, rhs_lo=0.9, rhs_hi=0.9,
                          outcome=classify(0.8, 0.9, 0.9))
        assert v2.outcome == PASS

    def test_summarize_and_exit_codes(self):
        mk = lambda o: BoundVerdict("s", 0, "b", 0, 0, 0, 1, 1, o)
        all_pass = summarize([mk(PASS), mk(PASS)])
        assert exit_code(all_pass) == 0
        some_inc = summarize([mk(PASS), mk(INCONCLUSIVE)])
        assert exit_code(some_inc) == 2
        any_vio = summarize([mk(VIOLATION), mk(INCONCLUSIVE)])
        assert exit_code(any_vio) == 1


class TestConfig:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(suite="nope", trials=1)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"suite": "thm1", "bogus": 1})

    def test_energy_parsing(self):
        spec, e = parse_energy({"kind": "oscillator", "modes": 1, "frequencies": [2.0], "E": 4.0})
        assert spec.ground_energy == 1.0 and e == 4.0
        ham, e2 = parse_energy({"kind": "spectrum", "eigenvalues": [0, 1], "E": 0.5})
        assert ham.dim == 2 and e2 == 0.5

    @pytest.mark.parametrize("suite,doc,key", [
        ("prop5", {"kind": "oscillator", "truncaton": 6, "E": 1.2}, "truncaton"),
        ("prop5", {"truncaton": 6, "E": 1.2}, "truncaton"),  # kind defaults to oscillator
        ("prop7", {"kind": "spectrum", "eigenvalues": [0, 1], "truncation": 6, "E": 0.5}, "truncation"),
    ])
    def test_unknown_energy_keys_rejected(self, suite, doc, key):
        with pytest.raises(ValueError, match=key):
            parse_energy(doc)
        with pytest.raises(ValueError, match=key):
            run_suite(CampaignConfig(suite=suite, trials=1, energy=doc))


    @pytest.mark.parametrize("suite,part,doc,key", [
        ("thm1", "dims", {"d_gird": [2]}, "d_gird"),
        ("thm1", "budgets", {"verdict_tolerance": 1.0}, "verdict_tolerance"),
        ("prop5", "dims", {"d_a": 3}, "d_a"),  # the input dimension comes from the truncation
        ("metrics", "budgets", {"p_r": 0.5}, "p_r"),
    ])
    def test_unknown_dims_and_budgets_keys_rejected(self, suite, part, doc, key):
        with pytest.raises(ValueError, match=key):
            run_suite(CampaignConfig(suite=suite, trials=1, **{part: doc}))

    def test_benchmark_overrides_accepted(self):
        osc40 = {"kind": "oscillator", "modes": 1, "frequencies": [1.0], "truncation": 40, "E": 1.5}
        for suite in ("prop3", "prop7"):
            rep = run_suite(CampaignConfig(suite=suite, trials=1, seed=7, energy=osc40,
                                           dims={"d_b": 8, "d_e": 5}, budgets={"verdict_tol": 1e-9}))
            assert rep.summary["pass"] == rep.summary["total"] == 1


class TestConfigIntegers:
    """Counts, seeds and dimensions in a campaign config go through `bounds.check_integer`."""

    @pytest.mark.parametrize("doc, message", [
        ({"suite": "prop2", "trials": 2.5}, "trials = 2.5 must be an integer"),
        ({"suite": "prop2", "trials": 1, "seed": 7.5}, "seed = 7.5 must be an integer"),
        ({"suite": "prop2", "trials": 1, "dims": {"d_a": 2.5}}, "d_a = 2.5 must be an integer"),
        ({"suite": "prop2", "trials": 1, "dims": {"d_e": 1.5}}, "d_e = 1.5 must be an integer"),
        ({"suite": "prop4", "trials": 1, "dims": {"n": 1.5}}, "n = 1.5 must be an integer"),
        ({"suite": "prop6", "trials": 1, "dims": {"ensemble_size": 2.7}}, "ensemble_size = 2.7 must be an integer"),
        ({"suite": "prop7", "trials": 1, "dims": {"ensemble_size": 2.7}}, "ensemble_size = 2.7 must be an integer"),
        ({"suite": "thm1", "dims": {"d_grid": [4, 2.5]}}, "d_grid = 2.5 must be an integer"),
        ({"suite": "prop5", "trials": 1, "energy": {"E": 1.2, "truncation": 6.5}}, "truncation = 6.5 must be an integer"),
        ({"suite": "prop5", "trials": 1, "energy": {"E": 1.2, "modes": 1.5}}, "modes = 1.5 must be an integer"),
    ])
    def test_fractional_values_rejected(self, doc, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_suite(config_from_dict(doc))

    def test_integral_floats_run_as_integers(self):
        as_ints = run_suite(config_from_dict({"suite": "prop4", "trials": 2, "seed": 3, "dims": {"n": 2}}))
        as_floats = run_suite(config_from_dict({"suite": "prop4", "trials": 2.0, "seed": 3.0, "dims": {"n": 2.0}}))
        assert as_floats.verdicts == as_ints.verdicts
        assert {v.bound_name for v in as_ints.verdicts} == {"prop4_n2"}

    def test_verify_rejects_fractional_trials(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "prop2", "trials": 2.5}))
        with pytest.raises(ValueError, match="^trials = 2.5 must be an integer$"):
            cli_main(["verify", "--config", str(cfg)])


class TestReports:
    def _small_report(self):
        return run_suite(CampaignConfig(suite="thm1", trials=1, seed=7,
                                        dims={"d_grid": [2, 3], "x_grid": [0.01]}))

    def test_json_round_trip(self, tmp_path):
        rep = self._small_report()
        path = tmp_path / "rep.json"
        emit_report(rep, "json", path)
        back = load_report(path)
        assert back.summary == rep.summary
        assert len(back.verdicts) == len(rep.verdicts)
        assert back.verdicts[0].lhs == rep.verdicts[0].lhs

    def test_csv_fixed_header_and_determinism(self, tmp_path):
        rep = self._small_report()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(rep, "csv", p1)
        rep2 = run_suite(config_from_dict(rep.config))
        emit_report(rep2, "csv", p2)
        t1, t2 = p1.read_bytes(), p2.read_bytes()
        assert t1 == t2
        assert t1.decode().splitlines()[0] == CSV_HEADER

    def test_empty_report_rejected(self, tmp_path):
        rep = self._small_report()
        empty = type(rep)(suite=rep.suite, seed=rep.seed, config=rep.config,
                          verdicts=(), summary=summarize([]))
        with pytest.raises(ValueError):
            emit_report(empty, "json", tmp_path / "x.json")

    def test_unwritable_path_reported(self):
        rep = self._small_report()
        with pytest.raises(OSError):
            emit_report(rep, "json", "/nonexistent-dir/report.json")


class TestSweeps:
    def test_erasure_dim_rows(self):
        rows = sweep_tightness("erasure_dim", {"log_d": [5.0, 50.0], "x": [1e-3], "capacities": ["q"]})
        assert len(rows) == 2
        assert rows[0].ratio < rows[1].ratio  # tightens with dimension
        for r in rows:
            assert r.delta <= r.bound + 1e-12

    def test_x_zero_gives_zero_ratio(self):
        rows = sweep_tightness("erasure_dim", {"log_d": [10.0], "x": [0.0], "capacities": ["chi"]})
        assert rows[0].delta == 0.0 and rows[0].ratio == 0.0

    def test_erasure_energy_rows(self):
        grid = {
            "oscillator": {"modes": 1, "frequencies": [1.0], "truncation": 40},
            "E": [2.0, 5.0], "x": [0.01], "capacities": ["q"],
        }
        rows = sweep_tightness("erasure_energy", grid)
        assert len(rows) == 2
        assert all(row.delta <= row.bound + 1e-12 for row in rows)
        assert rows[0].ratio < rows[1].ratio  # tight for large E

    @pytest.mark.parametrize("family,grid,key", [
        ("erasure_dim", {"xs": [0.3]}, "xs"),
        ("erasure_energy", {"E": [2.0], "log_d": [5.0]}, "log_d"),
    ])
    def test_unknown_grid_keys_rejected(self, family, grid, key):
        with pytest.raises(ValueError, match=key):
            sweep_tightness(family, grid)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            sweep_tightness("bogus", {})

    @pytest.mark.parametrize("log_d", [math.nan, -3.0, math.inf])
    def test_bad_log_dimension_raises(self, log_d):
        with pytest.raises(ValueError, match="log_d_a"):
            sweep_tightness("erasure_dim", {"log_d": [log_d]})

    @pytest.mark.parametrize("d, message", [
        (0, "d = 0 must be >= 1"),
        (-2, "d = -2 must be >= 1"),
        (math.nan, "d = nan must be >= 1"),
        (2.5, "d = 2.5 must be an integer"),
        (math.inf, "d = inf must be an integer"),
    ])
    def test_bad_dimension_grid_names_d(self, d, message):
        with pytest.raises(ValueError) as exc:
            sweep_tightness("erasure_dim", {"d": [4, d]})
        assert str(exc.value) == message

    def test_integral_dimension_grid_is_log_d(self):
        by_d = sweep_tightness("erasure_dim", {"d": [3, 8.0, 10**400], "capacities": ["q"]})
        by_log = sweep_tightness("erasure_dim", {"log_d": [math.log(3), math.log(8), math.log(10**400)],
                                                 "capacities": ["q"]})
        assert by_d == by_log


class TestSuiteReproducibility:
    def test_same_seed_same_verdicts(self):
        cfg = {"suite": "lemma4", "trials": 8, "seed": 11}
        r1 = run_suite(config_from_dict(cfg))
        r2 = run_suite(config_from_dict(cfg))
        for a, b in zip(r1.verdicts, r2.verdicts):
            assert a.lhs == b.lhs and a.rhs_hi == b.rhs_hi and a.outcome == b.outcome

    def test_exact_suites_never_inconclusive(self):
        rep = run_suite(CampaignConfig(suite="lemma4", trials=12, seed=3))
        assert all(v.outcome in (PASS, VIOLATION) for v in rep.verdicts)
        rep2 = run_suite(CampaignConfig(suite="prop3", trials=4, seed=3))
        assert all(v.outcome in (PASS, VIOLATION) for v in rep2.verdicts)


@pytest.mark.parametrize("suite,trials", [("prop2", 3), ("prop6", 3), ("prop7", 4), ("prop5", 2), ("prop8", 1)])
def test_suite_smoke(suite, trials, tmp_path):
    reports = []
    for k in range(2):
        rep = run_suite(CampaignConfig(suite=suite, trials=trials, seed=7))
        assert all(v.outcome != VIOLATION for v in rep.verdicts)
        assert all(v.eps_lo <= v.eps_hi for v in rep.verdicts)
        emit_report(rep, "csv", tmp_path / f"{k}.csv")
        reports.append((tmp_path / f"{k}.csv").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("suite,trials", [("prop5", 6), ("prop8", 8)])
def test_energy_constrained_brackets_converge(suite, trials):
    # every energy-constrained Bures bracket of the default campaigns closes to bracket_tol
    rep = run_suite(CampaignConfig(suite=suite, trials=trials, seed=7))
    bracketed = [v for v in rep.verdicts if "converged" in v.certificates]
    assert len(bracketed) == trials
    assert all(v.certificates["converged"] is True for v in bracketed)


@pytest.mark.parametrize("suite,trials", [("prop2", 3), ("prop4", 1), ("prop5", 1), ("prop6", 3), ("prop8", 1)])
def test_bracketed_rows_share_certificate_keys(suite, trials):
    # every row whose epsilon is a Bures bracket records the same bracket certificate
    rep = run_suite(CampaignConfig(suite=suite, trials=trials, seed=7))
    bracketed = [v for v in rep.verdicts if "bracket" in v.certificates["epsilon_kind"]]
    assert bracketed
    for v in bracketed:
        certs = v.certificates
        assert {"epsilon_kind", "beta_lower", "beta_upper", "width", "converged"} <= set(certs)
        assert certs["width"] == certs["beta_upper"] - certs["beta_lower"]
        assert v.eps_hi - v.eps_lo == pytest.approx(certs["width"], abs=1e-15)


@pytest.mark.parametrize("truncation,dims,warned", [
    (6, {}, True),  # default config: Gibbs weight 7.9e-3 on the top level at E = 1.2
    (30, {"d_b": 6, "d_e": 5}, False),  # a 30-level input needs d_b * d_e >= 30
])
def test_prop5_tail_warned_certificate(truncation, dims, warned):
    energy = {"kind": "oscillator", "modes": 1, "frequencies": [1.0], "truncation": truncation, "E": 1.2}
    rep = run_suite(CampaignConfig(suite="prop5", trials=1, seed=7, energy=energy, dims=dims))
    (row,) = rep.verdicts
    assert row.certificates["tail_warned"] is warned
    assert row.certificates["converged"] is True


# Trial counts of the committed seed-7 reports; thm1 and thm2 run their default grids.
GOLDEN_TRIALS = {
    "lemma4": 8, "identities": 4, "prop3": 4, "prop7": 4, "prop2": 3, "prop6": 3,
    "prop4": 2, "prop5": 2, "prop8": 2, "thm1": 1, "thm2": 1, "metrics": 6,
}


def test_golden_reports(tmp_path):
    """Every suite reproduces its committed seed-7 report.

    Names and outcomes must match exactly and floats to 1e-9 max(1, |x|),
    which absorbs rounding differences between CPUs but not a change in
    draw order.  Regenerate one with
    `chanbound verify --suite S --trials N --seed 7 --out tests/golden/S.csv`.
    """
    golden_dir = Path(__file__).parent / "golden"
    for suite, trials in GOLDEN_TRIALS.items():
        out = tmp_path / f"{suite}.csv"
        emit_report(run_suite(CampaignConfig(suite=suite, trials=trials, seed=7)), "csv", out)
        with open(golden_dir / f"{suite}.csv", newline="") as fh:
            want = list(csv.DictReader(fh))
        with open(out, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == len(want), suite
        for g_row, w_row in zip(got, want):
            for key in ("suite", "trial", "bound_name", "outcome"):
                assert g_row[key] == w_row[key], (suite, w_row["trial"], key)
            for key in ("lhs", "eps_lo", "eps_hi", "rhs_lo", "rhs_hi"):
                x, y = float(g_row[key]), float(w_row[key])
                where = (suite, w_row["trial"], w_row["bound_name"], key)
                assert x == y or abs(x - y) <= 1e-9 * max(1.0, abs(y)), where


class TestCLI:
    def test_verify_and_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = cli_main([
            "verify", "--suite", "thm1", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        code2 = cli_main(["report", "--in", str(out), "--summary"])
        assert code2 == 0
        text = capsys.readouterr().out
        assert "violation=0" in text

    def test_verify_csv_output(self, tmp_path):
        out = tmp_path / "rep.csv"
        code = cli_main([
            "verify", "--suite", "lemma4", "--trials", "4", "--seed", "7",
            "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"suite": "lemma4", "trials": 99, "seed": 1}))
        code = cli_main(["verify", "--config", str(cfg), "--trials", "4"])
        assert code == 0
        assert "total=7" in capsys.readouterr().out  # 4 trials -> 7 verdicts

    def test_eval_bound_value(self, capsys):
        code = cli_main(["eval", "--bound", "thm1_q", "--params", "eps=0.05,d_a=1024"])
        assert code == 0
        val = float(capsys.readouterr().out.strip())
        oracle = 2 * 0.05 * (math.log(1024) + math.log(2)) + (
            1.05 * math.log(1.05) - 0.05 * math.log(0.05)
        )
        assert abs(val - oracle) < 1e-12

    def test_eval_units_bits(self, capsys):
        cli_main(["eval", "--bound", "thm1_q", "--params", "eps=0.05,d_a=1024"])
        nats = float(capsys.readouterr().out.strip())
        cli_main(["eval", "--bound", "thm1_q", "--params", "eps=0.05,d_a=1024", "--units", "bits"])
        bits = float(capsys.readouterr().out.strip())
        assert abs(bits - nats / math.log(2)) < 1e-12

    def test_eval_missing_param_errors(self, capsys):
        code = cli_main(["eval", "--bound", "thm1_q", "--params", "eps=0.05"])
        assert code == 1

    @pytest.mark.parametrize("bound, params", [("prop2", "d_a=2"), ("t_st", "E=1.2")])
    def test_eval_missing_epsilon_errors(self, capsys, bound, params):
        # a bound without eps is not evaluated at eps = 0
        assert cli_main(["eval", "--bound", bound, "--params", params]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "missing parameter" in captured.err

    @pytest.mark.parametrize("bound, params", [
        ("prop2", "eps=nan,d_a=2"),
        ("t_st", "eps=nan,E=1.2"),
        ("prop6", "eps=inf,d_a=2"),
    ])
    def test_eval_non_finite_epsilon_errors(self, capsys, bound, params):
        assert cli_main(["eval", "--bound", bound, "--params", params]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "epsilon" in captured.err

    @pytest.mark.parametrize("bound, params", [
        ("p_r", "eps=0.1,E=nan"),
        ("lemma4_energy", "eps=0.1,E=nan"),
        ("prop3", "eps=0.1,E_bar=nan"),
        ("prop5", "eps=0.1,E=nan,r=0.5"),
        ("t_st", "eps=0.1,E=nan"),
        ("prop8", "eps=0.1,E=inf"),
        ("p_r", "eps=0.1,E=1.2,hbar=inf"),
        ("p_r", "eps=0.1,E=1.2,omega=nan"),
    ])
    def test_eval_non_finite_oscillator_input_errors(self, capsys, bound, params):
        assert cli_main(["eval", "--bound", bound, "--params", params]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("bound, params", [
        ("p_r", "eps=0,E=nan"),
        ("prop3", "eps=0,E_bar=nan"),
        ("lemma4_energy", "eps=0,E=nan"),
        ("lemma4_pure", "eps=0,E=inf"),
    ])
    def test_eval_non_finite_energy_errors_at_zero_epsilon(self, capsys, bound, params):
        # the eps = 0 shortcut comes after the energy check, with the eps > 0 message
        assert cli_main(["eval", "--bound", bound, "--params", params]) == 1
        zero = capsys.readouterr()
        assert cli_main(["eval", "--bound", bound, "--params", params.replace("eps=0", "eps=0.1")]) == 1
        assert zero.out == "" and "must be finite" in zero.err
        assert zero.err == capsys.readouterr().err

    @pytest.mark.parametrize("bound, params, message", [
        ("prop5", "eps=0.1,E=1.2,n=-1", "n = -1 must be >= 1"),
        ("prop5", "eps=0.1,E=1.2,n=0", "n = 0 must be >= 1"),
        ("thm1_q", "eps=0.1,log_d_a=nan", "log_d_a = nan must be finite and >= 0"),
        ("thm1_q", "eps=0.1,log_d_a=inf", "log_d_a = inf must be finite and >= 0"),
        ("thm1_q", "eps=0.1,log_d_a=-5", "log_d_a = -5.0 must be finite and >= 0"),
        ("thm1_q", "eps=0.1,d_a=0", "d_a = 0 must be >= 1"),
        ("prop2", "eps=0.1,d_a=0", "d_a = 0 must be >= 1"),
        ("prop4", "eps=0.1,d_a=-2", "d_a = -2 must be >= 1"),
        ("prop6", "eps=0,d_a=0", "d_a = 0 must be >= 1"),
        ("thm1_q", "eps=0.1,d_a=inf", "cannot convert float infinity to integer"),
        ("prop4", "eps=0.1,d_a=2,n=-inf", "cannot convert float infinity to integer"),
    ])
    def test_eval_bad_copies_or_dimension_errors(self, capsys, bound, params, message):
        assert cli_main(["eval", "--bound", bound, "--params", params]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("bound, params, message", [
        ("prop4", "eps=0.1,d_a=2,n=2.5", "n = 2.5 must be an integer"),
        ("prop4", "eps=0.1,d_a=2.9", "d_a = 2.9 must be an integer"),
        ("prop2", "eps=0.1,d_a=1.5", "d_a = 1.5 must be an integer"),
        ("prop6", "eps=0,d_a=3.25", "d_a = 3.25 must be an integer"),
        ("thm1_q", "eps=0.1,d_a=2.5", "d_a = 2.5 must be an integer"),
        ("lemma4_finite", "eps=0.1,d=3.5", "d = 3.5 must be an integer"),
        ("prop5", "eps=0.1,E=1.2,n=1.5", "n = 1.5 must be an integer"),
        ("prop5", "eps=0.1,E=1.2,t=0.5", "t = 0.5 must be an integer"),
        ("t_st", "eps=0.1,E=1.2,t=0.5", "t = 0.5 must be an integer"),
        ("t_st", "eps=0.1,E=1.2,d_cap=999.5", "d_cap = 999.5 must be an integer"),
        ("t_st", "eps=0.1,E=1.2,truncation=6.5", "truncation = 6.5 must be an integer"),
        ("p_r", "eps=0.1,E=1.2,modes=1.5", "modes = 1.5 must be an integer"),
    ])
    def test_eval_non_integral_parameter_errors(self, capsys, bound, params, message):
        assert cli_main(["eval", "--bound", bound, "--params", params]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_eval_integral_float_parameter_is_the_integer(self, capsys):
        assert cli_main(["eval", "--bound", "prop4", "--params", "eps=0.1,d_a=2.0,n=2.0"]) == 0
        as_float = capsys.readouterr().out
        assert cli_main(["eval", "--bound", "prop4", "--params", "eps=0.1,d_a=2,n=2"]) == 0
        assert as_float == capsys.readouterr().out

    def test_sweep_writes_csv(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"log_d": [10.0], "x": [1e-3]}))
        out = tmp_path / "rows.csv"
        code = cli_main(["sweep", "--family", "erasure_dim", "--grid", str(grid), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("family,capacity,")
        assert len(lines) == 6  # header + 5 capacities

    def test_package_imports_no_scipy(self):
        """A fresh interpreter loads the whole harness without any scipy module."""
        import chanbound

        src = str(Path(chanbound.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, chanbound.harness.suites; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_entry_point_runs(self):
        # erasure_gap is the one bound that takes no eps
        proc = subprocess.run(
            [sys.executable, "-m", "chanbound", "eval", "--bound", "erasure_gap", "--params", "x=0.05"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert abs(float(proc.stdout.strip()) - math.sqrt(2 - math.sqrt(0.9) - math.sqrt(1.1))) < 1e-12
