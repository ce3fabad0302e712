import csv
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from chanbound.energy import EnergyCap, Hamiltonian, OscillatorSpec, TruncationTailWarning, mix_to_cap
from chanbound.entropic import Ensemble
from chanbound.harness import suites
from chanbound.harness.cli import main as cli_main
from chanbound.harness.generators import Generators
from chanbound.harness.report import emit_report, load_report
from chanbound.harness.suites import CampaignConfig, config_from_dict, parse_energy, run_suite
from chanbound.harness import sweeps as sweeps_module
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
            rep = run_suite(CampaignConfig(suite=suite, trials=1, seed=7, energy=osc40, dims={"d_b": 8, "d_e": 5}))
            assert rep.summary["pass"] == rep.summary["total"] == 1


# the one budgets key a suite reads: prop8's r of P_r
_BUDGETS_READ = {"prop8": ["p_r"]}

# the solver budgets and fixed energies that were once budgets keys, on each suite that read them
_RETIRED_BUDGETS = ([(suite, key) for suite in ("prop2", "prop4", "prop5", "prop6", "prop8", "metrics")
                     for key in ("bracket_budget", "bracket_tol")]
                    + [("metrics", "brute_samples"), ("lemma4", "lemma4_energy"), ("identities", "truncation_energy")])


def _setup_must_not_run(monkeypatch, suite):
    monkeypatch.setitem(suites._SUITES, suite, (lambda config: pytest.fail("set up"),) + suites._SUITES[suite][1:])


class TestRetiredKeys:
    """The verdict's slack, the identities' tolerances, the solvers' budgets and the fixed
    energies of lemma4 and the identities are constants, not config keys: a config could set
    the slack only to fake a verdict, and no caller set the others.  thm2's energy object
    takes no E, which it never read, and prop8 takes p_r only where P_r replaces T."""

    def test_one_budgets_pair(self):
        assert {suite: sorted(row[3]) for suite, row in suites._SUITES.items() if row[3]} == _BUDGETS_READ

    @pytest.mark.parametrize("suite, key", [(suite, "verdict_tol") for suite in suites.SUITE_NAMES]
                             + [("identities", "identity_tol"), ("identities", "chain_tol"),
                                ("metrics", "identity_tol")] + _RETIRED_BUDGETS)
    def test_retired_key_rejected_by_name(self, suite, key, monkeypatch):
        # rejected before the suite is even set up
        _setup_must_not_run(monkeypatch, suite)
        message = f"{suite} takes no budgets keys ['{key}']; it reads {_BUDGETS_READ.get(suite, [])}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_suite(CampaignConfig(suite=suite, trials=1, budgets={key: -1}))

    @pytest.mark.parametrize("suite, budgets", [
        # once held to the integer rule, and integral floats ran as integers
        ("metrics", {"brute_samples": 4000.5}), ("metrics", {"bracket_budget": 2.5}),
        ("metrics", {"bracket_budget": 40.0, "brute_samples": 400.0}),
        # once held to "finite and > 0"
        ("prop4", {"bracket_tol": "x"}), ("prop4", {"bracket_tol": math.nan}),
        ("prop4", {"bracket_tol": -1}), ("prop4", {"bracket_tol": 0}),
    ])
    def test_retired_budget_rejected_through_verify(self, tmp_path, capsys, monkeypatch, suite, budgets):
        # whatever its value, a retired key is one error line naming it, before setup
        _setup_must_not_run(monkeypatch, suite)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": suite, "trials": 2, "budgets": budgets}))
        assert cli_main(["verify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {suite} takes no budgets keys {sorted(budgets)}; it reads []\n"

    def test_faked_violation_config_fails_before_any_row(self, tmp_path, capsys, monkeypatch):
        # verdict_tol = -1 once turned all 630 default thm1 rows into VIOLATIONs
        from chanbound import bounds

        monkeypatch.setattr(bounds, "erasure_family", lambda *a, **k: pytest.fail("a row was computed"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "thm1", "budgets": {"verdict_tol": -1}}))
        assert cli_main(["verify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: thm1 takes no budgets keys ['verdict_tol']; it reads []\n"

    def test_thm2_energy_names_the_oscillator_alone(self):
        grid = {"e_grid": [2.0, 5.0], "x_grid": [0.01]}
        trunc20 = run_suite(CampaignConfig(suite="thm2", dims=grid, energy={"kind": "oscillator", "truncation": 20}))
        trunc40 = run_suite(CampaignConfig(suite="thm2", dims=grid, energy={"kind": "oscillator", "truncation": 40}))
        assert trunc40.verdicts == run_suite(CampaignConfig(suite="thm2", dims=grid)).verdicts
        assert trunc20.summary["pass"] == trunc20.summary["total"] == trunc40.summary["total"] == 30
        for v20, v40 in zip(trunc20.verdicts, trunc40.verdicts):
            assert (v20.bound_name, v20.certificates["E"]) == (v40.bound_name, v40.certificates["E"])
            assert v20.certificates["M"] != v40.certificates["M"]

    @pytest.mark.parametrize("energy, message", [
        ({"kind": "oscillator", "truncation": 20, "E": 5}, "unknown oscillator energy keys: ['E']"),
        ({"E": 5}, "unknown oscillator energy keys: ['E']"),
        ({"kind": "spectrum", "eigenvalues": [0, 1, 2], "E": 1.0}, "thm2 runs on oscillator input systems"),
    ])
    def test_thm2_rejects_e_and_spectra(self, energy, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_suite(CampaignConfig(suite="thm2", energy=energy))

    @pytest.mark.parametrize("energy, p_r, message", [
        (None, 0.9, "prop8 reads budgets key 'p_r' only on oscillator input systems; a spectrum takes T"),
        ({"kind": "spectrum", "eigenvalues": [0, 1, 2], "E": 0.6}, 0.5,
         "prop8 reads budgets key 'p_r' only on oscillator input systems; a spectrum takes T"),
        ({"kind": "oscillator", "truncation": 6, "E": 1.2}, 7, "r = 7.0 outside (0, 1]"),
        ({"kind": "oscillator", "truncation": 6, "E": 1.2}, 0.0, "r = 0.0 outside (0, 1]"),
        # a Bures bracket end reaches sqrt(2), and P_r needs eps * r <= 1
        ({"kind": "oscillator", "truncation": 6, "E": 1.2}, 0.9,
         "prop8's p_r = 0.9 must be <= 1/sqrt(2): its epsilon reaches sqrt(2) and P_r needs eps * r <= 1"),
    ])
    def test_prop8_p_r_checked_at_setup(self, energy, p_r, message, monkeypatch):
        monkeypatch.setattr(suites, "channel_bures_bracket", lambda *a, **k: pytest.fail("a trial ran"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_suite(CampaignConfig(suite="prop8", trials=1, energy=energy, budgets={"p_r": p_r}))

    def test_prop8_p_r_at_its_limit_runs(self):
        # r = 1/sqrt(2) keeps eps * r <= 1 up to a bracket end of sqrt(2)
        energy = {"kind": "oscillator", "truncation": 6, "E": 1.2}
        rep = run_suite(CampaignConfig(suite="prop8", trials=20, energy=energy, budgets={"p_r": math.sqrt(0.5)}))
        assert rep.summary["pass"] == rep.summary["total"] == 20


class TestConfigIntegers:
    """Counts, seeds and dimensions in a campaign config go through `bounds.check_integer`,
    its other numbers through `bounds.check_real`, and a grid must be a nonempty list."""

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
        # values that are no number at all are named too
        ({"suite": "prop2", "trials": None}, "trials = None must be an integer"),
        ({"suite": "prop2", "dims": {"d_b": "x"}}, "d_b = x must be an integer"),
        ({"suite": "prop2", "trials": 1, "seed": "seven"}, "seed = seven must be an integer"),
        # a d_grid entry is a dimension, held to `bounds.check_dimension`
        ({"suite": "thm1", "dims": {"d_grid": [0]}}, "d_grid = 0 must be >= 1"),
        # so are real numbers and grids, which once failed with "could not convert string to float"
        ({"suite": "prop5", "trials": 1, "energy": {"E": "x"}}, "E = x must be a real number"),
        ({"suite": "prop7", "trials": 1, "energy": {"kind": "spectrum", "eigenvalues": [0, 1], "E": None}},
         "E = None must be a real number"),
        ({"suite": "prop5", "trials": 1, "energy": {"E": 1.2, "frequencies": ["x"]}},
         "frequencies = x must be a real number"),
        ({"suite": "prop7", "trials": 1, "energy": {"kind": "spectrum", "eigenvalues": [0, "x", 2], "E": 1.0}},
         "eigenvalues = x must be a real number"),
        ({"suite": "thm1", "dims": {"x_grid": ["x"]}}, "x_grid = x must be a real number"),
        ({"suite": "thm1", "dims": {"x_grid": "0.01"}}, "x_grid = 0.01 must be a list"),
        ({"suite": "thm1", "dims": {"d_grid": 4}}, "d_grid = 4 must be a list"),
        ({"suite": "thm2", "dims": {"e_grid": ["x"]}}, "e_grid = x must be a real number"),
        ({"suite": "thm2", "dims": {"r_grid": ["x"]}}, "r_grid = x must be a real number"),
        # an empty list checks nothing, so every list is rejected by name
        ({"suite": "thm1", "dims": {"x_grid": []}}, r"x_grid = \[\] must not be empty"),
        ({"suite": "thm1", "dims": {"d_grid": []}}, r"d_grid = \[\] must not be empty"),
        ({"suite": "thm2", "dims": {"x_grid": []}}, r"x_grid = \[\] must not be empty"),
        ({"suite": "thm2", "dims": {"e_grid": []}}, r"e_grid = \[\] must not be empty"),
        ({"suite": "thm2", "dims": {"r_grid": []}}, r"r_grid = \[\] must not be empty"),
        ({"suite": "prop5", "trials": 1, "energy": {"E": 1.2, "frequencies": []}},
         r"frequencies = \[\] must not be empty"),
        ({"suite": "prop7", "trials": 1, "energy": {"kind": "spectrum", "eigenvalues": [], "E": 1.0}},
         r"eigenvalues = \[\] must not be empty"),
    ])
    def test_fractional_values_rejected(self, doc, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_suite(config_from_dict(doc))

    def test_integral_floats_run_as_integers(self):
        as_ints = run_suite(config_from_dict({"suite": "prop4", "trials": 2, "seed": 3, "dims": {"n": 2}}))
        as_floats = run_suite(config_from_dict({"suite": "prop4", "trials": 2.0, "seed": 3.0, "dims": {"n": 2.0}}))
        assert as_floats.verdicts == as_ints.verdicts
        assert {v.bound_name for v in as_ints.verdicts} == {"prop4_n2"}

    def test_verify_rejects_fractional_trials(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "prop2", "trials": 2.5}))
        assert cli_main(["verify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: trials = 2.5 must be an integer\n"


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
        ("erasure_energy", {"oscillator": {"modes": 1, "truncaton": 6}}, "truncaton"),
        ("erasure_energy", {"oscillator": {"kind": "spectrum", "eigenvalues": [0, 1]}}, "eigenvalues"),
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

    def test_oscillator_grid_takes_the_config_keys(self):
        # no placeholder E; one frequency serves every mode
        by_list = sweep_tightness("erasure_energy", {"oscillator": {"modes": 2, "frequencies": [1.5, 1.5],
                                                                    "truncation": 8}, "E": [3.0]})
        by_number = sweep_tightness("erasure_energy", {"oscillator": {"modes": 2, "frequencies": 1.5,
                                                                      "truncation": 8}, "E": [3.0]})
        assert by_number == by_list and len(by_list) == 5

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


# trials of each suite that draws trials: 3 blocks all hold one, and lemma4 and metrics see their trial % k cycles
_BLOCK_TRIALS = {
    "lemma4": 8, "identities": 4, "prop3": 4, "prop7": 4, "prop2": 3, "prop6": 3,
    "prop4": 3, "prop5": 3, "prop8": 3, "metrics": 6,
}


def _force_blocks(monkeypatch, workers: int):
    monkeypatch.setattr(suites, "_workers", lambda trials: workers)


def _patch_draw(monkeypatch, suite: str, before_trial):
    """`suite`'s draw, with before_trial(trial) run ahead of each trial."""
    setup, draw, *keys = suites._SUITES[suite]

    def patched(fixed, gen, trial):
        before_trial(trial)
        return draw(fixed, gen, trial)

    monkeypatch.setitem(suites._SUITES, suite, (setup, patched, *keys))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.two_blas_threads
def test_reports_do_not_depend_on_the_block_count(monkeypatch, tmp_path):
    """A campaign cut into 1, 2 or 3 blocks of trials writes the same CSV and JSON bytes."""
    assert set(_BLOCK_TRIALS) == {name for name, row in suites._SUITES.items() if row[1] is not None}
    for suite, trials in _BLOCK_TRIALS.items():
        reports = set()
        for workers in (1, 2, 3):
            _force_blocks(monkeypatch, workers)
            rep = run_suite(CampaignConfig(suite=suite, trials=trials, seed=7))
            emit_report(rep, "csv", tmp_path / "r.csv")
            emit_report(rep, "json", tmp_path / "r.json")
            reports.add((tmp_path / "r.csv").read_bytes() + (tmp_path / "r.json").read_bytes())
        assert len(reports) == 1, suite
    _assert_no_child_left()


class TestTrialBlocks:
    def test_workers_follow_the_usable_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert [suites._workers(t) for t in (1, 15, 16, 24, 100)] == [1, 1, 2, 3, 4]
        # a fork copies only the calling thread, so a run with another thread stays serial
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert suites._workers(100) == 1
        finally:
            release.set()
            other.join()
        monkeypatch.delattr(os, "sched_getaffinity")
        assert suites._workers(100) == 1

    def test_two_cores_fork_one_child(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks = []
        fork_block = suites._fork_block
        monkeypatch.setattr(suites, "_fork_block", lambda *args: forks.append(args[1]) or fork_block(*args))
        config = CampaignConfig(suite="lemma4", trials=16, seed=7)
        forked = run_suite(config)
        assert forks == [range(8, 16)]
        _force_blocks(monkeypatch, 1)
        assert forked == run_suite(config)
        _assert_no_child_left()

    @pytest.mark.parametrize("workers, faulty", [
        (2, {5}),  # in the child's block
        (2, {1}),  # in the parent's block
        (2, {1, 6}),  # in both: the parent's block is the lowest
        (3, {3, 6}),  # in both children's blocks: the lower one's
    ])
    def test_a_raising_trial_raises_as_in_a_serial_run(self, monkeypatch, workers, faulty):
        def fault(trial):
            if trial in faulty:
                raise QStateError(f"trial {trial} is faulty")

        _patch_draw(monkeypatch, "lemma4", fault)
        config = CampaignConfig(suite="lemma4", trials=8, seed=7)
        _force_blocks(monkeypatch, 1)
        with pytest.raises(QStateError) as serial:
            run_suite(config)
        _force_blocks(monkeypatch, workers)
        with pytest.raises(QStateError) as forked:
            run_suite(config)
        assert str(forked.value) == str(serial.value) == f"trial {min(faulty)} is faulty"
        _assert_no_child_left()

    def test_a_raising_parent_block_kills_the_children(self, monkeypatch):
        def fault(trial):
            if trial == 0:
                raise QStateError("trial 0 is faulty")
            if trial == 4:
                time.sleep(120)

        _patch_draw(monkeypatch, "lemma4", fault)
        _force_blocks(monkeypatch, 2)
        t0 = time.perf_counter()
        with pytest.raises(QStateError, match="^trial 0 is faulty$"):
            run_suite(CampaignConfig(suite="lemma4", trials=8, seed=7))
        assert time.perf_counter() - t0 < 60
        _assert_no_child_left()

    def test_a_child_that_dies_is_an_error(self, monkeypatch):
        _patch_draw(monkeypatch, "lemma4", lambda trial: trial == 6 and os.kill(os.getpid(), signal.SIGKILL))
        _force_blocks(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"^the child that ran trials 4\.\.7 sent no result \(wait status 9\)$"):
            run_suite(CampaignConfig(suite="lemma4", trials=8, seed=7))
        _assert_no_child_left()

    def test_a_childs_warnings_meet_the_callers_filters(self, monkeypatch):
        def warn(trial):
            if trial >= 5:  # one line warns twice, in the child's block
                warnings.warn("a trial of the child warns", TruncationTailWarning)

        _patch_draw(monkeypatch, "lemma4", warn)
        config = CampaignConfig(suite="lemma4", trials=8, seed=7)
        _force_blocks(monkeypatch, 2)
        with pytest.warns(TruncationTailWarning, match="^a trial of the child warns$") as record:
            run_suite(config)
        assert [(w.filename, w.category) for w in record] == [(__file__, TruncationTailWarning)] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationTailWarning)
            with pytest.raises(TruncationTailWarning, match="^a trial of the child warns$"):
                run_suite(config)
        # "default" shows a warning once per location: the serial run's registry decides
        shown = []
        for workers in (1, 2):
            _force_blocks(monkeypatch, workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default", TruncationTailWarning)
                run_suite(config)
            shown.append([(str(w.message), w.lineno) for w in caught])
        assert len(shown[0]) == 1 and shown[1] == shown[0]
        _assert_no_child_left()


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


@pytest.mark.two_blas_threads
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


@pytest.mark.two_blas_threads
def test_brackets_hold_the_trivial_bounds(monkeypatch):
    """Every Bures bracket of the seed-7 campaigns of `GOLDEN_TRIALS` ends at most at sqrt(2), and every
    diamond bracket at most at 2.  The start point's zero contraction certifies sqrt(2) exactly, which
    is the upper end of the maximally distant pairs of prop5's and prop8's trial 1 (one bracket a trial)."""
    uppers = {"bures": {}, "diamond": {}}  # kind -> suite -> upper ends in draw order

    def recording(kind, solve):
        def wrapped(*args, **kwargs):
            br = solve(*args, **kwargs)
            uppers[kind].setdefault(suite, []).append(br.upper)
            return br
        return wrapped

    monkeypatch.setattr(suites, "_workers", lambda trials: 1)  # a forked trial's brackets would go unrecorded
    monkeypatch.setattr(suites, "channel_bures_bracket", recording("bures", suites.channel_bures_bracket))
    monkeypatch.setattr(suites, "diamond_bracket", recording("diamond", suites.diamond_bracket))
    for suite in ("prop2", "prop4", "prop5", "prop6", "prop8", "metrics"):
        run_suite(CampaignConfig(suite=suite, trials=GOLDEN_TRIALS[suite], seed=7))
    bures = [u for ends in uppers["bures"].values() for u in ends]
    diamond = [u for ends in uppers["diamond"].values() for u in ends]
    assert len(uppers["bures"]) == 6 and diamond
    assert all(upper <= math.sqrt(2.0) for upper in bures)
    assert all(upper <= 2.0 for upper in diamond)
    assert len(uppers["bures"]["prop5"]) == len(uppers["bures"]["prop8"]) == GOLDEN_TRIALS["prop5"] == 2
    assert uppers["bures"]["prop5"][1] == math.sqrt(2.0)
    assert uppers["bures"]["prop8"][1] == math.sqrt(2.0)


# the suites whose rows check a bound of the table; identities and metrics rows check caps
_BOUND_SUITES = ("lemma4", "prop2", "prop3", "prop4", "prop5", "prop6", "prop7", "prop8", "thm1", "thm2")


def test_every_bound_row_recomputes_from_its_bound_and_params():
    """The table at a row's `bound` and `params` gives its rhs_lo and rhs_hi bit for bit, at eps_lo and
    eps_hi, on every row of the seed-7 campaigns of `GOLDEN_TRIALS` and of both default sweeps."""
    for suite, trials in GOLDEN_TRIALS.items():
        for v in run_suite(CampaignConfig(suite=suite, trials=trials, seed=7)).verdicts:
            if suite not in _BOUND_SUITES:
                assert "bound" not in v.certificates and "params" not in v.certificates
                continue
            bound, params = v.certificates["bound"], v.certificates["params"]
            assert json.loads(json.dumps(params)) == params, (suite, v.trial)
            for eps, rhs in ((v.eps_lo, v.rhs_lo), (v.eps_hi, v.rhs_hi)):
                assert suites.bound_value(bound, {**params, "eps": eps}) == rhs, (suite, v.trial, v.bound_name)
    for family, theorem in (("erasure_dim", "thm1"), ("erasure_energy", "thm2")):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationTailWarning)
            rows = sweep_tightness(family, {})
        for row in rows:
            params = ({"log_d_a": row.value} if theorem == "thm1"
                      else {**suites.system_params(OscillatorSpec(1, (1.0,))), "E": row.value, "r": row.r})
            assert suites.bound_value(f"{theorem}_{row.capacity}", {**params, "eps": row.epsilon}) == row.bound


def test_eval_names_are_the_table_keys(capsys):
    """`eval` takes exactly the table's names, every default report's rows name one, and the
    README's `eval` paragraph lists each (a theorem's five capacities as `<cap>`)."""
    for name in suites.BOUNDS:
        assert cli_main(["eval", "--bound", name]) == 1  # no parameters: missing eps or x, never an unknown name
        assert "unknown bound" not in capsys.readouterr().err, name
    assert cli_main(["eval", "--bound", "prop5_n2_t1", "--params", "eps=0.1"]) == 1
    assert capsys.readouterr().err == "error: unknown bound 'prop5_n2_t1'\n"
    for suite in _BOUND_SUITES:
        for v in run_suite(CampaignConfig(suite=suite, trials=2, seed=7)).verdicts:
            assert v.certificates["bound"] in suites.BOUNDS, (suite, v.bound_name)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("`eval` bound names"):readme.index("### Campaign config schema")]
    for name in suites.BOUNDS:
        listed = re.sub(r"^(thm[12])_.*", r"\1_<cap>", name)
        assert f"`{listed}`" in paragraph, name


@pytest.mark.parametrize("suite, trials", [("prop8", 1), ("prop3", 2), ("lemma4", 4), ("prop5", 2)])
def test_eval_prints_a_rows_rhs_from_its_params(suite, trials, capsys):
    """A row's params, written as `eval` parameters (a list as w1:w2:...), print its rhs_lo:
    a spectrum (prop8, prop3 and lemma4's capped rows) evaluates as an oscillator does."""
    for v in run_suite(CampaignConfig(suite=suite, trials=trials, seed=7)).verdicts:
        params = {**v.certificates["params"], "eps": repr(v.eps_lo)}
        text = ",".join(f"{k}={':'.join(map(repr, x)) if isinstance(x, list) else x}" for k, x in params.items())
        assert cli_main(["eval", "--bound", v.certificates["bound"], "--params", text]) == 0
        assert float(capsys.readouterr().out) == v.rhs_lo, (suite, v.trial, text)


# (bound, params, units) of every `chanbound eval` line in README.md and the CI workflow ->
# (exit code, stdout or the stderr line) as printed before the parameters were read one by one
_DOC_EVAL_LINES = {
    ("thm1_q", "eps=0.05,d_a=1024", "nats"): (0, "0.96347818467154311\n"),
    ("p_r", "eps=0.1,E=5,r=1,l=1,omega=1.0", "bits"): (0, "8.5798191592890767\n"),
    ("prop2", "eps=1e-13,d_a=2", "nats"): (0, "6.4639801140085078e-12\n"),
    ("prop5", "eps=0.1,E=1.2,n=2", "nats"): (0, "6.0986444072175914\n"),
    ("t_st", "eps=0.1,E=1.2", "nats"): (0, "2.5755930604126447\n"),
    ("t_st", "eps=0.001,E=1.2,truncation=6", "nats"): (0, "0.14572210649755474\n"),
    ("lemma4_energy", "eps=0,E=-1", "nats"): (1, "error: energy -1.0 must be finite and >= 0\n"),
    ("p_r", "eps=0,E=nan", "nats"): (1, "error: energy nan must be finite and >= the ground energy 0.5\n"),
    ("p_r", "eps=0.1,E=5,omega=1:x", "nats"): (1, "error: omega = 1:x must be numbers separated by ':'\n"),
    ("p_r", "eps=0.1,E=nan", "nats"): (1, "error: energy nan must be finite and >= the ground energy 0.5\n"),
    ("prop2", "d_a=2", "nats"): (1, "error: missing parameter 'eps'\n"),
    ("prop3", "eps=0,E_bar=-1", "nats"): (1, "error: shifted energy -1.0 must be finite and >= 0\n"),
    ("prop3", "eps=0,E_bar=nan", "nats"): (1, "error: shifted energy nan must be finite and >= 0\n"),
    ("prop4", "eps=0.1,d_a=2,n=2.5", "nats"): (1, "error: n = 2.5 must be an integer\n"),
    ("prop5", "eps=0.1,E=1.2,n=-1", "nats"): (1, "error: n = -1 must be >= 1\n"),
    ("prop7", "eps=0.1,E_bar=-1", "nats"): (1, "error: shifted energy -1.0 must be finite and >= 0\n"),
    ("thm1_q", "eps=0.1,log_d_a=nan", "nats"): (1, "error: log_d_a = nan must be finite and >= 0\n"),
}

# (bound, params, stderr line) of calls that once printed a bound other than the one asked for, and exited 0
_MISREAD_PARAMS = [
    # a misspelt or foreign key changed nothing, and a flag was read by truthiness
    ("prop2", "eps=0.1,d_a=2,same_chanel=1",
     "prop2 reads no parameters ['same_chanel']; it reads ['d_a', 'eps', 'same_channel', 'same_state']"),
    ("prop2", "eps=0.1,d_a=2,same_channel=no", "same_channel = no must be 0 or 1"),
    ("prop2", "eps=0.1,d_a=2,same_channel=2", "same_channel = 2 must be 0 or 1"),
    ("lemma4_finite", "eps=0.1,d=4,part_c=false", "part_c = false must be 0 or 1"),
    ("thm2_q", "eps=0.1,E=5,R=0.3", "thm2_q reads no parameters ['R']; it reads "
     "['E', 'd_cap', 'eps', 'frequencies', 'hbar', 'modes', 'r', 'truncation']"),
    # P_r at r reads no d_cap and no t
    ("thm2_q", "eps=0.1,E=5,r=0.3,d_cap=5", "thm2_q reads no parameters ['d_cap']; it reads "
     "['E', 'eps', 'frequencies', 'hbar', 'modes', 'r', 'truncation']"),
    ("prop5", "eps=0.1,E=1.2,r=0.5,t=1", "prop5 reads no parameters ['t']; it reads "
     "['E', 'eps', 'frequencies', 'hbar', 'modes', 'n', 'r', 'truncation']"),
    ("thm1_q", "eps=0.05,d_a=1024,log_d_a=3", "thm1_q reads no parameters ['d_a']; it reads ['eps', 'log_d_a']"),
    ("erasure_gap", "x=0.05,eps=0.3", "erasure_gap reads no parameters ['eps']; it reads ['x']"),
    ("p_r", "eps=0.1,E=5,d_cap=3,n=7", "p_r reads no parameters ['d_cap', 'n']; it reads "
     "['E', 'eps', 'frequencies', 'hbar', 'modes', 'r', 'truncation']"),
    # the last value of a repeated key, or of eps and its alias, won
    ("prop2", "eps=0.1,eps=0.2,d_a=2", "parameter 'eps' given twice"),
    ("prop2", "eps=0.1,epsilon=0.2,d_a=2", "give one of epsilon and eps"),
    ("prop2", "epsilon=0.1,d_a=2,eps=0.2", "give one of epsilon and eps"),
]


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
        ("thm1_q", "eps=0.1,d_a=inf", "d_a = inf must be an integer"),
        ("prop4", "eps=0.1,d_a=2,n=-inf", "n = -inf must be an integer"),
        ("p_r", "eps=0.1,E=5,l=0", "modes = 0 must be >= 1"),
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

    @pytest.mark.parametrize("bound, params, message", [
        ("prop3", "eps=0,E_bar=-1", "shifted energy -1.0 must be finite and >= 0"),
        ("prop3", "eps=0.1,E_bar=-1", "shifted energy -1.0 must be finite and >= 0"),
        ("prop3", "eps=0.1,E_bar=-1,pure=1", "shifted energy -1.0 must be finite and >= 0"),
        ("lemma4_energy", "eps=0,E=-1", "energy -1.0 must be finite and >= 0"),
        ("lemma4_energy", "eps=0.1,E=-1", "energy -1.0 must be finite and >= 0"),
        ("lemma4_pure", "eps=0,E=-1", "energy -1.0 must be finite and >= 0"),
        ("lemma4_pure", "eps=0.1,E=-1", "energy -1.0 must be finite and >= 0"),
        ("prop7", "eps=0,E_bar=-1", "shifted energy -1.0 must be finite and >= 0"),
        ("prop7", "eps=0.1,E_bar=-1", "shifted energy -1.0 must be finite and >= 0"),
        ("p_r", "eps=0.1,E=5,omega=1:x", "omega = 1:x must be numbers separated by ':'"),
        ("p_r", "eps=0.1,E=5,modes=2,frequencies=1:", "frequencies = 1: must be numbers separated by ':'"),
        ("p_r", "eps=0.1,E=x", "E = x must be a real number"),
        ("p_r", "eps=0.1,E=5,hbar=x", "hbar = x must be a real number"),
    ])
    def test_eval_bad_energy_or_list_names_the_key(self, capsys, bound, params, message):
        assert cli_main(["eval", "--bound", bound, "--params", params]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_eval_oscillator_aliases_are_the_config_keys(self, capsys):
        outputs = []
        for osc in ("l=2,omega=1.5", "modes=2,frequencies=1.5", "modes=2,omega=1.5:1.5"):
            assert cli_main(["eval", "--bound", "p_r", "--params", f"eps=0.1,E=5,{osc}"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        for osc, message in (("l=2,modes=1", "give one of l and modes"),
                             ("omega=1,frequencies=2", "give one of omega and frequencies")):
            assert cli_main(["eval", "--bound", "p_r", "--params", f"eps=0.1,E=5,{osc}"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("bound, params, message", _MISREAD_PARAMS)
    def test_eval_reads_each_parameter_once_and_typed(self, capsys, bound, params, message):
        assert cli_main(["eval", "--bound", bound, "--params", params]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_eval_lines_of_the_docs_print_what_they_did(self, capsys):
        """Every other `chanbound eval` line of README.md and the CI workflow prints what it printed
        before the parameters were read one by one: the same stdout, or for a rejected call the same error."""
        root = Path(__file__).parents[1]
        lines = set()
        for doc in (root / "README.md", root / ".github" / "workflows" / "tier1.yml"):
            for m in re.finditer(r"chanbound eval +--bound (\S+) --params ([^\s;)]+)( --units (\w+))?", doc.read_text()):
                lines.add((m[1], m[2], m[4] or "nats"))
        # the rest are rejected calls that `test_eval_reads_each_parameter_once_and_typed` checks
        assert lines - {(bound, params, "nats") for bound, params, _ in _MISREAD_PARAMS} == set(_DOC_EVAL_LINES)
        for (bound, params, units), (code, text) in _DOC_EVAL_LINES.items():
            assert cli_main(["eval", "--bound", bound, "--params", params, "--units", units]) == code
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ((text, "") if code == 0 else ("", text)), (bound, params)

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

    @pytest.mark.parametrize("doc, message", [
        ({"suite": "prop2", "trials": 2.5}, "error: trials = 2.5 must be an integer"),
        ({"suite": "metrics", "budgets": {"bracket_budget": 2.5}},
         "error: metrics takes no budgets keys ['bracket_budget']; it reads []"),
        ({"suite": "thm1", "dims": {"d_gird": [2]}}, "error: thm1 takes no dims keys ['d_gird']"),
        ({"suite": "prop5", "energy": {"kind": "oscillator"}}, "error: missing config key 'E'"),
        ({"suite": "nope"}, "error: unknown suite 'nope'"),
        ({"suite": "thm1", "dims": {"d_grid": [0]}}, "error: d_grid = 0 must be >= 1"),
        (["thm1"], "error: a campaign config must be a JSON object, not list"),
        ({"suite": "thm1", "dims": {"x_grid": []}}, "error: x_grid = [] must not be empty"),
        ({"suite": "prop7", "trials": 1, "energy": {"E": 1.0, "modes": 0}}, "error: modes = 0 must be >= 1"),
    ])
    def test_rejected_config_is_one_error_line(self, tmp_path, doc, message):
        # the console script prints what eval prints for a rejected input: one line, no traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "chanbound", "verify", "--config", str(cfg)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(message), proc.stderr

    @pytest.mark.parametrize("grid, message", [
        ('{"x": [0.7]}', "error: x = 0.7 outside [0, 1/2]"),
        ('{"x": [0.01', "error: Expecting ',' delimiter"),
        ('{"d": [0]}', "error: d = 0 must be >= 1"),
        ("[]", "error: a sweep grid must be a JSON object, not list"),
    ])
    def test_rejected_sweep_grid_is_one_error_line(self, tmp_path, capsys, grid, message):
        path = tmp_path / "grid.json"
        path.write_text(grid)
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--family", "erasure_dim", "--grid", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1 and captured.err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("family, grid, message", [
        ("erasure_energy", {"E": ["x"]}, "E = x must be a real number"),
        ("erasure_energy", {"r": ["x"]}, "r = x must be a real number"),
        ("erasure_energy", {"x": ["x"]}, "x = x must be a real number"),
        ("erasure_dim", {"x": ["x"]}, "x = x must be a real number"),
        ("erasure_dim", {"log_d": ["x"]}, "log_d = x must be a real number"),
        ("erasure_dim", {"d": 4}, "d = 4 must be a list"),
        # an empty grid checks nothing
        ("erasure_dim", {"d": []}, "d = [] must not be empty"),
        ("erasure_dim", {"log_d": []}, "log_d = [] must not be empty"),
        ("erasure_dim", {"x": []}, "x = [] must not be empty"),
        ("erasure_energy", {"E": []}, "E = [] must not be empty"),
        ("erasure_energy", {"r": []}, "r = [] must not be empty"),
        ("erasure_energy", {"x": []}, "x = [] must not be empty"),
        # capacities are names from `bounds.CAPACITIES`, in a nonempty list
        ("erasure_dim", {"capacities": "q"}, "capacities = q must be a list"),
        ("erasure_energy", {"capacities": "chi"}, "capacities = chi must be a list"),
        ("erasure_dim", {"capacities": ["q", "h"]}, "capacities = h must be one of chi, c, q, pbar, p"),
        ("erasure_energy", {"capacities": [None]}, "capacities = None must be one of chi, c, q, pbar, p"),
        ("erasure_dim", {"capacities": []}, "capacities = [] must not be empty"),
    ])
    def test_sweep_grid_numbers_name_their_key(self, tmp_path, capsys, family, grid, message):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--family", family, "--grid", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("family", ["erasure_dim", "erasure_energy"])
    def test_capacities_checked_before_any_row(self, monkeypatch, family):
        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(sweeps_module.bnd, "erasure_family", no_rows)
        with pytest.raises(ValueError, match="^capacities = h must be one of chi, c, q, pbar, p$"):
            sweep_tightness(family, {"capacities": ["q", "h"]})

    @pytest.mark.parametrize("doc, message", [
        (None, "error: [Errno 2] No such file or directory"),
        ("{}", "error: missing report key 'rows'"),
        ("[1", "error: Expecting ',' delimiter"),
    ])
    def test_rejected_report_is_one_error_line(self, tmp_path, capsys, doc, message):
        path = tmp_path / "report.json"
        if doc is not None:
            path.write_text(doc)
        assert cli_main(["report", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1 and captured.err.startswith(message)

    def test_entry_point_runs(self):
        # erasure_gap is the one bound that takes no eps
        proc = subprocess.run(
            [sys.executable, "-m", "chanbound", "eval", "--bound", "erasure_gap", "--params", "x=0.05"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert abs(float(proc.stdout.strip()) - math.sqrt(2 - math.sqrt(0.9) - math.sqrt(1.1))) < 1e-12
