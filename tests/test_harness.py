import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chanbound.energy import Hamiltonian
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
from chanbound.qstate import SystemLayout


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


class TestVerdictLogic:
    def test_classify_three_way(self):
        assert classify(1.0, 1.5, 2.0) == PASS
        assert classify(1.7, 1.5, 2.0) == INCONCLUSIVE
        assert classify(2.5, 1.5, 2.0) == VIOLATION

    def test_exact_epsilon_never_inconclusive(self):
        v = BoundVerdict.exact("s", 0, "b", lhs=1.0, epsilon=0.3, rhs=0.9)
        assert v.outcome == VIOLATION
        v2 = BoundVerdict.exact("s", 0, "b", lhs=0.8, epsilon=0.3, rhs=0.9)
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
        proc = subprocess.run(
            [sys.executable, "-m", "chanbound", "eval", "--bound", "erasure_gap", "--params", "x=0.05"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert abs(float(proc.stdout.strip()) - math.sqrt(2 - math.sqrt(0.9) - math.sqrt(1.1))) < 1e-12
