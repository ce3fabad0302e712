import functools
import math
import re

import numpy as np
import pytest

from chanbound.bounds import (
    CAPACITIES,
    check_integer,
    check_real,
    erasure_capacities,
    erasure_delta,
    erasure_isometry_gap,
    lemma4_bound,
    p_r,
    prop2_bound,
    prop3_bound,
    prop4_bound,
    prop5_bound,
    prop6_bound,
    prop7_bound,
    prop8_bound,
    t_functional,
    t_st,
    theorem1_bound,
    theorem2_bound,
)
from chanbound.channels import ErasureSpec, erasure_channel
from chanbound.energy import (
    EnergyDomainError,
    Hamiltonian,
    OscillatorSpec,
    check_s_flag,
    f_h,
    gamma,
    oscillator_f,
    oscillator_gamma_hat_domain_min,
    oscillator_gamma_hat_unchecked,
)
from chanbound.entropic import eta, g, h2
from chanbound.qstate import QStateError

LOG2 = math.log(2.0)


def g_oracle(x):
    return 0.0 if x <= 0 else (x + 1.0) * math.log(x + 1.0) - x * math.log(x)


def eta_oracle(x):
    return 0.0 if x <= 0 else -x * math.log(x)


EPS_GRID = np.linspace(0.004, 0.8, 20)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


_OSC = OscillatorSpec(1, (1.0,))
_EPS_EVALUATORS = {
    "prop2": lambda e: prop2_bound(e, 2),
    "prop5": lambda e: prop5_bound(e, 1, lambda x: 1.0),
    "prop6": lambda e: prop6_bound(e, 2),
    "prop8": lambda e: prop8_bound(e, lambda x: 1.0),
    "p_r": lambda e: p_r(_OSC, 5.0, e, 0.5),
    "theorem2": lambda e: theorem2_bound("q", e, lambda t, x: 1.0),
    "t_st": lambda e: t_st(e, 0.7, _OSC, s=0, t=0),
}


@pytest.mark.parametrize("name", sorted(_EPS_EVALUATORS))
@pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-3])
def test_epsilon_non_finite_or_negative_rejected(name, eps):
    with pytest.raises(ValueError, match="epsilon"):
        _EPS_EVALUATORS[name](eps)


class TestLemma4Evaluator:
    def test_zero_epsilon(self):
        for variant, kw in (
            ("finite", dict(d=4)),
            ("qc", dict(d=4)),
            ("energy", dict(f_handle=lambda e: 1.0, energy=1.0)),
            ("pure", dict(f_handle=lambda e: 1.0, energy=1.0)),
        ):
            assert lemma4_bound(variant, 0.0, **kw) == 0.0

    def test_finite_oracle_grid(self):
        for eps in EPS_GRID:
            for d in (2, 4, 16):
                oracle = 2 * eps * math.log(d) + 2 * g_oracle(eps)
                assert rel_err(lemma4_bound("finite", eps, d=d), oracle) < 1e-12

    def test_qc_is_finite_minus_half_main(self):
        for eps in EPS_GRID:
            diff = lemma4_bound("finite", eps, d=8) - lemma4_bound("qc", eps, d=8)
            assert abs(diff - eps * math.log(8)) < 1e-12

    def test_part_c_halves_g_term(self):
        for eps in EPS_GRID:
            diff = lemma4_bound("finite", eps, d=4) - lemma4_bound("finite", eps, d=4, part_c=True)
            assert abs(diff - g_oracle(eps)) < 1e-12

    def test_energy_oracle(self):
        spec = OscillatorSpec(1, (1.0,))
        handle = lambda e: oscillator_f(spec, e)
        for eps in EPS_GRID:
            if eps > 1:
                continue
            root = math.sqrt(2 * eps)
            oracle = 2 * root * (math.log((1.5 / eps + 0.5) / 1.0) + 1.0) + 2 * g_oracle(root)
            got = lemma4_bound("energy", eps, f_handle=handle, energy=1.5)
            assert rel_err(got, oracle) < 1e-12

    def test_pure_substitutes_eps_squared_half(self):
        handle = lambda e: 3.0
        for eps in EPS_GRID:
            expect = lemma4_bound("energy", eps * eps / 2.0, f_handle=handle, energy=1.0)
            assert rel_err(lemma4_bound("pure", eps, f_handle=handle, energy=1.0), expect) < 1e-12

    @pytest.mark.parametrize("variant", ["energy", "pure"])
    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_non_finite_energy_rejected_at_every_eps(self, variant, energy, eps):
        def handle(e):
            raise AssertionError("the handle is not called")

        with pytest.raises(EnergyDomainError, match="energy .* must be finite"):
            lemma4_bound(variant, eps, f_handle=handle, energy=energy)

    @pytest.mark.parametrize("variant", ["energy", "pure"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_negative_energy_rejected_at_every_eps(self, variant, eps):
        # no spectrum reaches E < 0, so it is rejected before the eps = 0 shortcut, not inside the handle
        def handle(e):
            raise AssertionError("the handle is not called")

        with pytest.raises(EnergyDomainError, match=r"^energy -1.0 must be finite and >= 0$"):
            lemma4_bound(variant, eps, f_handle=handle, energy=-1.0)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            lemma4_bound("finite", 1.2, d=2)
        with pytest.raises(ValueError):
            lemma4_bound("bogus", 0.1, d=2)


class TestPropositionEvaluators:
    def test_prop2_oracle(self):
        for eps in EPS_GRID:
            for d_a in (2, 8):
                oracle = 2 * eps * math.log(d_a) + 2 * eps * LOG2 + 2 * g_oracle(eps)
                assert rel_err(prop2_bound(eps, d_a), oracle) < 1e-12

    def test_prop2_flags(self):
        for eps in EPS_GRID:
            assert abs(prop2_bound(eps, 2) - prop2_bound(eps, 2, same_channel=True) - 2 * eps * LOG2) < 1e-12
            assert abs(prop2_bound(eps, 2) - prop2_bound(eps, 2, same_state=True) - g_oracle(eps)) < 1e-12

    def test_prop3_oracle_and_monotone(self):
        spec = OscillatorSpec(1, (1.0,))
        fbar = lambda e: oscillator_f(spec, e + spec.ground_energy)
        vals = []
        for eps in EPS_GRID:
            root = math.sqrt(2 * eps)
            oracle = 2 * root * (math.log((4.5 / eps + 1.0)) + 1.0) + 2 * g_oracle(root)
            got = prop3_bound(eps, fbar, 4.5)
            assert rel_err(got, oracle) < 1e-12
            vals.append(got)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_prop3_pure_tightens(self):
        spec = OscillatorSpec(1, (1.0,))
        fbar = lambda e: oscillator_f(spec, e + spec.ground_energy)
        for eps in (0.05, 0.2, 0.6, 1.0):
            assert prop3_bound(eps, fbar, 4.5, pure=True) < prop3_bound(eps, fbar, 4.5)

    def test_prop3_domain(self):
        with pytest.raises(ValueError):
            prop3_bound(1.2, lambda e: 1.0, 1.0)
        assert prop3_bound(0.0, lambda e: 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("e_bar", [math.nan, math.inf])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_prop3_non_finite_energy_rejected_at_every_eps(self, e_bar, eps):
        def fbar(e):
            raise AssertionError("the handle is not called")

        for pure in (False, True):
            with pytest.raises(EnergyDomainError, match="shifted energy .* must be finite"):
                prop3_bound(eps, fbar, e_bar, pure=pure)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_negative_shifted_energy_rejected_by_name(self, eps):
        # E_bar = E - E_0 < 0 is rejected as E_bar before the eps = 0 shortcut, not inside the handle
        def fbar(e):
            raise AssertionError("the handle is not called")

        for bound in (functools.partial(prop3_bound, pure=False), functools.partial(prop3_bound, pure=True),
                      prop7_bound):
            with pytest.raises(EnergyDomainError, match=r"^shifted energy -1.0 must be finite and >= 0$"):
                bound(eps, fbar, -1.0)
        root = math.sqrt(2.0 * eps)
        assert prop3_bound(eps, lambda e: 1.0, 0.0) == (2.0 * root + 2.0 * g(root) if eps else 0.0)

    def test_prop3_and_prop7_are_the_inline_formula_bit_for_bit(self):
        """Through Lemma 4's energy form, prop3 (mixed and pure) and prop7 return exactly
        the inline formula they had before, on a grid of eps, Ebar and handles."""
        def inline(eps, fbar, e_bar, pure):
            if eps == 0.0:
                return 0.0
            eff = eps * eps / 2.0 if pure else eps
            root = math.sqrt(2.0 * eff)
            return 2.0 * root * fbar(e_bar / eff) + 2.0 * g(root)

        spec = OscillatorSpec(2, (1.0, 1.7))
        handles = (lambda e: oscillator_f(spec, e + spec.ground_energy), math.log1p)
        for eps in [0.0, 1e-15, 1e-9, 1e-4, 1.0] + list(EPS_GRID):
            for e_bar in (0.0, 1e-6, 0.3, 4.5, 1e6):
                for fbar in handles:
                    for pure in (False, True):
                        assert prop3_bound(eps, fbar, e_bar, pure=pure) == inline(eps, fbar, e_bar, pure)
                    assert prop7_bound(eps, fbar, e_bar) == inline(eps, fbar, e_bar, False)

    def test_prop4_oracle(self):
        for eps in EPS_GRID:
            for n in (1, 2, 3):
                oracle = n * (2 * eps * math.log(4.0) + g_oracle(eps))
                assert rel_err(prop4_bound(eps, 2, n), oracle) < 1e-12

    def test_prop4_linear_in_n(self):
        assert abs(prop4_bound(0.1, 2, 3) - 3 * prop4_bound(0.1, 2, 1)) < 1e-12

    def test_prop6_oracle_and_flags(self):
        for eps in EPS_GRID:
            oracle = eps * math.log(4) + eps * LOG2 + 2 * g_oracle(eps)
            assert rel_err(prop6_bound(eps, 4), oracle) < 1e-12
            assert abs(prop6_bound(eps, 4) - prop6_bound(eps, 4, same_channel=True) - eps * LOG2) < 1e-12
            assert abs(prop6_bound(eps, 4) - prop6_bound(eps, 4, same_ensemble=True) - g_oracle(eps)) < 1e-12

    def test_prop7_matches_prop3_shape(self):
        fbar = lambda e: 2.0 + 0.1 * e
        for eps in (0.05, 0.3, 0.9):
            assert prop7_bound(eps, fbar, 1.0) == prop3_bound(eps, fbar, 1.0)

    def test_prop5_composite_structure(self):
        t_handle = lambda e: 1.5 + e
        for eps in EPS_GRID:
            oracle = 2 * ((1.5 + eps) + g_oracle(eps) + 2 * eps * LOG2)
            assert rel_err(prop5_bound(eps, 2, t_handle), oracle) < 1e-12
        # no epsilon-zero shortcut: the T functional keeps its d-minimum at eps = 0
        assert prop5_bound(0.0, 2, t_handle) == 3.0

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_prop5_rejects_fewer_than_one_copy(self, n, eps):
        def handle(e):
            raise AssertionError("T is not evaluated for a rejected n")

        with pytest.raises(ValueError, match=f"n = {n} must be >= 1"):
            prop5_bound(eps, n, handle)

    @pytest.mark.parametrize("d_a", [0, -1, 0.5, math.nan])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_input_dimension_below_one_rejected(self, d_a, eps):
        for evaluate in (lambda: prop2_bound(eps, d_a), lambda: prop4_bound(eps, d_a, 1),
                         lambda: prop6_bound(eps, d_a), lambda: theorem1_bound("q", eps, d_a=d_a)):
            with pytest.raises(ValueError, match=r"d_a = \S+ must be >= 1"):
                evaluate()

    @pytest.mark.parametrize("d_a", [1.5, 2.5, math.inf])
    def test_non_integral_input_dimension_rejected(self, d_a):
        for evaluate in (lambda: prop2_bound(0.1, d_a), lambda: prop4_bound(0.1, d_a, 1),
                         lambda: prop6_bound(0.0, d_a), lambda: theorem1_bound("q", 0.1, d_a=d_a)):
            with pytest.raises(ValueError, match=rf"^d_a = {d_a} must be an integer$"):
                evaluate()
        assert prop4_bound(0.1, 2.0, 1) == prop4_bound(0.1, 2, 1)

    def test_prop8_composite_structure(self):
        t_handle = lambda e: 1.5 + e
        for eps in EPS_GRID:
            oracle = (1.5 + eps) + g_oracle(eps) + 2 * eps * LOG2
            assert rel_err(prop8_bound(eps, t_handle), oracle) < 1e-12
        assert prop8_bound(0.0, t_handle) == 0.0


def _patience_t_st(epsilon, e_bar, handle, s, t, d_cap=10**6, patience=50):
    """`t_st` as it was: a NaN-masked gamma handle scanned d by d from d = 1 in
    65,536-wide blocks, stopping after `patience` consecutive rises."""
    if isinstance(handle, OscillatorSpec):
        floor = oscillator_gamma_hat_domain_min(handle)
        gamma_fn = lambda ds: np.where(ds < floor, np.nan, oscillator_gamma_hat_unchecked(handle, ds))
        hi = d_cap
    else:
        def gamma_fn(ds):
            vals = np.full(ds.shape, np.nan)
            inside = (ds >= handle.ground_multiplicity) & (ds <= handle.dim)
            vals[inside] = [gamma(handle, d) for d in ds[inside]]
            return vals

        hi = min(d_cap, handle.dim)
    eps = float(epsilon)
    e_bar = max(e_bar, 0.0)
    best, best_d, rise_run, prev_obj, d, stop = math.inf, 0, 0, None, 1, False
    while d <= hi and not stop:
        block_end = min(d + 65536, hi + 1)
        ds = np.arange(d, block_end)
        gams = gamma_fn(ds)
        with np.errstate(invalid="ignore"):
            feasible = ~np.isnan(gams)
            feasible &= np.where(feasible, gams, -1.0) >= 2.0 * e_bar
            if e_bar > 0.0:
                feasible &= np.where(feasible, gams, -1.0) > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(feasible & (gams > 0), (2.0**s) * e_bar / gams, 0.0)
        root = np.sqrt(ratio)
        obj = (4.0 * root + 4.0 * s * t * ratio + 2.0 * eps) * np.log(ds) + 4.0 * g(root)
        for i in range(ds.size):
            if not feasible[i]:
                continue
            o = float(obj[i])
            if o < best:
                best, best_d, rise_run = o, int(ds[i]), 0
            elif prev_obj is not None and o >= prev_obj:
                rise_run += 1
                if rise_run >= patience:
                    stop = True
                    break
            else:
                rise_run = 0
            prev_obj = o
        d = block_end
    if best_d == 0:
        raise QStateError(f"no feasible d <= {hi} with gamma(d) >= 2(E - E_0) = {2 * e_bar}")
    return best, best_d


# (handle, E - E_0 values); on the spectra, 2.0, 3.0 and 9.0 exceed gamma(dim) / 2 and are infeasible
_PIN_CASES = {
    "osc1": (OscillatorSpec(1, (1.0,), truncation=6), (0.0, 0.7, 4.5)),
    "osc2": (OscillatorSpec(2, (1.0, 2.0)), (0.5, 3.0)),
    "unique_ground": (Hamiltonian(np.array([0.0, 1.0, 2.0, 3.0])), (0.0, 0.1, 0.3, 0.6, 2.0)),
    "degenerate_ground": (Hamiltonian(np.array([0.5, 0.5, 1.0, 2.0, 4.0])), (0.0, 0.05, 0.2, 3.0)),
    "ladder16": (Hamiltonian(np.arange(16.0)), (0.3, 2.0, 9.0)),
}


class TestCountsAndDimensions:
    """d and n go through `check_dimension`, named, before any eps = 0 shortcut."""

    BAD = [(math.nan, "must be >= 1"), (-math.inf, "must be >= 1"), (0, "must be >= 1"),
           (math.inf, "must be an integer"), (2.5, "must be an integer")]

    @pytest.mark.parametrize("value, rule", BAD)
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_lemma4_support_dimension(self, value, rule, eps):
        for variant in ("finite", "qc"):
            with pytest.raises(ValueError, match=f"^d = {value} {rule}$"):
                lemma4_bound(variant, eps, d=value)

    @pytest.mark.parametrize("value, rule", BAD)
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_copy_count(self, value, rule, eps):
        def handle(e):
            raise AssertionError("T is not evaluated for a rejected n")

        for evaluate in (lambda: prop4_bound(eps, 2, value), lambda: prop5_bound(eps, value, handle)):
            with pytest.raises(ValueError, match=f"^n = {value} {rule}$"):
                evaluate()

    @pytest.mark.parametrize("value, rule", BAD)
    def test_erasure_dimension(self, value, rule):
        with pytest.raises(ValueError, match=f"^d = {value} {rule}$"):
            erasure_capacities(value, 0.1)
        with pytest.raises(ValueError, match="^erasure input dimension 1 must be >= 2$"):
            erasure_capacities(1, 0.1)

    @pytest.mark.parametrize("value", [None, "x", "", [2], math.nan, math.inf, -math.inf, "1e400", 2.5, "2.5"])
    def test_check_integer_names_every_bad_value(self, value):
        with pytest.raises(ValueError, match=f"^n = {re.escape(str(value))} must be an integer$"):
            check_integer(value, "n")

    @pytest.mark.parametrize("value, want", [
        ("9007199254740993", 2**53 + 1), ("-9007199254740993", -(2**53 + 1)), (" +12 ", 12),
        ("2.0", 2), ("1e3", 1000), (2**70 + 1, 2**70 + 1), (4.0, 4),
    ])
    def test_check_integer_reads_a_string_of_digits_exactly(self, value, want):
        # a string of digits never passes through a float, which would round it above 2**53
        assert check_integer(value, "n") == want

    @pytest.mark.parametrize("value", [None, "x", "", [2], "1:2"])
    def test_check_real_names_every_bad_value(self, value):
        with pytest.raises(ValueError, match=f"^tol = {re.escape(str(value))} must be a real number$"):
            check_real(value, "tol")

    def test_non_numbers_are_named(self):
        # a value that is no real number goes through `check_integer` before the >= 1 test
        with pytest.raises(ValueError, match="^d_a = None must be an integer$"):
            prop2_bound(0.1, None)
        with pytest.raises(ValueError, match="^d_a = q must be an integer$"):
            theorem1_bound("q", 0.1, d_a="q")
        with pytest.raises(ValueError, match="^n = 0 must be >= 1$"):
            prop4_bound(0.1, 2, "0")
        assert theorem1_bound("q", 0.1, d_a="3") == theorem1_bound("q", 0.1, d_a=3)

    def test_integral_values_are_the_integers(self):
        assert lemma4_bound("finite", 0.1, d=4.0) == lemma4_bound("finite", 0.1, d=4)
        assert prop4_bound(0.1, 2, 3.0) == prop4_bound(0.1, 2, 3)
        assert prop5_bound(0.1, np.int64(2), lambda e: 1.0) == prop5_bound(0.1, 2, lambda e: 1.0)
        assert erasure_capacities(4.0, 0.25) == erasure_capacities(4, 0.25)
        assert check_integer(10**400, "d") == 10**400  # a huge int is never converted to float
        with pytest.raises(ValueError, match="^d = inf must be an integer$"):
            check_integer(math.inf, "d")


class TestTFunctional:
    def setup_method(self):
        self.spec = OscillatorSpec(1, (1.0,), truncation=40)

    def test_matches_direct_scan_oracle_exactly(self):
        eps, e_bar = 0.01, 4.5
        got = t_st(eps, e_bar, self.spec, s=0, t=0)
        ds, rs = [], []
        for d in range(3, 10**6 + 1):
            gam = (1.0 / math.e) * 1.0 * float(d) ** 1.0 - 1.0
            if gam <= 0 or gam < 2 * e_bar:
                continue
            ds.append(d)
            rs.append(math.sqrt(1.0 * e_bar / gam))
        best_val, best_d = math.inf, 0
        for d, r, g_r in zip(ds, rs, g(np.array(rs)).tolist()):  # entropic's g, on every r at once
            obj = (4.0 * r + 2.0 * eps) * math.log(d) + 4.0 * g_r
            if obj < best_val:
                best_val, best_d = obj, d
        assert got.value == best_val
        assert got.d_star == best_d

    @pytest.mark.parametrize("case", sorted(_PIN_CASES))
    def test_matches_the_patience_scan(self, case):
        # the oscillators' small-eps minima sit at the default cap, where the
        # patience scan walks a million d in Python: a 4000 cap keeps those
        # cases cheap and pins the cap end as well
        handle, e_bars = _PIN_CASES[case]
        for e_bar in e_bars:
            for eps in (0.0, 0.01, 0.05, 0.1, 0.3, 0.7, 1.2, 1.4):
                d_cap = 4000 if isinstance(handle, OscillatorSpec) and eps < 0.7 else 10**6
                for s in (0, 1):
                    for t in (0, 1):
                        try:
                            want = _patience_t_st(eps, e_bar, handle, s, t, d_cap)
                        except QStateError as exc:
                            with pytest.raises(QStateError, match=re.escape(str(exc))):
                                t_st(eps, e_bar, handle, s, t, d_cap)
                            continue
                        got = t_st(eps, e_bar, handle, s, t, d_cap)
                        assert (got.value, got.d_star) == want

    def test_interior_minimum_matches_an_exhaustive_scan(self):
        # prop5's default system at eps = 0.1: every feasible d <= d_cap
        spec, e_bar, eps = OscillatorSpec(1, (1.0,), truncation=6), 0.7, 0.1
        ds = np.arange(1, 10**6 + 1)
        gam = (1.0 / math.e) * ds - 1.0
        ok = (gam > 0) & (gam >= 2 * e_bar)
        ds, gam = ds[ok], gam[ok]
        r = np.sqrt(e_bar / gam)
        obj = (4.0 * r + 2.0 * eps) * np.log(ds) + 4.0 * g(r)
        k = int(np.argmin(obj))
        got = t_st(eps, e_bar, spec, s=0, t=0)
        assert (got.value, got.d_star) == (float(obj[k]), int(ds[k]))
        assert got.d_star == 33_813

    def test_monotone_in_epsilon(self):
        vals = [t_st(e, 1.5, self.spec, s=0, t=0).value for e in (0.0, 0.05, 0.2, 0.5)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_epsilon_zero_floor(self):
        res = t_st(0.0, 1.5, self.spec, s=0, t=0)
        assert res.value >= 0.0
        # equals the d-minimum of the eps-free expression by construction
        probe = t_st(0.0, 1.5, self.spec, s=0, t=1)
        assert res.value == probe.value  # s=0 kills the st term

    def test_decreasing_toward_zero_grid(self):
        vals = [t_st(e, 4.5, self.spec, s=0, t=0).value for e in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_s1_t1_term(self):
        v00 = t_st(0.1, 1.5, self.spec, s=1, t=0).value
        v11 = t_st(0.1, 1.5, self.spec, s=1, t=1).value
        assert v11 >= v00

    def test_numeric_handle_infeasible_rejected(self):
        h = Hamiltonian(np.array([0.0, 1.0]))
        with pytest.raises(QStateError):
            t_st(0.1, 5.0, h, s=0, t=0)

    def test_d_star_respects_the_domain_floor(self):
        # at E - E_0 = 0 the objective is 2 eps log d, least at the first d
        # of the domain: d_0 for a spectrum, the closed form's floor for an oscillator
        h = Hamiltonian(np.array([0.5, 0.5, 1.0, 2.0, 4.0]))
        floor = oscillator_gamma_hat_domain_min(self.spec)
        for eps in (0.05, 0.7):
            assert t_st(eps, 0.0, h, s=0, t=0).d_star == h.ground_multiplicity == 2
            assert t_st(eps, 0.0, self.spec, s=0, t=0).d_star == floor == 3
            for e_bar in (0.05, 0.2):
                assert t_st(eps, e_bar, h, s=1, t=0).d_star >= 2
            assert t_st(eps, 1.5, self.spec, s=0, t=0).d_star >= floor

    @pytest.mark.parametrize("s", [0, 1])
    def test_numeric_handle_matches_direct_scan_oracle_exactly(self, s):
        h = Hamiltonian(np.array([0.0, 1.0, 2.0, 3.0]))
        for e_bar in (0.0, 0.1, 0.3):
            for eps in (0.0, 0.05, 0.2):
                for t in (0, 1):
                    got = t_st(eps, e_bar, h, s=s, t=t)
                    best_val, best_d = math.inf, 0
                    for d in range(h.ground_multiplicity, h.dim + 1):
                        gam = gamma(h, d)
                        if gam < 2 * e_bar or (e_bar > 0 and gam <= 0):
                            continue
                        ratio = 2.0**s * e_bar / gam if gam > 0 else 0.0
                        r = math.sqrt(ratio)
                        obj = (4.0 * r + 4.0 * s * t * ratio + 2.0 * eps) * math.log(d) + 4.0 * g(r)
                        if obj < best_val:
                            best_val, best_d = obj, d
                    assert got.value == best_val
                    assert got.d_star == best_d

    def test_numeric_handle_small_spectrum(self):
        h = Hamiltonian(np.array([0.0, 1.0, 2.0, 3.0]))
        res = t_st(0.2, 0.6, h, s=1, t=0)
        assert res.d_star <= 4
        assert res.value > 0


class TestPR:
    def setup_method(self):
        self.spec = OscillatorSpec(1, (1.0,), truncation=40)

    def test_oracle_grid(self):
        for eps in EPS_GRID:
            for r in (0.3, 1.0):
                f_val = math.log((5.0 + 0.5) / 1.0) + 1.0
                oracle = (
                    2 * eps * (1 + 2 * r) * f_val
                    + 4 * 1 * (2 + 1 / r) * eta_oracle(eps * r)
                    + 4 * g_oracle(eps * r)
                    + 6 * eps * math.exp(-1.0)
                )
                assert rel_err(p_r(self.spec, 5.0, eps, r), oracle) < 1e-12

    def test_zero_epsilon(self):
        assert p_r(self.spec, 5.0, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("energy", [math.nan, math.inf])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_non_finite_energy_rejected_at_every_eps(self, energy, eps):
        # the message is the closed form's own, so eps = 0 and eps > 0 read alike
        with pytest.raises(EnergyDomainError, match=r"energy (nan|inf) must be finite and >= the ground energy"):
            p_r(self.spec, energy, eps, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            p_r(self.spec, 5.0, 1.5, 1.0)  # eps * r > 1
        with pytest.raises(ValueError):
            p_r(self.spec, 5.0, 0.1, 0.0)

    def test_near_optimal_r_asymptotics(self):
        # with r ~ 1/F(E) the excess of the bound over the main term
        # 2 eps F(E) is o(F(E)): the normalized excess falls along an E grid
        eps = 1e-3
        excess_per_f = []
        for e in (50.0, 200.0, 1000.0, 5000.0):
            f_val = oscillator_f(self.spec, e)
            excess = p_r(self.spec, e, eps, 1.0 / f_val) - 2 * eps * f_val
            assert excess > 0
            excess_per_f.append(excess / f_val)
        assert all(a > b for a, b in zip(excess_per_f, excess_per_f[1:]))
        assert excess_per_f[-1] < 0.5 * excess_per_f[0]


_HANDLE_EPS = [0.01, 0.05, 0.1, 0.3, 0.7, 1.0, 1.2]


class TestTFunctionalHandle:
    """`t_functional` against test-side copies of the handles each caller used to build itself."""

    def test_prop5_oscillator_t_st(self):
        spec, e_cap = OscillatorSpec(1, (1.0,), truncation=6), 1.2
        parent = lambda eps, t: t_st(eps, e_cap - spec.ground_energy, spec, s=0, t=t).value
        handle = t_functional(spec, e_cap)
        for t in (0, 1):
            for eps in _HANDLE_EPS:
                assert handle(t, eps) == parent(eps, t)

    @pytest.mark.parametrize("spectrum, e_cap, s_flag", [
        ([0.0, 1.0, 2.0, 3.0], 0.6, 1),  # prop8's default
        ([0.5, 0.5, 1.0, 2.0, 4.0], 0.8, 0),
    ])
    def test_prop8_spectrum_takes_the_s_flag(self, spectrum, e_cap, s_flag):
        ham = Hamiltonian(np.array(spectrum))
        assert check_s_flag(ham) == s_flag

        def parent(eps):
            return t_st(eps, e_cap - ham.ground_energy, ham, s=check_s_flag(ham), t=0).value

        handle = t_functional(ham, e_cap)
        for eps in _HANDLE_EPS:
            assert handle(0, eps) == parent(eps)

    def test_prop8_oscillator_takes_p_r(self):
        spec, e_cap, r = OscillatorSpec(1, (1.0,), truncation=6), 1.2, 0.5
        parent = functools.partial(p_r, spec, e_cap, r=r)
        handle = t_functional(spec, e_cap, r=r)
        for eps in _HANDLE_EPS:
            assert handle(0, eps) == handle(1, eps) == parent(eps)

    def test_thm2_and_the_energy_sweep(self):
        spec = OscillatorSpec(1, (1.0,), truncation=40)
        for e_cap in (2.0, 5.0, 10.0):
            for r in (1.0, 0.3, 1.0 / oscillator_f(spec, e_cap)):
                parent = lambda cap, eps: theorem2_bound(cap, eps, lambda t, e: p_r(spec, e_cap, e, r))
                bound_at = functools.partial(theorem2_bound, t_fn=t_functional(spec, e_cap, r=r))
                for cap in CAPACITIES:
                    for eps in _HANDLE_EPS[:-1]:  # eps r <= 1
                        assert bound_at(cap, eps) == parent(cap, eps)

    @pytest.mark.parametrize("spec", [OscillatorSpec(1, (1.0,)), OscillatorSpec(2, (1.0, 2.0))])
    @pytest.mark.parametrize("d_cap", [500, 20000])
    def test_eval_d_cap_path(self, spec, d_cap):
        e_cap = spec.ground_energy + 1.2
        e_bar = e_cap - spec.ground_energy
        parent = lambda t, e: t_st(e, e_bar, spec, s=0, t=t, d_cap=d_cap).value
        handle = t_functional(spec, e_cap, d_cap=d_cap)
        for t in (0, 1):
            for eps in [0.0, 1e-3] + _HANDLE_EPS:  # the two smallest scan up to the cap
                assert handle(t, eps) == parent(t, eps)

    def test_p_r_needs_an_oscillator(self):
        with pytest.raises(ValueError, match="oscillator"):
            t_functional(Hamiltonian(np.arange(4.0)), 1.0, r=0.5)

    def test_looks_up_t_st_and_p_r_on_each_call(self, monkeypatch):
        # a wrapper installed on the module after the handle is built still sees every call
        import chanbound.bounds as bounds_module

        spec, calls = OscillatorSpec(1, (1.0,), truncation=6), []
        t_handle, p_handle = t_functional(spec, 1.2), t_functional(spec, 1.2, r=0.5)
        for name in ("t_st", "p_r"):
            original = getattr(bounds_module, name)
            monkeypatch.setattr(bounds_module, name,
                                lambda *a, _o=original, _n=name, **k: calls.append(_n) or _o(*a, **k))
        t_handle(0, 0.1)
        p_handle(0, 0.1)
        assert calls == ["t_st", "p_r"]


class TestTheoremEvaluators:
    def test_thm1_coefficient_table(self):
        eps, d_a = 0.05, 1024
        main = {"chi": 1, "c": 2, "q": 2, "pbar": 2, "p": 4}
        gcoef = {"chi": 1, "c": 1, "q": 1, "pbar": 2, "p": 2}
        for cap in CAPACITIES:
            oracle = main[cap] * eps * (math.log(d_a) + LOG2) + gcoef[cap] * g_oracle(eps)
            assert rel_err(theorem1_bound(cap, eps, d_a=d_a), oracle) < 1e-12

    def test_thm1_zero(self):
        for cap in CAPACITIES:
            assert theorem1_bound(cap, 0.0, d_a=2) == 0.0

    def test_thm1_log_dim_variant(self):
        val_a = theorem1_bound("q", 0.01, d_a=64)
        val_b = theorem1_bound("q", 0.01, log_d_a=math.log(64))
        assert rel_err(val_a, val_b) < 1e-12

    @pytest.mark.parametrize("log_d_a", [math.nan, math.inf, -math.inf, -5.0, -1e-300])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_thm1_log_dim_must_be_finite_and_nonnegative(self, log_d_a, eps):
        with pytest.raises(ValueError, match=r"log_d_a = \S+ must be finite and >= 0"):
            theorem1_bound("q", eps, log_d_a=log_d_a)

    def test_thm1_log_dim_zero_is_one_dimension(self):
        assert theorem1_bound("p", 0.1, log_d_a=0.0) == theorem1_bound("p", 0.1, d_a=1)

    def test_thm2_structure(self):
        t_fn = lambda t, e: (2.0 if t else 1.0) + e
        for eps in (0.05, 0.2):
            assert rel_err(
                theorem2_bound("chi", eps, t_fn), (1.0 + eps) + g_oracle(eps) + 2 * eps * LOG2
            ) < 1e-12
            assert rel_err(
                theorem2_bound("q", eps, t_fn), (2.0 + eps) + g_oracle(eps) + 2 * eps * LOG2
            ) < 1e-12
            assert rel_err(
                theorem2_bound("pbar", eps, t_fn),
                2 * ((1.0 + eps) + g_oracle(eps) + 2 * eps * LOG2),
            ) < 1e-12
            assert rel_err(
                theorem2_bound("p", eps, t_fn),
                2 * ((2.0 + eps) + g_oracle(eps) + 2 * eps * LOG2),
            ) < 1e-12


class TestErasureClosedForms:
    def test_half_erasure_kills_quantum(self):
        caps = erasure_capacities(4, 0.5)
        assert caps.q == 0.0 and caps.c_p == 0.0 and caps.c_p_bar == 0.0
        assert abs(caps.c_chi - 0.5 * math.log(4)) < 1e-12

    def test_quarter_erasure(self):
        caps = erasure_capacities(2, 0.25)
        assert abs(caps.c_chi - 0.75 * math.log(2)) < 1e-12
        assert abs(caps.q - 0.5 * math.log(2)) < 1e-12

    def test_energy_constrained_scale(self):
        spec = OscillatorSpec(1, (1.0,), truncation=40)
        h = spec.to_hamiltonian()
        caps = erasure_capacities(h.dim, 0.25, energy=(h, 5.0))
        m = f_h(h, 5.0)
        assert abs(caps.c_chi - 0.75 * m) < 1e-12
        assert abs(caps.q - 0.5 * m) < 1e-12

    def test_delta_formulas(self):
        assert abs(erasure_delta("chi", 0.05, math.log(8)) - 0.05 * math.log(8)) < 1e-15
        assert abs(erasure_delta("q", 0.05, math.log(8)) - 0.1 * math.log(8)) < 1e-15

    def test_isometry_gap_formula_vs_matrices(self):
        from chanbound.qstate import operator_norm

        for d in (2, 3, 8):
            for x in (0.01, 0.05, 0.1, 0.2):
                va = erasure_channel(ErasureSpec(d, 0.5 - x)).isometry
                vb = erasure_channel(ErasureSpec(d, 0.5)).isometry
                assert abs(operator_norm(va - vb) - erasure_isometry_gap(x)) <= 1e-10

    def test_isometry_gap_matches_50_digits(self):
        # the radicand 2 - sqrt(1-2x) - sqrt(1+2x) ~ x^2 cancels in floats (to 0 at x = 1e-8);
        # the gap keeps full relative accuracy from x = 1e-17 up to 1/2
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for x in [float(v) for v in np.logspace(-17, math.log10(0.5), 200)] + [1e-9, 1e-8, 1e-7, 0.5]:
                xm = mpmath.mpf(x)
                exact = mpmath.sqrt(2 - mpmath.sqrt(1 - 2 * xm) - mpmath.sqrt(1 + 2 * xm))
                assert abs(erasure_isometry_gap(x) - exact) <= 1e-15 * exact, x
        assert erasure_isometry_gap(0.0) == 0.0


@pytest.mark.two_blas_threads
class TestClosedFormsAt50Digits:
    """eta, h2, g and the bounds built on them against mpmath at 50 digits, on log grids."""

    @staticmethod
    def _assert_close(got, exact, rel, where):
        assert abs(got - exact) <= rel * abs(exact), (where, got, float(exact))

    def test_g(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for x in [float(v) for v in np.logspace(-300, 300, 1201)] + [1e-13, 1e-12, 1.0]:
                xm = mp.mpf(x)
                self._assert_close(g(x), mp.log1p(xm) + xm * mp.log1p(1 / xm), 1e-15, x)
        assert g(0.0) == 0.0
        assert 0.0 < g(5e-324) < 1e-320  # 1/x would overflow without the normal-float clamp

    def test_eta(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for x in [float(v) for v in np.logspace(-300, 0, 601)] + [0.5, np.nextafter(1.0, 0.0)]:
                xm = mp.mpf(x)
                self._assert_close(eta(x), -xm * mp.log(xm), 1e-15, x)

    def test_h2(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for p in [float(v) for v in np.logspace(-300, math.log10(0.5), 601)]:
                pm = mp.mpf(p)
                self._assert_close(h2(p), -pm * mp.log(pm) - (1 - pm) * mp.log1p(-pm), 1e-15, p)
        assert h2(0.0) == h2(1.0) == 0.0

    def test_bounds(self):
        mp = pytest.importorskip("mpmath")
        spec, spec2 = OscillatorSpec(1, (1.0,)), OscillatorSpec(2, (1.0, 2.0))
        # the shifted closed form F(E + E_0) of prop3 and prop7, as `eval` and the suites pass it
        f_bar_of = {s: (lambda e, s=s: oscillator_f(s, e + s.ground_energy)) for s in (spec, spec2)}
        with mp.workdps(50):
            def g_mp(x):
                return mp.log1p(x) + x * mp.log1p(1 / x)

            def f_mp(s, energy):  # l log((E + E_0)/(l E_*)) + l
                l = s.modes
                return l * mp.log((energy + mp.mpf(s.ground_energy)) / (l * mp.mpf(s.geometric_energy))) + l

            def p_r_mp(e, r):
                er = e * mp.mpf(r)
                return (2 * e * (1 + 2 * mp.mpf(r)) * f_mp(spec, 5) + 4 * (2 + 1 / mp.mpf(r)) * (-er * mp.log(er))
                        + 4 * g_mp(er) + 6 * e * mp.exp(-1))

            log2 = mp.log(2)
            for eps in [float(v) for v in np.logspace(-15, 0, 151)]:
                e = mp.mpf(eps)
                root = mp.sqrt(2 * e)
                cases = {
                    "lemma4 finite": (lemma4_bound("finite", eps, d=4), 2 * e * mp.log(4) + 2 * g_mp(e)),
                    "lemma4 qc part_c": (lemma4_bound("qc", eps, d=3, part_c=True), e * mp.log(3) + g_mp(e)),
                    "prop2": (prop2_bound(eps, 3), 2 * e * mp.log(3) + 2 * e * log2 + 2 * g_mp(e)),
                    "prop2 same": (prop2_bound(eps, 2, same_channel=True, same_state=True),
                                   2 * e * log2 + g_mp(e)),
                    "prop4": (prop4_bound(eps, 2, 3), 3 * (2 * e * mp.log(4) + g_mp(e))),
                    "prop6": (prop6_bound(eps, 4), e * mp.log(4) + e * log2 + 2 * g_mp(e)),
                    "prop6 same": (prop6_bound(eps, 4, same_channel=True, same_ensemble=True),
                                   e * mp.log(4) + g_mp(e)),
                    "lemma4 energy": (lemma4_bound("energy", eps, f_handle=lambda x: oscillator_f(spec, x), energy=5.0),
                                      2 * root * f_mp(spec, 5 / e) + 2 * g_mp(root)),
                    "lemma4 energy part_c": (
                        lemma4_bound("energy", eps, f_handle=lambda x: oscillator_f(spec2, x), energy=5.0, part_c=True),
                        2 * root * f_mp(spec2, 5 / e) + g_mp(root)),
                    "lemma4 pure": (lemma4_bound("pure", eps, f_handle=lambda x: oscillator_f(spec, x), energy=5.0),
                                    2 * e * f_mp(spec, 10 / e**2) + 2 * g_mp(e)),
                    "prop8 P_r": (prop8_bound(eps, functools.partial(t_functional(spec, 5.0, r=0.3), 0)),
                                  p_r_mp(e, 0.3) + g_mp(e) + 2 * e * log2),
                }
                for s in (spec, spec2):
                    e0 = mp.mpf(s.ground_energy)
                    cases[f"prop3 l={s.modes}"] = (prop3_bound(eps, f_bar_of[s], 4.5),
                                                   2 * root * f_mp(s, 4.5 / e + e0) + 2 * g_mp(root))
                    cases[f"prop3 pure l={s.modes}"] = (prop3_bound(eps, f_bar_of[s], 4.5, pure=True),
                                                        2 * e * f_mp(s, 9 / e**2 + e0) + 2 * g_mp(e))
                    cases[f"prop7 l={s.modes}"] = (prop7_bound(eps, f_bar_of[s], 3.0),
                                                   2 * root * f_mp(s, 3 / e + e0) + 2 * g_mp(root))
                for cap, (a, b) in {"chi": (1, 1), "c": (2, 1), "q": (2, 1), "pbar": (2, 2), "p": (4, 2)}.items():
                    cases[f"thm1 {cap}"] = (theorem1_bound(cap, eps, d_a=64), a * e * (mp.log(64) + log2) + b * g_mp(e))
                    cases[f"thm1 {cap} log_d_a=1e6"] = (theorem1_bound(cap, eps, log_d_a=1e6),
                                                        a * e * (mp.mpf(10) ** 6 + log2) + b * g_mp(e))
                    for r in (0.3, 1.0):
                        cases[f"thm2 {cap} P_r r={r}"] = (theorem2_bound(cap, eps, t_functional(spec, 5.0, r=r)),
                                                          b * (p_r_mp(e, r) + g_mp(e) + 2 * e * log2))
                    # the erasure gap at x = eps/2, on scales log 5 and 1e3
                    x = mp.mpf(eps / 2)
                    for m in (math.log(5), 1e3):
                        cases[f"erasure_delta {cap} M={m:g}"] = (erasure_delta(cap, eps / 2, m),
                                                                 (1 if cap in ("chi", "c") else 2) * x * mp.mpf(m))
                for r in (0.3, 1.0):
                    cases[f"p_r r={r}"] = (p_r(spec, 5.0, eps, r), p_r_mp(e, r))
                # erasure capacities at p = eps and p = 1/2 - eps/2 (the quantum ones are 0 from p = 1/2)
                for p in (eps, 0.5 - eps / 2):
                    for d in (2, 64, 10**6):
                        got, pm, log_d = erasure_capacities(d, p), mp.mpf(p), mp.log(d)
                        for field, exact in (("c_chi", (1 - pm) * log_d), ("c", (1 - pm) * log_d),
                                             ("q", max((1 - 2 * pm) * log_d, 0)), ("c_p", max((1 - 2 * pm) * log_d, 0)),
                                             ("c_p_bar", max((1 - 2 * pm) * log_d, 0))):
                            cases[f"erasure_capacities {field} d={d} p={p}"] = (getattr(got, field), exact)
                for name, (got, exact) in cases.items():
                    self._assert_close(got, exact, 4e-15, (name, eps))


class TestOscillatorSubstitution:
    def test_prop3_closed_form_dominates_numeric(self):
        # the oscillator closed form upper-bounds the realized max entropy,
        # so substituting it can only loosen (never break) the bound
        from chanbound.energy import f_bar

        spec = OscillatorSpec(1, (1.0,), truncation=60)
        h = spec.to_hamiltonian()
        for eps in (0.05, 0.2, 0.6):
            loose = prop3_bound(eps, lambda e: oscillator_f(spec, e + spec.ground_energy), 4.5)
            tight = prop3_bound(eps, lambda e: f_bar(h, e), 4.5)
            assert loose >= tight - 1e-12
