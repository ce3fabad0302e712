"""Evaluators for the continuity-bound formulas and erasure closed forms.

Every evaluator is in nats and is monotone nondecreasing in its epsilon
argument, which is what makes bracket-based verdicts sound: evaluating at
a certified lower/upper end of epsilon brackets the true right-hand side.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .energy import EnergyDomainError, Hamiltonian, OscillatorSpec, check_s_flag, f_h, oscillator_f, oscillator_gamma_hat_domain_min, oscillator_gamma_hat_unchecked
from .entropic import eta, g
from .qstate import QStateError

LOG2 = math.log(2.0)

LEMMA4_VARIANTS = ("finite", "qc", "energy", "pure")
CAPACITIES = ("chi", "c", "q", "pbar", "p")

_T1_MAIN = {"chi": 1.0, "c": 2.0, "q": 2.0, "pbar": 2.0, "p": 4.0}
_T1_G = {"chi": 1.0, "c": 1.0, "q": 1.0, "pbar": 2.0, "p": 2.0}
_T2_MULT = {"chi": 1.0, "c": 1.0, "q": 1.0, "pbar": 2.0, "p": 2.0}
_T2_TFLAG = {"chi": 0, "c": 0, "q": 1, "pbar": 0, "p": 1}


def _check_eps(epsilon: float, hi: float = 1.0) -> float:
    eps = float(epsilon)
    if not (0.0 <= eps <= hi + 1e-12 and math.isfinite(eps)):
        raise ValueError(f"epsilon {eps} is not a finite value in [0, {hi}]")
    return eps


def _check_energy(energy: float, name: str, floor: float = -math.inf):
    """Reject a non-finite energy, or one below `floor`, before any eps = 0 shortcut,
    as the oscillator handles do at eps > 0."""
    if not (math.isfinite(energy) and energy >= floor):
        rule = "finite" if floor == -math.inf else f"finite and >= {floor:g}"
        raise EnergyDomainError(f"{name} {energy} must be {rule}")


def check_integer(value, name: str) -> int:
    """int(value), never truncated: any value that is not an integer raises ValueError, naming `name`.

    A fractional part, inf, NaN, None and a string that is no number all
    raise.  The one integer rule of evaluator counts and dimensions,
    `chanbound eval` parameters and campaign configs.
    """
    if isinstance(value, numbers.Integral):  # never converted to float: a huge int need not fit
        return int(value)
    try:
        if float(value).is_integer():  # not inf or NaN; a string of digits is read exactly, however long
            return int(value if isinstance(value, str) and value.strip().lstrip("+-").isdecimal() else float(value))
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} = {value} must be an integer")


def check_real(value, name: str) -> float:
    """float(value), else ValueError naming `name`; NaN and inf pass, for the caller's range rule to name."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} = {value} must be a real number") from None


def check_dimension(d, name: str = "d_a") -> int:
    """`d` as an int if it is an integer >= 1; else raise ValueError, naming `name`, before it reaches log.

    A value that is not a real number goes through `check_integer` first.
    Below 1 (NaN too) is "must be >= 1"; a value with a fractional part,
    or an infinite one, is "must be an integer".
    """
    if not isinstance(d, numbers.Real):
        d = check_integer(d, name)
    if not d >= 1:
        raise ValueError(f"{name} = {d} must be >= 1")
    return check_integer(d, name)


def lemma4_bound(
    variant: str,
    epsilon: float,
    d: Optional[int] = None,
    f_handle: Optional[Callable[[float], float]] = None,
    energy: Optional[float] = None,
    part_c: bool = False,
) -> float:
    """Conditional-mutual-information continuity bound, by variant.

    finite : 2 eps log d + 2 g(eps)
    qc     : eps log d + 2 g(eps)
    energy : 2 sqrt(2 eps) F(E/eps) + 2 g(sqrt(2 eps))
    pure   : the energy formula with eps replaced by eps^2/2
    The part_c flag (equal BC marginals) halves the g-term coefficient.
    """
    if variant not in LEMMA4_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {LEMMA4_VARIANTS}")
    eps = _check_eps(epsilon)
    if variant in ("finite", "qc"):
        if d is None:
            raise ValueError("finite variants need the support dimension d >= 1")
        d = check_dimension(d, "d")
    elif energy is not None:
        _check_energy(energy, "energy", floor=0.0)
    if eps == 0.0:
        return 0.0
    g_coef = 1.0 if part_c else 2.0
    if variant in ("finite", "qc"):
        main_coef = 2.0 if variant == "finite" else 1.0
        return main_coef * eps * math.log(d) + g_coef * g(eps)
    if f_handle is None or energy is None:
        raise ValueError("energy variants need an entropy handle and an energy cap")
    eff = eps * eps / 2.0 if variant == "pure" else eps
    root = math.sqrt(2.0 * eff)
    return 2.0 * root * f_handle(energy / eff) + g_coef * g(root)


def prop2_bound(
    epsilon: float, d_a: int, same_channel: bool = False, same_state: bool = False
) -> float:
    """Output-CMI bound 2 eps log d_A + 2 eps log 2 + 2 g(eps).

    same_channel drops the 2 eps log 2 term; same_state halves the g term.
    """
    eps = _check_eps(epsilon, hi=math.inf)
    d_a = check_dimension(d_a)
    if eps == 0.0:
        return 0.0
    value = 2.0 * eps * math.log(d_a)
    if not same_channel:
        value += 2.0 * eps * LOG2
    value += (1.0 if same_state else 2.0) * g(eps)
    return value


def prop3_bound(
    epsilon: float,
    f_bar_handle: Callable[[float], float],
    e_bar: float,
    pure: bool = False,
) -> float:
    """Energy-constrained output-CMI bound 2 sqrt(2 eps) Fbar(Ebar/eps) + 2 g(sqrt(2 eps)): Lemma 4's energy form."""
    eps = _check_eps(epsilon)
    _check_energy(e_bar, "shifted energy", floor=0.0)
    return lemma4_bound("pure" if pure else "energy", eps, f_handle=f_bar_handle, energy=e_bar)


def prop4_bound(epsilon: float, d_a: int, n: int) -> float:
    """n-copy bound n (2 eps log(2 d_A) + g(eps)) for eps = channel Bures distance."""
    eps = _check_eps(epsilon, hi=math.sqrt(2.0))
    d_a, n = check_dimension(d_a), check_dimension(n, "n")
    if eps == 0.0:
        return 0.0
    return n * (2.0 * eps * math.log(2.0 * d_a) + g(eps))


@dataclass(frozen=True)
class TstResult:
    value: float
    d_star: int


def t_st(
    epsilon: float,
    e_bar: float,
    handle: Union[Hamiltonian, OscillatorSpec],
    s: int,
    t: int,
    d_cap: int = 10**6,
) -> TstResult:
    """T_{s,t}(E, eps): minimum over integers d <= d_cap with gamma(d) >= 2 Ebar of

        (4 sqrt(2^s Ebar/gamma(d)) + 4 s t Ebar/gamma(d) + 2 eps) log d
        + 4 g(sqrt(2^s Ebar/gamma(d))).

    gamma is the handle's own: its `gammas` array on [d_0, dim] for a
    Hamiltonian, the closed-form gamma-hat from its domain floor for an
    oscillator.  The scan runs upward in numpy blocks and stops once
    2 eps log d reaches the best value: every term is >= 0 and
    log d grows, so no larger d can beat it.  The result is the exact
    minimum over the feasible d <= d_cap, at the smallest minimising d.
    """
    eps = _check_eps(epsilon, hi=math.inf)
    if not -1e-12 <= e_bar < math.inf:  # NaN fails too
        raise ValueError(f"E - E_0 = {e_bar} must be finite and >= 0")
    e_bar = max(e_bar, 0.0)
    if s not in (0, 1) or t not in (0, 1):
        raise ValueError("s and t are binary flags")
    if isinstance(handle, OscillatorSpec):
        d, hi = oscillator_gamma_hat_domain_min(handle), d_cap
        gamma_of = lambda ds: oscillator_gamma_hat_unchecked(handle, ds)
    else:
        d0 = handle.ground_multiplicity
        d, hi = d0, min(handle.dim, d_cap)
        gamma_of = lambda ds: handle.gammas[ds - d0]
    best = math.inf
    best_d = 0
    while d <= hi and 2.0 * eps * np.log(d) < best:
        # blocks double up to 32768 d, past which their temporaries leave the cache
        ds = np.arange(d, min(2 * d + 63, d + 32768, hi + 1))
        gams = gamma_of(ds)
        feasible = gams >= 2.0 * e_bar
        if e_bar > 0.0:
            feasible &= gams > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(feasible & (gams > 0), (2.0**s) * e_bar / gams, 0.0)
        root = np.sqrt(ratio)
        obj = (4.0 * root + 4.0 * s * t * ratio + 2.0 * eps) * np.log(ds) + 4.0 * g(root)
        obj[~feasible] = math.inf
        i = int(np.argmin(obj))
        if obj[i] < best:
            best, best_d = float(obj[i]), int(ds[i])
        d = int(ds[-1]) + 1
    if best_d == 0:
        raise QStateError(
            f"no feasible d <= {hi} with gamma(d) >= 2(E - E_0) = {2 * e_bar}"
        )
    return TstResult(value=best, d_star=best_d)


def prop5_bound(epsilon: float, n: int, t_handle: Callable[[float], float]) -> float:
    """n-copy output-CMI bound n (T(eps) + g(eps) + 2 eps log 2); n T(0) at eps = 0."""
    eps = _check_eps(epsilon, hi=math.inf)
    n = check_dimension(n, "n")
    return n * (t_handle(eps) + g(eps) + 2.0 * eps * LOG2)


def p_r(spec: OscillatorSpec, energy: float, epsilon: float, r: float) -> float:
    """Oscillator closed form replacing the T functional:

        2 eps (1 + 2r) F(E) + 4 l (2 + 1/r) eta(eps r) + 4 g(eps r) + 6 eps e^{-l}.
    """
    eps = _check_eps(epsilon, hi=math.inf)
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r = {r} outside (0, 1]")
    if eps * r > 1.0 + 1e-12:
        raise ValueError(f"eps * r = {eps * r} > 1: outside the formula's domain")
    f_e = oscillator_f(spec, energy)  # checks the energy at eps = 0 too
    if eps == 0.0:
        return 0.0
    l = spec.modes
    return (
        2.0 * eps * (1.0 + 2.0 * r) * f_e
        + 4.0 * l * (2.0 + 1.0 / r) * eta(eps * r)
        + 4.0 * g(eps * r)
        + 6.0 * eps * math.exp(-l)
    )


def t_functional(
    system: Union[Hamiltonian, OscillatorSpec], e_cap: float, r: Optional[float] = None, d_cap: int = 10**6
) -> Callable[[int, float], float]:
    """The handle t_fn(t, eps) through which Theorem 2 and Propositions 5 and 8 bound a variation.

    With r it is the oscillator closed form P_r at r, which ignores t; `p_r`
    itself checks r and the energy here, once, at eps = 0.  Otherwise it is
    T_{s,t}(E, eps) of `t_st` at E - E_0, with the s flag of
    `check_s_flag` (0 for an oscillator), decided once here.  `t_st`
    and `p_r` are looked up by name on each call, so wrapping either one
    in this module reaches every handle.
    """
    if r is not None:
        if not isinstance(system, OscillatorSpec):
            raise ValueError("P_r is an oscillator closed form; a spectrum takes T")
        p_r(system, e_cap, 0.0, r)
        return lambda t, eps: p_r(system, e_cap, eps, r)
    e_bar, s = e_cap - system.ground_energy, check_s_flag(system)
    return lambda t, eps: t_st(eps, e_bar, system, s=s, t=t, d_cap=d_cap).value


def prop6_bound(
    epsilon: float, d_a: int, same_channel: bool = False, same_ensemble: bool = False
) -> float:
    """Output-Holevo bound eps log d_A + eps log 2 + 2 g(eps).

    same_channel drops the eps log 2 term; same_ensemble halves the g term.
    """
    eps = _check_eps(epsilon, hi=math.inf)
    d_a = check_dimension(d_a)
    if eps == 0.0:
        return 0.0
    value = eps * math.log(d_a)
    if not same_channel:
        value += eps * LOG2
    value += (1.0 if same_ensemble else 2.0) * g(eps)
    return value


def prop7_bound(epsilon: float, f_bar_handle: Callable[[float], float], e_bar: float) -> float:
    """Energy-constrained ensemble-Holevo bound; same shape as prop3 without the pure option."""
    return prop3_bound(epsilon, f_bar_handle, e_bar, pure=False)


def prop8_bound(epsilon: float, t_handle: Callable[[float], float]) -> float:
    """Composite T(eps) + g(eps) + 2 eps log 2 for the channel-side Holevo variation."""
    eps = _check_eps(epsilon, hi=math.inf)
    if eps == 0.0:
        return 0.0
    return t_handle(eps) + g(eps) + 2.0 * eps * LOG2


def theorem1_bound(
    capacity: str,
    epsilon: float,
    d_a: Optional[int] = None,
    log_d_a: Optional[float] = None,
) -> float:
    """Input-dimension capacity bounds: a (eps log d_A + eps log 2) + b g(eps).

    Coefficients (a, b) per capacity: chi (1,1), c (2,1), q (2,1),
    pbar (2,2), p (4,2).  `log_d_a` supports closed-form sweeps at
    dimensions far beyond dense simulation; it must be finite and >= 0,
    as d_a must be >= 1.
    """
    if capacity not in CAPACITIES:
        raise ValueError(f"unknown capacity {capacity!r}; expected one of {CAPACITIES}")
    eps = _check_eps(epsilon, hi=math.sqrt(2.0))
    if (d_a is None) == (log_d_a is None):
        raise ValueError("give exactly one of d_a and log_d_a")
    if d_a is not None:
        ld = math.log(check_dimension(d_a))
    else:
        ld = float(log_d_a)
        if not 0.0 <= ld < math.inf:  # NaN fails too
            raise ValueError(f"log_d_a = {ld} must be finite and >= 0")
    if eps == 0.0:
        return 0.0
    return _T1_MAIN[capacity] * eps * (ld + LOG2) + _T1_G[capacity] * g(eps)


def theorem2_bound(
    capacity: str, epsilon: float, t_fn: Callable[[int, float], float]
) -> float:
    """Input-energy capacity bounds m (T_t(eps) + g(eps) + 2 eps log 2).

    m = 1 for chi/c/q and 2 for pbar/p; the t flag is 1 for q and p, else 0.
    `t_fn(t, eps)` supplies T_{s,t}(E, eps) or its oscillator replacement
    P_r (which is t-independent).
    """
    if capacity not in CAPACITIES:
        raise ValueError(f"unknown capacity {capacity!r}; expected one of {CAPACITIES}")
    eps = _check_eps(epsilon, hi=math.inf)
    if eps == 0.0:
        return 0.0
    m = _T2_MULT[capacity]
    t = _T2_TFLAG[capacity]
    return m * (t_fn(t, eps) + g(eps) + 2.0 * eps * LOG2)


@dataclass(frozen=True)
class ErasureCapacities:
    c_chi: float
    c: float
    q: float
    c_p: float
    c_p_bar: float


def erasure_capacities(
    d: int, p: float, energy: Optional[tuple[Hamiltonian, float]] = None
) -> ErasureCapacities:
    """Closed-form erasure capacities: (1-p) M and max{(1-2p) M, 0}.

    M = log d unconstrained; with an energy cap (H, E), M = F_H(E).
    """
    d = check_dimension(d, "d")
    if d < 2:
        raise ValueError(f"erasure input dimension {d} must be >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} outside [0, 1]")
    if energy is None:
        m = math.log(d)
    else:
        h, e = energy
        m = f_h(h, e)
    classical = (1.0 - p) * m
    quantum = max((1.0 - 2.0 * p) * m, 0.0)
    return ErasureCapacities(c_chi=classical, c=classical, q=quantum, c_p=quantum, c_p_bar=quantum)


def erasure_delta(capacity: str, x: float, m: float) -> float:
    """C_*(erase(1/2 - x)) - C_*(erase(1/2)) from the closed forms: x M or 2 x M."""
    if capacity not in CAPACITIES:
        raise ValueError(f"unknown capacity {capacity!r}")
    if not 0.0 <= x <= 0.5:
        raise ValueError(f"x = {x} outside [0, 1/2]")
    return x * m if capacity in ("chi", "c") else 2.0 * x * m


def erasure_isometry_gap(x: float) -> float:
    """Closed-form operator norm of V_(1/2-x) - V_(1/2): sqrt(2 - sqrt(1-2x) - sqrt(1+2x)).

    The radicand is about x^2, a difference of numbers near 1 that cancels
    (to 0 at x = 1e-8), so it is evaluated as 8 x^2 / ((a + b)(1 + a)(1 + b))
    with a = sqrt(1 - 2x) and b = sqrt(1 + 2x), which has no subtraction:
    2 - a - b = 2x / (1 + a) - 2x / (1 + b) and b - a = 4x / (a + b).
    """
    if not 0.0 <= x <= 0.5:
        raise ValueError(f"x = {x} outside [0, 1/2]")
    a, b = math.sqrt(1.0 - 2.0 * x), math.sqrt(1.0 + 2.0 * x)
    return 2.0 * math.sqrt(2.0) * x / math.sqrt((a + b) * (1.0 + a) * (1.0 + b))


def erasure_family(x: float, m: float, capacities: Sequence[str] = CAPACITIES) -> list[tuple[str, float, float]]:
    """(capacity, gap, epsilon) of erase(1/2 - x) against erase(1/2), per capacity.

    The gap is `erasure_delta` at scale m (log d, or F_H(E) under an energy
    cap), and epsilon the closed-form isometry gap.
    """
    eps = erasure_isometry_gap(x)
    return [(cap, erasure_delta(cap, x, m), eps) for cap in capacities]
