"""Verification campaigns: one suite per statement family.

Each suite is a row of `_SUITES`: a setup that builds the campaign's fixed
parts once (energy system, layouts, cap, fixed channel or ensemble) and a
draw that turns one trial's seeded generators into rows (row name, lhs,
epsilon, rhs, certificates).  Epsilon is a float when it is known exactly,
or an (eps_lo, eps_hi) bracket; rhs is a cap, or (bound, params) of the
bound table `BOUNDS`, evaluated at both ends and recorded with the row.
`run_suite` alone runs the trials and classifies each row with the
three-way verdict logic, so the same config and seed give identical
results independent of scheduling.

Every trial draws from its own stream, SeedSequence((seed, trial)), so
trials are independent and `run_suite` spreads them over the cores the
process may use.  It cuts range(trials) into W contiguous blocks of at
least `_MIN_BLOCK` trials, W at most the usable cores (`_workers`).  The
process runs block 0 itself and forks one child per other block; the
child inherits the campaign's fixed parts, lambdas and all, and pickles
its block's verdicts, or its exception, and the warnings it recorded back
over a private pipe before it ends in `os._exit`.  The parent joins the
blocks in trial order, so the report is byte-identical to a serial run.
It re-raises the exception of the lowest failing block, after every
child is reaped, and re-emits a child's warnings through
`warnings.warn_explicit`, so the caller's filters decide as in a serial
run.  A run stays serial on one usable core (`taskset -c 0`), where
`os.sched_getaffinity` is missing, or where other threads run, since a
fork copies only the calling thread.  Closed-form grids (thm1, thm2) have
no trials and always run serially.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import pickle
import signal
import sys
import threading
import traceback
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
from .verdict import BoundVerdict, classify, summarize

# trial index of the stream that draws a campaign's fixed channel or ensemble
_FIXED_TRIAL = 10**9

#: the keys of an oscillator, for `parse_oscillator`
OSCILLATOR_KEYS = ("modes", "frequencies", "hbar", "truncation")

#: slack of the identities and metrics rows, and of the chain rule's two sums of four entropies
_EQ_TOL, _CHAIN_TOL = 1e-9, 1e-8


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
        self.dims, self.budgets = checked_object(self.dims, "dims"), checked_object(self.budgets, "budgets")
        if self.energy is not None:  # {} too means no energy section
            self.energy = checked_object(self.energy, "energy") or None

    def budget(self, key: str, default):
        return self.budgets.get(key, default)

    def dim(self, key: str, default: Optional[int]) -> Optional[int]:
        """dims[key] through `bounds.check_integer`, or `default` when the key is absent."""
        return bnd.check_integer(self.dims[key], key) if key in self.dims else default

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _reject_unknown(doc: dict, keys, what: str):
    unknown = set(doc) - set(keys)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def checked_list(values, name: str, rule=bnd.check_real) -> list:
    """Each entry of the list `values` through `rule`, naming `name`: a grid must be a nonempty list."""
    if not isinstance(values, list):
        raise ValueError(f"{name} = {values} must be a list")
    if not values:
        raise ValueError(f"{name} = [] must not be empty")
    return [rule(v, name) for v in values]


def checked_object(value, name: str) -> dict:
    """A copy of `value`, a config section or grid entry named `name`, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} = {value} must be a JSON object")
    return dict(value)


def config_from_dict(doc: dict) -> CampaignConfig:
    _reject_unknown(doc, [f.name for f in dataclasses.fields(CampaignConfig)], "config")
    return CampaignConfig(**doc)


def parse_oscillator(doc: dict) -> OscillatorSpec:
    """Oscillator keys -> OscillatorSpec, the one oscillator parser of configs, sweep grids and `eval`.

    `modes` (default 1), `frequencies` (one number serves every mode;
    default 1.0), `hbar` (default 1.0) and `truncation` (default 40); any
    other key is an error.
    """
    _reject_unknown(doc, OSCILLATOR_KEYS, "oscillator energy")
    modes = bnd.check_dimension(doc.get("modes", 1), "modes")
    freqs = doc.get("frequencies", 1.0)
    return OscillatorSpec(
        modes=modes,
        frequencies=tuple(checked_list(freqs, "frequencies") if isinstance(freqs, list)
                          else [bnd.check_real(freqs, "frequencies")] * modes),
        hbar=bnd.check_real(doc.get("hbar", 1.0), "hbar"),
        truncation=bnd.check_integer(doc.get("truncation", 40), "truncation"),
    )


def parse_system(doc: dict):
    """An energy system's config keys, E aside -> Hamiltonian or OscillatorSpec; a key the kind does not take is an error."""
    kind, system = doc.get("kind", "oscillator"), {k: v for k, v in doc.items() if k != "kind"}
    if kind == "oscillator":
        return parse_oscillator(system)
    if kind != "spectrum":
        raise ValueError(f"unknown energy kind {kind!r}")
    _reject_unknown(system, ("eigenvalues",), "spectrum energy")
    return Hamiltonian(np.asarray(checked_list(doc["eigenvalues"], "eigenvalues")))


def parse_energy(doc: dict):
    """Energy config -> (Hamiltonian or OscillatorSpec, E)."""
    return parse_system({k: v for k, v in doc.items() if k != "E"}), bnd.check_real(doc["E"], "E")


def system_params(handle) -> dict:
    """Every config key, `kind` and E aside, that `parse_system` reads back as `handle`: a bound's params."""
    if isinstance(handle, OscillatorSpec):
        return {**dataclasses.asdict(handle), "frequencies": list(handle.frequencies)}
    return {"eigenvalues": handle.eigenvalues.tolist()}


# ---------------------------------------------------------------------------
# the bound table: every right-hand side of the suites, the sweeps and `eval`
# ---------------------------------------------------------------------------

def _flag(raw, name: str) -> bool:
    if raw not in ("0", "1", 0, 1):  # False and True are 0 and 1
        raise ValueError(f"{name} = {raw} must be 0 or 1")
    return raw in ("1", 1)


def _numbers(raw, name: str):
    """`eval`'s 'w1:w2:...' as a list of floats, and one number as a float; a config's list as it is."""
    try:
        return ([float(v) for v in raw.split(":")] if ":" in raw else float(raw)) if isinstance(raw, str) else raw
    except ValueError:
        raise ValueError(f"{name} = {raw} must be numbers separated by ':'") from None


#: the rule of each parameter kind, and the keys of the two energy-system kinds as a config's
#: `energy` writes them: an oscillator's, or ("system") an oscillator's or a spectrum's
_RULES = {"integer": bnd.check_integer, "real": bnd.check_real, "flag": _flag}
_SYSTEMS = {"oscillator": OSCILLATOR_KEYS, "system": OSCILLATOR_KEYS + ("eigenvalues",)}
#: a given key -> the keys it leaves unread: P_r at r reads no t or d_cap, and log_d_a replaces d_a
_UNREAD_WITH = {"r": ("t", "d_cap"), "log_d_a": ("d_a",)}


@functools.lru_cache(maxsize=256)
def _handle(role: str, system: str, e_cap=None, r=None, d_cap=None):
    """The energy system written as the JSON `system` ("system"), its F ("f"), F-bar ("fbar")
    or `t_functional` ("t"): built once per arguments while cached, never per row."""
    if role == "system":
        return parse_system(json.loads(system))
    handle = _handle("system", system)
    if role == "t":
        return bnd.t_functional(handle, e_cap, r, d_cap)
    f = functools.partial(oscillator_f if isinstance(handle, OscillatorSpec) else f_h, handle)
    return f if role == "f" else lambda e: f(e + handle.ground_energy)  # F-bar(E) = F(E + E_0)


_FLAG, _T = ("flag", False), {"E": "real", "r": ("real", None), "d_cap": ("integer", 10**6)}  # T at E, or P_r at r

#: bound name -> (evaluator, schema): the schema lists the evaluator's arguments in order, each
#: parameter's kind, or (kind, default) when it may be left out; an energy system stands for its
#: kind's keys.  Every bound but erasure_gap reads eps and is its value at epsilon = eps.
BOUNDS = {
    "erasure_gap": (bnd.erasure_isometry_gap, {"x": "real"}),
    **{f"lemma4_{v}": (lambda eps, d, part_c, v=v: bnd.lemma4_bound(v, eps, d, part_c=part_c),
                       {"eps": "real", "d": "integer", "part_c": _FLAG}) for v in ("finite", "qc")},
    **{f"lemma4_{v}": (lambda eps, system, e_cap, part_c, v=v: bnd.lemma4_bound(
                           v, eps, f_handle=_handle("f", system), energy=e_cap, part_c=part_c),
                       {"eps": "real", "system": "system", "E": "real", "part_c": _FLAG}) for v in ("energy", "pure")},
    "prop2": (bnd.prop2_bound, {"eps": "real", "d_a": "integer", "same_channel": _FLAG, "same_state": _FLAG}),
    "prop3": (lambda eps, system, e_bar, pure: bnd.prop3_bound(eps, _handle("fbar", system), e_bar, pure),
              {"eps": "real", "system": "system", "E_bar": "real", "pure": _FLAG}),
    "prop4": (bnd.prop4_bound, {"eps": "real", "d_a": "integer", "n": ("integer", 1)}),
    "prop5": (lambda eps, system, n, t, *t_args: bnd.prop5_bound(eps, n, functools.partial(_handle("t", system, *t_args), t)),
              {"eps": "real", "system": "oscillator", "n": ("integer", 1), "t": ("integer", 0), **_T}),
    "prop6": (bnd.prop6_bound, {"eps": "real", "d_a": "integer", "same_channel": _FLAG, "same_ensemble": _FLAG}),
    "prop7": (lambda eps, system, e_bar: bnd.prop7_bound(eps, _handle("fbar", system), e_bar),
              {"eps": "real", "system": "system", "E_bar": "real"}),
    "prop8": (lambda eps, system, *t_args: bnd.prop8_bound(eps, functools.partial(_handle("t", system, *t_args), 0)),
              {"eps": "real", "system": "system", **_T}),
    "t_st": (lambda eps, system, t, *t_args: _handle("t", system, *t_args)(t, eps),
             {"eps": "real", "system": "system", "t": ("integer", 0), **_T}),
    **{name: (lambda eps, system, e_cap, r: bnd.p_r(_handle("system", system), e_cap, eps, r),
              {"eps": "real", "system": "oscillator", "E": "real", "r": ("real", 1.0)}) for name in ("p_r", "corollary_osc")},
    **{f"thm1_{cap}": (functools.partial(bnd.theorem1_bound, cap),
                       {"eps": "real", "d_a": ("integer", None), "log_d_a": ("real", None)}) for cap in bnd.CAPACITIES},
    **{f"thm2_{cap}": (lambda eps, *t_args, cap=cap: bnd.theorem2_bound(cap, eps, _handle("t", *t_args)),
                       {"eps": "real", "system": "oscillator", **_T}) for cap in bnd.CAPACITIES},
}


def bound_value(bound: str, given: dict, names: Optional[dict] = None) -> float:
    """BOUNDS[bound] at `given`, key -> value as a config or `eval` writes it (`names`: key -> name as given).

    A key left out takes its default, else raises KeyError; `eigenvalues` makes the system a spectrum.
    A given key the bound does not read is an error that names it and lists what the bound reads.
    """
    if bound not in BOUNDS:
        raise ValueError(f"unknown bound {bound!r}")
    evaluator, schema = BOUNDS[bound]
    names = names or {}
    unread = {key for g in given for key in _UNREAD_WITH.get(g, ())}
    reads = {k for key, kind in schema.items() if key not in unread for k in _SYSTEMS.get(kind, (key,))}
    if extra := sorted(names.get(key, key) for key in given if key not in reads):
        raise ValueError(f"{bound} reads no parameters {extra}; it reads {sorted(reads)}")
    values = []
    for key, kind in schema.items():
        kind, *default = kind if isinstance(kind, tuple) else (kind,)
        if kind in _SYSTEMS:  # as sorted JSON, the key of its cached handles
            doc = {k: _numbers(given[k], names.get(k, k)) if k in ("frequencies", "eigenvalues") else given[k]
                   for k in _SYSTEMS[kind] if k in given}
            values.append(json.dumps({"kind": "spectrum" if "eigenvalues" in doc else "oscillator", **doc}, sort_keys=True))
        elif key in given:
            values.append(_RULES[kind](given[key], names.get(key, key)))
        elif default:
            values.append(default[0])
        else:
            raise KeyError(key)
    return evaluator(*values)


@dataclass(frozen=True)
class CampaignReport:
    suite: str
    seed: int
    config: dict
    verdicts: tuple
    summary: dict


def run_suite(config: CampaignConfig) -> CampaignReport:
    """Set the suite up once, draw every trial, and classify each row (see the module docstring)."""
    setup, draw, dims_keys, budget_keys, reads_energy = _SUITES[config.suite]
    for part, keys in (("dims", dims_keys), ("budgets", budget_keys)):
        unknown = sorted(set(getattr(config, part)) - set(keys))
        if unknown:
            raise ValueError(f"{config.suite} takes no {part} keys {unknown}; it reads {sorted(keys)}")
    if config.energy and not reads_energy:
        readers = ", ".join(name for name, row in _SUITES.items() if row[4])
        raise ValueError(f"{config.suite} takes no energy section; only {readers} read one")
    fixed = setup(config)
    if draw is None:
        verdicts = _verdicts(config.suite, enumerate([row] for row in fixed))
    else:
        verdicts = _run_blocks(functools.partial(_block_verdicts, config, draw, fixed),
                               config.trials, _workers(config.trials))
    return CampaignReport(config.suite, config.seed, config.to_dict(), tuple(verdicts), summarize(verdicts))


def _verdicts(suite: str, trials) -> list:
    """Every row of each (trial, rows) in `trials`, classified, in order."""
    verdicts = []
    for trial, rows in trials:
        for name, lhs, eps, rhs, certs in rows:
            eps_lo, eps_hi = eps if isinstance(eps, tuple) else (eps, eps)
            if isinstance(rhs, tuple):  # (bound, params): the table's bound at both ends, recorded with the row
                bound, params = rhs
                certs = {**certs, "bound": bound, "params": params}
                rhs_lo = bound_value(bound, {**params, "eps": eps_lo})
                rhs_hi = bound_value(bound, {**params, "eps": eps_hi}) if isinstance(eps, tuple) else rhs_lo
            else:
                rhs_lo = rhs_hi = rhs
            verdicts.append(BoundVerdict(suite, trial, name, float(lhs), float(eps_lo), float(eps_hi),
                                         float(rhs_lo), float(rhs_hi), classify(lhs, rhs_lo, rhs_hi), certs))
    return verdicts


def _block_verdicts(config: CampaignConfig, draw, fixed, block: range) -> list:
    """The verdicts of the trials in `block`, each drawn from its own seeded generators."""
    return _verdicts(config.suite, ((t, draw(fixed, Generators.for_trial(config.seed, t), t)) for t in block))


# ---------------------------------------------------------------------------
# trial blocks on the usable cores
# ---------------------------------------------------------------------------

#: fewest trials in a block of its own: a fork, its pipe, the pickled verdicts and
#: the reap cost 2.3 ms with numpy loaded (2-core Xeon), as much as 3 lemma4
#: trials (0.86 ms each, the cheapest), so a block of 8 repays its fork
_MIN_BLOCK = 8


def _workers(trials: int) -> int:
    """Blocks a campaign of `trials` trials is cut into: the usable cores, at most one
    per `_MIN_BLOCK` trials; 1 without `os.sched_getaffinity` or while other threads
    run, since a fork copies only the calling thread, and a lock another thread
    holds would stay locked in the child."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), trials // _MIN_BLOCK))


def _run_blocks(run_block, trials: int, workers: int) -> list:
    """run_block over `workers` contiguous blocks of range(trials), joined in trial order.

    Block 0 runs in this process and every other block in a child forked
    for it.  If block 0 raises, the children are killed; either way every
    child is reaped before anything is raised.  Then each child's
    warnings are re-emitted and its verdicts joined, block by block, and
    the first block that failed raises its exception.
    """
    cuts = [trials * k // workers for k in range(workers + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    if workers == 1:
        return run_block(blocks[0])
    children = []  # (pid, read end of its pipe)
    try:
        for block in blocks[1:]:
            children.append(_fork_block(run_block, block))
        verdicts = run_block(blocks[0])
        sent = [_read_all(fd) for _, fd in children]
    except BaseException:
        for pid, _ in children:
            with contextlib.suppress(ProcessLookupError):  # reaped already where SIGCHLD is ignored
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [_reap(pid, fd) for pid, fd in children]
    for block, data, status in zip(blocks[1:], sent, statuses):
        if not data:
            raise RuntimeError(f"the child that ran trials {block.start}..{block.stop - 1} sent no result "
                               f"(wait status {status})")
        (ok, value), caught = pickle.loads(data)
        for message, category, filename, lineno in caught:
            _rewarn(message, category, filename, lineno)
        if not ok:
            raise value
        verdicts.extend(value)
    return verdicts


def _fork_block(run_block, block: range):
    """Fork a child that runs `block` and pipes back its result; returns (pid, read end)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:  # the child never returns: it ends in os._exit, without the parent's exit handlers
        os.close(read_fd)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # the parent's filters decide when it re-emits them
            try:
                outcome = (True, run_block(block))
            except BaseException as exc:
                outcome = (False, _portable(exc, block))
        data = pickle.dumps((outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]),
                            pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _portable(exc: BaseException, block: range) -> BaseException:
    """`exc` with the child's traceback as a note, if it survives pickling; else a RuntimeError naming it."""
    if hasattr(exc, "add_note"):
        exc.add_note(f"in the child that ran trials {block.start}..{block.stop - 1}:\n{traceback.format_exc()}")
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _reap(pid: int, fd: int):
    """Close the child's pipe and wait for it; returns its wait status (None if already reaped elsewhere)."""
    os.close(fd)
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return None


def _rewarn(message, category, filename: str, lineno: int):
    """A child's warning, as `warnings.warn` would have raised it here: under the
    module and registry of the code it is attributed to, so filters and once-only
    actions act as in a serial run."""
    module = next((m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename), None)
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        warnings.warn_explicit(message, category, filename, lineno, module.__name__,
                               vars(module).setdefault("__warningregistry__", {}))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _le(name: str, value: float, cap: float):
    """Row for the check value <= cap, with no epsilon: identities and sandwich relations."""
    return name, value, 0.0, cap, {}


def _bracketed(phi, psi, kind: str, cap=None):
    """(Energy-constrained) Bures bracket of a channel pair at the library's budget
    and tolerance, and the certificate every bracketed row carries."""
    br = channel_bures_bracket(phi, psi, cap)
    return br, {"epsilon_kind": kind, "beta_lower": br.lower, "beta_upper": br.upper,
                "width": br.width, "converged": br.converged}


def _pair_setup(config: CampaignConfig, d_a: int, d_b: int, **parts):
    """Fixed parts of a suite that draws channel pairs of dims (d_a, d_b, d_e)."""
    return SimpleNamespace(suite=config.suite, dims=(d_a, config.dim("d_b", d_b), config.dim("d_e", 2)), **parts)


def _channel_pair(gen: Generators, dims: tuple, same: bool = False):
    """Two random channels of dims (d_a, d_b, d_e), or one channel twice."""
    phi = gen.channel(*dims)
    return phi, phi if same else gen.channel(*dims)


def _channel_variation(name, pair, value, rhs_at, cap=None, **certs):
    """Row for one input under a channel pair: lhs |value(phi) - value(psi)|,
    epsilon the pair's (energy-constrained) Bures bracket."""
    kind = "bures_bracket" if cap is None else "energy_constrained_bures_bracket"
    br, bracket_certs = _bracketed(*pair, kind, cap)
    lhs = abs(value(pair[0]) - value(pair[1]))
    return name, lhs, (br.lower, br.upper), rhs_at, {**bracket_certs, **certs}


def _energy_input(config: CampaignConfig, default: dict):
    """Energy config, or the suite's default -> (spec, Hamiltonian, E, the system's params).

    `spec` is the OscillatorSpec, or None for a spectrum.  A suite whose
    default is an oscillator uses its closed forms, so it takes no spectrum.
    """
    handle, e_cap = parse_energy(config.energy or default)
    if isinstance(handle, OscillatorSpec):
        return handle, handle.to_hamiltonian(), e_cap, system_params(handle)
    if default["kind"] == "oscillator":
        raise ValueError(f"{config.suite} runs on oscillator input systems")
    return None, handle, e_cap, system_params(handle)


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
    """trial % 4 -> (input pair, checks); a check is (row name, bound, params)."""
    layout = _qubits("ABCDR")
    layout_adf = SystemLayout([("A", 2), ("D", 2), ("B", 2), ("C", 2), ("R", 2)])
    e_cap, ham_star = 1.0, Hamiltonian(np.arange(4.0))
    # H_* acts on A and D together, as one 4-level system
    cap = EnergyCap(ham_star, e_cap, SystemLayout([("AD", 4), ("B", 2), ("C", 2), ("R", 2)]), "AD")
    finite, energy = ("lemma4_finite", "lemma4_finite", {"d": 4}), {**system_params(ham_star), "E": e_cap}
    return (
        (lambda gen: (gen.density(layout), gen.density(layout)), (finite,)),
        (lambda gen: (_random_qc_state(gen, layout_adf), _random_qc_state(gen, layout_adf)),
         (finite, ("lemma4_qc", "lemma4_qc", {"d": 4}))),
        (lambda gen: _bc_preserving_pair(gen, layout),
         (finite, ("lemma4_finite_equal_bc", "lemma4_finite", {"d": 4, "part_c": 1}))),
        (lambda gen: (gen.pure(layout_adf, cap), gen.pure(layout_adf, cap)),
         (("lemma4_energy", "lemma4_energy", energy), ("lemma4_pure", "lemma4_pure", energy))),
    )


def _lemma4_draw(kinds, gen: Generators, trial: int):
    draw, checks = kinds[trial % 4]
    rho, sigma = draw(gen)
    eps = trace_distance(rho, sigma)
    lhs = abs(_cmi_abcd(rho) - _cmi_abcd(sigma))
    return [(name, lhs, eps, (bound, params), {}) for name, bound, params in checks]


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
        output=_output_cmi, same_input="same_state",
        eps_kinds=("exact_trace_distance", "trace_distance_plus_bures_bracket"),
    )


def _prop6_setup(config: CampaignConfig):
    layout, m = SystemLayout([("A", config.dim("d_a", 3))]), config.dim("ensemble_size", 3)
    return _pair_setup(
        config, layout.dim("A"), 3, draw=lambda gen: gen.ensemble(layout, m),
        metric=lambda mu, nu: min(ensemble_d0(mu, nu), ensemble_dk(mu, nu)), output=_output_holevo,
        same_input="same_ensemble", eps_kinds=("min_d0_dk", "min_d0_dk_plus_bures_bracket"),
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
        br, certs = _bracketed(phi, psi, c.eps_kinds[1])
        eps = (eps + br.lower, eps + br.upper)
    lhs = abs(c.output(phi, x) - c.output(psi, y))
    params = {"d_a": c.dims[0], "same_channel": int(same_channel), c.same_input: int(same_input)}
    return [(c.suite, lhs, eps, (c.suite, params), certs)]


# ---------------------------------------------------------------------------
# prop3 / prop7: output CMI / Holevo quantity of one fixed channel under
# input variation with an input energy cap
# ---------------------------------------------------------------------------

def _capped_inputs(config: CampaignConfig, default: dict, factors: list, **parts):
    """The energy cap on A of the layout A + `factors`, the bound's params (the system and
    E - E_0) and the fixed channel."""
    _, ham, e_cap, system = _energy_input(config, default)
    return SimpleNamespace(
        cap=EnergyCap(ham, e_cap, SystemLayout([("A", ham.dim)] + factors)),
        params={**system, "E_bar": e_cap - ham.ground_energy},
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
    return [("prop3_pure" if pure else "prop3", lhs, eps, ("prop3", {**c.params, "pure": int(pure)}),
             {"epsilon_kind": "exact_trace_distance"})]


def _prop7_setup(config: CampaignConfig):
    default = {"kind": "spectrum", "eigenvalues": [0, 1, 2, 3], "E": 1.0}
    return _capped_inputs(config, default, [], m=config.dim("ensemble_size", 3))


def _prop7_draw(c, gen: Generators, trial: int):
    mu, nu = gen.ensemble(c.cap.layout, c.m, c.cap), gen.ensemble(c.cap.layout, c.m, c.cap)
    eps = ensemble_dk(mu, nu)
    lhs = abs(_output_holevo(c.channel, mu) - _output_holevo(c.channel, nu))
    return [("prop7", lhs, eps, ("prop7", c.params), {"epsilon_kind": "kantorovich_exact"})]


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
    return [_channel_variation(f"prop4_n{n}", pair, lambda ch: _n_copy_cmi(ch, n, rho),
                               ("prop4", {"d_a": c.dims[0], "n": n}))]


def _copy_energies(rho: DensityMatrix, labels, cap: EnergyCap) -> list[float]:
    return [float(np.real(np.trace(cap.operator @ partial_trace(rho, (lbl,)).entries))) for lbl in labels]


def _prop5_setup(config: CampaignConfig):
    default = {"kind": "oscillator", "modes": 1, "frequencies": [1.0], "truncation": 6, "E": 1.2}
    spec, ham, e_cap, system = _energy_input(config, default)
    return _pair_setup(
        config, ham.dim, 3, cap=EnergyCap(ham, e_cap), params={**system, "E": e_cap},
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
        f"prop5_n{n}_t{t_flag}", _channel_pair(gen, c.dims), lambda ch: _n_copy_cmi(ch, n, rho),
        ("prop5", {**c.params, "n": n, "t": t_flag}), c.cap,
        per_copy_energies=energies, **c.certs,
    )]


def _prop8_setup(config: CampaignConfig):
    spec, ham, e_cap, system = _energy_input(config, {"kind": "spectrum", "eigenvalues": [0, 1, 2, 3], "E": 0.6})
    if spec is None and "p_r" in config.budgets:
        raise ValueError("prop8 reads budgets key 'p_r' only on oscillator input systems; a spectrum takes T")
    # an oscillator takes the closed form P_r in place of T
    r = bnd.check_real(config.budget("p_r", 0.5), "p_r")
    params = {**system, "E": e_cap, **({"r": r} if spec else {})}
    bound_value("prop8", {**params, "eps": 0.0})  # checks r and E, and builds T or P_r, before any trial
    if spec and math.sqrt(2.0) * r > 1.0 + 1e-12:  # `p_r`'s domain eps * r <= 1 at a bracket end's sqrt(2)
        raise ValueError(f"prop8's p_r = {r} must be <= 1/sqrt(2): its epsilon reaches sqrt(2) and P_r needs eps * r <= 1")
    cap = EnergyCap(ham, e_cap)
    mu = Generators.for_trial(config.seed, _FIXED_TRIAL).ensemble(cap.layout, config.dim("ensemble_size", 3), cap)
    return _pair_setup(config, ham.dim, 3, mu=mu, cap=cap, params=params)


def _prop8_draw(c, gen: Generators, trial: int):
    return [_channel_variation("prop8", _channel_pair(gen, c.dims),
                               lambda ch: _output_holevo(ch, c.mu), ("prop8", c.params), c.cap)]


# ---------------------------------------------------------------------------
# thm1 / thm2: closed-form capacity verification on the erasure family
# ---------------------------------------------------------------------------

def _erasure_rows(suite: str, x, m_scale: float, params: dict, certs: dict):
    """Rows of the capacity gaps of erase(1/2 - x) over erase(1/2), one per capacity, each bound at `params`."""
    for cap, gap, eps in bnd.erasure_family(x, m_scale):
        yield (f"{suite}_{cap}", gap, eps, (f"{suite}_{cap}", params),
               {"epsilon_kind": "isometry_gap_closed_form", **certs})


def _thm1_grid(config: CampaignConfig):
    x_grid = checked_list(config.dims.get("x_grid", [0.01, 0.05]), "x_grid")
    for d in checked_list(config.dims.get("d_grid", list(range(2, 65))), "d_grid", bnd.check_dimension):
        for x in x_grid:
            yield from _erasure_rows("thm1", x, math.log(d), {"d_a": d}, {"d": d, "x": x})


def _thm2_grid(config: CampaignConfig):
    system = dict(config.energy or {})
    if system.pop("kind", "oscillator") != "oscillator":
        raise ValueError("thm2 runs on oscillator input systems")
    spec = parse_oscillator(system)
    ham, system = spec.to_hamiltonian(), system_params(spec)
    x_grid = checked_list(config.dims.get("x_grid", [0.01, 0.05]), "x_grid")
    for e_cap in checked_list(config.dims.get("e_grid", [2.0, 5.0, 10.0]), "e_grid"):
        m_scale, tail_warned = _tail_probe(f_h, ham, e_cap)
        r_values = checked_list(config.dims.get("r_grid", [1.0, 0.3, 1.0 / oscillator_f(spec, e_cap)]), "r_grid")
        for x in x_grid:
            for r in r_values:
                yield from _erasure_rows("thm2", x, m_scale, {**system, "E": e_cap, "r": r}, {
                    "E": e_cap, "x": x, "r": r, "M": m_scale, "tail_warned": tail_warned})


# ---------------------------------------------------------------------------
# identities: equalities and auxiliary inequalities used by the proofs
# ---------------------------------------------------------------------------

def _identities_setup(config: CampaignConfig):
    """One Hamiltonian per campaign (its `gammas` array is cached on the object),
    and the truncation rows' cap for each kept rank d_keep: E = 1.2, lowered
    to E_0 + 0.9 gamma(d_keep) where that exceeds gamma(d_keep)."""
    ham = Hamiltonian(np.arange(8.0))
    layout = SystemLayout([("A", ham.dim), ("B", 4)])
    caps = {}
    for d_keep in (2, 4):
        gam, e_cap = gamma(ham, d_keep), 1.2
        if gam < e_cap - ham.ground_energy:
            e_cap = ham.ground_energy + 0.9 * gam
        caps[d_keep] = (EnergyCap(ham, e_cap, layout, "A"), gam)
    return SimpleNamespace(ham=ham, caps=caps)


def _identities_draw(c, gen: Generators, trial: int):
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
        _le("chi_equals_qc_mi", chi_gap, _EQ_TOL),
        _le("chain_rule", abs(full - split), _CHAIN_TOL),
        _le("almost_affinity", dev, h2(p) + _EQ_TOL),
    ]

    # isometry perturbation inequalities
    u_iso = gen.unitary(4)[:, :2]
    v_iso = gen.unitary(4)[:, :2]
    rho2 = gen.density(_qubits("Q"))
    mid = trace_norm(u_iso @ rho2.entries @ u_iso.conj().T - v_iso @ rho2.entries @ v_iso.conj().T)
    step1 = 2.0 * trace_norm((u_iso - v_iso) @ rho2.entries)
    step2 = 2.0 * float(np.linalg.norm(u_iso - v_iso, 2))
    rows += [_le("isometry_state_step", mid, step1 + _EQ_TOL), _le("isometry_norm_step", step1, step2 + _EQ_TOL)]

    # scaling inequality x f(z/x) <= y f(z/y) for concave nonnegative f
    x_val = 0.05 + float(gen.rng.random())
    y_val = x_val + 0.05 + float(gen.rng.random())
    z_val = 2.0 * float(gen.rng.random())
    rows += [_le(fname, x_val * fn(z_val / x_val), y_val * fn(z_val / y_val) + _EQ_TOL)
             for fname, fn in (("concave_scaling_g", g), ("concave_scaling_sqrt", math.sqrt))]

    # scaled-argument monotonicity: x log(a/x^2 + b) increasing for b >= e/2
    a_val = 0.1 + 2.0 * float(gen.rng.random())
    b_val = math.e / 2.0 + 2.0 * float(gen.rng.random())
    grid = np.linspace(0.05, 3.0, 24)
    vals = grid * np.log(a_val / grid**2 + b_val)
    rows.append(_le("xlog_monotone", float(np.max(-np.diff(vals))), _EQ_TOL))

    # rank-truncation claims on an 8x4 bipartite pure state
    d_keep = 2 if trial % 2 == 0 else 4
    return rows + _truncation_rows(gen, c.ham, d_keep, *c.caps[d_keep])


def _truncation_rows(gen: Generators, ham: Hamiltonian, d_keep: int, cap: EnergyCap, gam: float) -> list:
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
        _le("trunc_energy", energy_a, e_cap + _EQ_TOL),
        _le("trunc_distance", trace_distance(psi, sig),
            math.sqrt(e_bar / gam) + _EQ_TOL if gam > 0 else math.inf),
        _le("trunc_jordan_pos", j_pos, 2 * e_bar + _EQ_TOL),
        _le("trunc_jordan_neg", j_neg, 2 * e_bar + _EQ_TOL),
    ]


# ---------------------------------------------------------------------------
# metrics: sandwich relations and bracket certification
# ---------------------------------------------------------------------------

def _metrics_draw(_, gen: Generators, trial: int):
    lay = SystemLayout([("A", 3)])
    rho, sigma, tau = gen.density(lay), gen.density(lay), gen.density(lay)
    beta = bures_state_distance(rho, sigma)
    half_tn = trace_distance(rho, sigma)
    rows = [
        _le("bures_lower_sandwich", half_tn, beta + _EQ_TOL),
        _le("bures_upper_sandwich", beta, math.sqrt(2 * half_tn) + _EQ_TOL),
        _le("bures_triangle", beta, bures_state_distance(rho, tau) + bures_state_distance(tau, sigma) + _EQ_TOL),
    ]

    # D_K <= D_0 holds for shared probability vectors (diagonal coupling);
    # with independent probabilities the two metrics are not ordered
    mu = gen.ensemble(lay, 3)
    nu = Ensemble([(p, gen.density(lay)) for p, _ in mu.items])
    rows.append(_le("dk_le_d0_matched", ensemble_dk(mu, nu), ensemble_d0(mu, nu) + _EQ_TOL))

    if trial % 5 == 0:
        phi, psi = _channel_pair(gen, (2, 2, 2))
        br, _ = _bracketed(phi, psi, "bures_bracket")
        dia = diamond_bracket(phi, psi)
        brute = bures_sup_bruteforce(phi, psi, samples=4000, seed=trial)
        rows += [
            _le("half_diamond_le_beta", 0.5 * dia.lower, br.upper + 1e-6),
            _le("beta_le_sqrt_diamond", br.lower, math.sqrt(dia.upper) + 1e-6),
            _le("brute_le_upper", brute, br.upper + 1e-4),
        ]
    return rows


_PAIR_DIMS = ("d_a", "d_b", "d_e")

# suite -> (setup, draw, dims keys, budgets keys, reads energy): setup(config) builds the
# campaign's fixed parts once and draw(fixed, gen, trial) returns the trial's rows; a suite
# without a draw is a closed-form grid whose setup yields the rows themselves.  `run_suite`
# rejects any key the suite does not read, and an energy section where it reads none.
_SUITES = {
    "lemma4": (_lemma4_setup, _lemma4_draw, (), (), False),
    "prop2": (_prop2_setup, _joint_variation, _PAIR_DIMS, (), False),
    "prop3": (_prop3_setup, _prop3_draw, _PAIR_DIMS, (), True),
    "prop4": (_prop4_setup, _prop4_draw, _PAIR_DIMS + ("n",), (), False),
    "prop5": (_prop5_setup, _prop5_draw, ("d_b", "d_e"), (), True),
    "prop6": (_prop6_setup, _joint_variation, _PAIR_DIMS + ("ensemble_size",), (), False),
    "prop7": (_prop7_setup, _prop7_draw, ("d_b", "d_e", "ensemble_size"), (), True),
    "prop8": (_prop8_setup, _prop8_draw, ("d_b", "d_e", "ensemble_size"), ("p_r",), True),
    "thm1": (_thm1_grid, None, ("d_grid", "x_grid"), (), False),
    "thm2": (_thm2_grid, None, ("e_grid", "x_grid", "r_grid"), (), True),
    "identities": (_identities_setup, _identities_draw, (), (), False),
    "metrics": (lambda config: None, _metrics_draw, (), (), False),
}
SUITE_NAMES = tuple(_SUITES)
