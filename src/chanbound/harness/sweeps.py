"""Closed-form tightness sweeps over the erasure family.

No matrices are built: capacity differences, the isometry-gap epsilon, and
the bounds of the suites' table `BOUNDS` are all closed forms, so
log-dimensions up to a few hundred are fine.
"""

from __future__ import annotations

import math

from .. import bounds as bnd
from ..energy import f_h
from .suites import bound_value, checked_list, parse_oscillator, system_params
from .verdict import SweepRow

FAMILIES = ("erasure_dim", "erasure_energy")


def sweep_tightness(family: str, grid: dict) -> list[SweepRow]:
    # family -> (grid points, the grid keys it reads besides "capacities", the theorem)
    families = {"erasure_dim": (_dim_points, {"log_d", "d", "x"}, "thm1"),
                "erasure_energy": (_energy_points, {"oscillator", "E", "r", "x"}, "thm2")}
    if family not in families:
        raise ValueError(f"unknown sweep family {family!r}; expected one of {FAMILIES}")
    points, keys, theorem = families[family]
    unknown = sorted(set(grid) - keys - {"capacities"})
    if unknown:
        raise ValueError(f"unknown {family} grid keys {unknown}; it reads {sorted(keys | {'capacities'})}")
    capacities = checked_list(grid.get("capacities", list(bnd.CAPACITIES)), "capacities", _check_capacity)
    rows = []
    for variable, value, x, r, m_scale, params in points(grid):
        for cap, delta, eps in bnd.erasure_family(x, m_scale, capacities):
            bound = bound_value(f"{theorem}_{cap}", {**params, "eps": eps})
            rows.append(SweepRow(family, cap, variable, value, x, r, delta, eps, bound,
                                 delta / bound if bound > 0 else 0.0))
    return rows


def _check_capacity(name, key: str) -> str:
    if name not in bnd.CAPACITIES:
        raise ValueError(f"{key} = {name} must be one of {', '.join(bnd.CAPACITIES)}")
    return name


def _dim_points(grid: dict):
    """(variable, value, x, r, M, params) per point: M = log d, and the Theorem 1 bound's params.

    A `log_d` grid is taken as it is; each entry of a `d` grid must be an
    integer >= 1, as `theorem1_bound(d_a=...)` requires.
    """
    log_ds = checked_list(grid["log_d"], "log_d") if "log_d" in grid else [
        math.log(d) for d in checked_list(grid.get("d", list(range(2, 65))), "d", bnd.check_dimension)]
    x_grid = checked_list(grid.get("x", [0.01]), "x")
    for log_d in log_ds:
        for x in x_grid:
            yield "log_d", log_d, x, None, log_d, {"log_d_a": log_d}


def _energy_points(grid: dict):
    """(variable, value, x, r, M, params) per point: M = F_H(E), and the params of the Theorem 2 bound with P_r."""
    spec = parse_oscillator(grid.get("oscillator", {}))
    ham = spec.to_hamiltonian()
    x_grid = checked_list(grid.get("x", [0.01]), "x")
    for e_cap in checked_list(grid.get("E", [2.0, 5.0, 10.0]), "E"):
        m_scale = f_h(ham, e_cap)
        r_values = checked_list(grid.get("r", [1.0 / bnd.oscillator_f(spec, e_cap)]), "r")
        for x in x_grid:
            for r in r_values:
                yield "E", e_cap, x, r, m_scale, {**system_params(spec), "E": e_cap, "r": r}
