"""Seeded instance generators for verification campaigns.

Per-trial streams are derived as SeedSequence((campaign_seed, trial_index)),
so trial results are deterministic and independent of scheduling order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..channels import StinespringChannel, complex_gaussian, random_channel, random_isometry
from ..energy import EnergyCap, Hamiltonian, mix_members, mix_to_cap
from ..entropic import Ensemble
from ..qstate import DensityMatrix, PureState, SystemLayout


def trial_rng(campaign_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(campaign_seed), int(trial))))


class Generators:
    """Random states, ensembles, channels, and energy-feasible variants."""

    def __init__(self, rng):
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)

    @classmethod
    def for_trial(cls, campaign_seed: int, trial: int) -> "Generators":
        return cls(trial_rng(campaign_seed, trial))

    def _gaussian(self, shape) -> np.ndarray:
        return complex_gaussian(self.rng, shape)

    def _wishart(self, d: int) -> np.ndarray:
        gmat = self._gaussian((d, d))
        w = gmat @ gmat.conj().T
        return w / np.trace(w).real

    def density(self, layout: SystemLayout, cap: Optional[EnergyCap] = None) -> DensityMatrix:
        """Wishart-style G G* normalized to unit trace, mixed under `cap` by `mix_to_cap`.

        A capped draw is mixed as a raw array and validated once, after the mix.
        """
        raw = self._wishart(layout.total_dim)
        return DensityMatrix(layout, raw if cap is None else mix_to_cap(raw, cap))

    def pure(self, layout: SystemLayout, cap: Optional[EnergyCap] = None) -> PureState:
        """Normalized complex Gaussian vector, blended under `cap` by `mix_to_cap`."""
        vec = self._gaussian(layout.total_dim)
        vec = vec / np.linalg.norm(vec)
        return PureState(layout, vec if cap is None else mix_to_cap(vec, cap))

    def probabilities(self, m: int) -> np.ndarray:
        return self.rng.dirichlet(np.ones(m))

    def ensemble(self, layout: SystemLayout, m: int, cap: Optional[EnergyCap] = None) -> Ensemble:
        """m Wishart draws with Dirichlet weights; under `cap`, every member is mixed
        with the ensemble's one weight (`mix_members`) and validated once, after the mix."""
        probs = self.probabilities(m)
        members = [self._wishart(layout.total_dim) for _ in probs]
        if cap is not None:
            members = mix_members(probs, members, cap)
        return Ensemble([(p, DensityMatrix(layout, rho)) for p, rho in zip(probs, members)])

    def channel(
        self, d_a: int, d_b: int, d_e: int,
        input_label: str = "A", output_label: str = "B", env_label: str = "E",
    ) -> StinespringChannel:
        return random_channel(d_a, d_b, d_e, self.rng, input_label, output_label, env_label)

    def unitary(self, d: int) -> np.ndarray:
        return random_isometry(d, d, self.rng)

    def energy_feasible_density(
        self, layout: SystemLayout, a_label: str, h: Hamiltonian, energy: float
    ) -> DensityMatrix:
        """Random state mixed toward the A-side ground state until feasible."""
        return self.density(layout, EnergyCap(h, energy, layout, a_label))

    def energy_feasible_pure(
        self, layout: SystemLayout, a_label: str, h: Hamiltonian, energy: float
    ) -> PureState:
        """Random pure state blended toward a ground product vector until feasible."""
        return self.pure(layout, EnergyCap(h, energy, layout, a_label))
