"""chanbound: numerics for continuity bounds on quantum channel capacities.

Core layers: labeled dense linear algebra (`qstate`), entropic quantities
(`entropic`), Stinespring channels (`channels`), Hamiltonians and
max-entropy functions (`energy`), certified channel metrics (`metrics`),
bound evaluators (`bounds`), and the seeded verification harness
(`harness`).
"""

from .qstate import (
    DensityMatrix,
    HermitianOperator,
    PureState,
    QStateError,
    SystemLayout,
    eigh,
    jordan_parts,
    operator_norm,
    partial_trace,
    purify,
    tensor_product,
    trace_distance,
    trace_norm,
)
from .entropic import (
    Ensemble,
    conditional_mutual_information,
    eta,
    g,
    h2,
    holevo_quantity,
    mutual_information,
    qc_state,
    relative_entropy,
    von_neumann_entropy,
)
from .channels import (
    ErasureSpec,
    StinespringChannel,
    apply,
    complementary,
    erasure_channel,
    random_channel,
    tensor_power_apply,
)
from .energy import EnergyCap, Hamiltonian, OscillatorSpec, f_bar, f_bar_inverse, f_h, gamma, gibbs_state
from .metrics import (
    Bracket,
    bures_state_distance,
    channel_bures_bracket,
    diamond_bracket,
    ensemble_d0,
    ensemble_dk,
    fidelity,
)
from .bounds import erasure_capacities, p_r, t_st, theorem1_bound, theorem2_bound

__version__ = "0.1.0"
