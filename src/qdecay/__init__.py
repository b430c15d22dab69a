"""Numerical laboratory for information decay under quantum channels."""

from .matcore import (
    BipartiteDensity,
    DensityMatrix,
    DensityStack,
    EigenDecomposition,
    eigh,
    loewner_min_coefficient,
    partial_trace,
    tensor,
    trace_norm,
)
from .entropy import (
    EntropyValue,
    binary_entropy,
    f_almost_concavity,
    kappa,
    mutual_information,
    pinsker_check,
    relative_entropy,
    relative_entropy_integral_form,
    von_neumann_entropy,
    weighted_norm_sq,
)
from .channels import (
    ConditionalExpectation,
    GroupLindbladian,
    KrausChannel,
    Lindbladian,
    SuperOperator,
    complementary_channel,
    cp_order_coefficient,
    depolarizing,
    depolarizing_projection,
    dephasing_y,
    diamond_norm_estimate,
    fixed_point_projection,
    group_lindbladian,
    pimsner_popa_index,
    pinching,
    replacement_semigroup,
)
from .bounds import (
    BoundReport,
    classical_converse_check,
    classical_converse_factor,
    clsi_converse_check,
    decayed_state_bound_check,
    g_factor,
    mutual_info_converse_check,
    origcompare_check,
)
from .experiments import (
    SweepResult,
    expansion_consistency_check,
    flagged_channel,
    group_fragility_demo,
    omega_theta_lambda,
    private_rate_lower_bound,
    rho_theta_lambda,
    sudden_decay_sweep,
)
from .rng import Rng

__version__ = "0.1.0"
