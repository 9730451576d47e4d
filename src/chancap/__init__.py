"""Classical-information capacities and bounds of small quantum channels.

The package computes mutual-information quantities of (channel, ensemble,
measurement) triples through independent formula routes, estimates the
Shannon and Holevo capacities and a measured-input upper bound by alternating
optimisation, and simulates conditional (adaptive) product measurements on
few-copy product channels.
"""

from .blocks import (
    BlockDiagonalState,
    block_entropy,
    block_relative_entropy,
    entropy_decomposition,
    reduction,
    scaled_block_state,
)
from .channels import (
    Povm,
    QuantumChannel,
    amplitude_damping_channel,
    apply,
    basis_povm,
    bit_flip_channel,
    channel_to_json,
    completely_noisy_channel,
    depolarizing_channel,
    dual_apply,
    dual_povm,
    identity_channel,
    load_channel,
    measured_channel,
    measurement_channel,
    omega_channel,
    phase_damping_channel,
    pretty_good_measurement,
    product_channel,
    projective_povm,
    random_channel,
    trine_povm,
    unitary_channel,
)
from .errors import (
    ChancapError,
    ChannelSpecError,
    DimensionMismatchError,
    InvariantViolation,
    SupportError,
)
from .information import (
    Ensemble,
    channel_mutual_information,
    classical_joint,
    classical_mutual_information,
    conditional_mutual_information,
    entanglement_assisted_information,
    holevo_information,
    holevo_information_via_blocks,
    input_outcome_block_state,
    joint_block_state,
    measured_input_information,
    measured_input_information_via_blocks,
    mutual_information,
    mutual_information_via_blocks,
    output_ensemble,
    pure_state,
    weighted_dual,
)
from .linalg import (
    entropy,
    matrix_pinv_sqrt,
    matrix_sqrt,
    partial_trace,
    relative_entropy,
    shannon_entropy,
    support_projector,
    tensor,
    von_neumann_entropy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
