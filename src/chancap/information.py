"""Information functionals of channels, ensembles and measurements.

Every quantity comes in two independently coded routes: a direct form built
from outcome statistics, and a block-diagonal form built from formal joint
states.  The agreement of the two routes is part of the test contract, so
they deliberately share no intermediate code beyond ``linalg`` primitives.
Both work on whole stacks of states and effects at once: each ``linalg``
call they make (entropy, matrix square root, relative entropy) takes an
(n, d, d) stack in one batched eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockDiagonalState, block_entropy, block_relative_entropy, reduction, scaled_block_state
from .channels import Povm, QuantumChannel, apply, dual_apply, dual_povm, product_channel, identity_channel
from .errors import DimensionMismatchError, InvariantViolation
from .linalg import (
    assert_density_matrix,
    clean_probability_vector,
    entropy,
    frozen,
    frozen_stack,
    matrix_sqrt,
    partial_trace,
    relative_entropy,
    shannon_entropy,
    tensor,
)

PROB_FLOOR = 1e-12  # outcomes or weights at or below this contribute 0 to all sums


@dataclass(frozen=True)
class Ensemble:
    """Probability weights paired with signal states of one common dimension."""

    probs: np.ndarray
    states: tuple[np.ndarray, ...]

    def __post_init__(self):
        probs = clean_probability_vector(self.probs)
        if len(probs) != len(self.states):
            raise DimensionMismatchError(
                f"{len(probs)} weights vs {len(self.states)} states"
            )
        states = assert_density_matrix(frozen_stack(self.states, "ensemble state"))
        object.__setattr__(self, "probs", frozen(probs))
        object.__setattr__(self, "states", tuple(states))

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    def __len__(self) -> int:
        return len(self.states)

    def average_state(self) -> np.ndarray:
        return assert_density_matrix((self.probs[:, None, None] * np.asarray(self.states)).sum(axis=0))


def pure_state(vec: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |v><v| from a normalised vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise InvariantViolation(f"state vector has norm {norm!r}, expected 1")
    return np.outer(v, v.conj())


def output_ensemble(ch: QuantumChannel, e: Ensemble) -> Ensemble:
    return Ensemble(e.probs, apply(ch, e.states))


# ---------------------------------------------------------------------------
# Mutual information of outcome statistics (direct route)
# ---------------------------------------------------------------------------

def outcome_distribution(rho: np.ndarray, m: Povm) -> np.ndarray:
    """Outcome probabilities Tr[rho E_b]; a stack of states gives one row per state."""
    p = np.einsum("...ab,mba->...m", rho, np.asarray(m.elements)).real
    return np.clip(p, 0.0, None)


def mutual_information(e: Ensemble, m: Povm) -> float:
    """Mutual information, in bits, between ensemble labels and POVM outcomes.

    Shannon form: entropy of the averaged outcome distribution minus the
    weighted entropies of the per-state distributions.
    """
    if e.dim != m.dim:
        raise DimensionMismatchError(f"ensemble dimension {e.dim} != POVM dimension {m.dim}")
    per_state = outcome_distribution(np.asarray(e.states), m)
    live = e.probs > PROB_FLOOR
    val = shannon_entropy(e.probs @ per_state) - float(np.sum(e.probs[live] * shannon_entropy(per_state[live])))
    return max(val, 0.0)


def channel_mutual_information(ch: QuantumChannel, e: Ensemble, m: Povm) -> float:
    """Mutual information across a noisy channel, evaluated on the output side."""
    if e.dim != ch.dim_in:
        raise DimensionMismatchError(f"ensemble dimension {e.dim} != channel input {ch.dim_in}")
    if m.dim != ch.dim_out:
        raise DimensionMismatchError(f"POVM dimension {m.dim} != channel output {ch.dim_out}")
    return mutual_information(output_ensemble(ch, e), m)


def classical_joint(ch: QuantumChannel, e: Ensemble, m: Povm) -> np.ndarray:
    """Joint label-outcome table p(j, b) = pi_j Tr[channel(rho_j) E_b]."""
    if e.dim != ch.dim_in or m.dim != ch.dim_out:
        raise DimensionMismatchError("channel, ensemble and POVM dimensions are inconsistent")
    return e.probs[:, None] * outcome_distribution(apply(ch, e.states), m)


def classical_mutual_information(table: np.ndarray) -> float:
    """Mutual information of a 2-way joint table, by direct summation."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-way table, got shape {t.shape}")
    px = t.sum(axis=1)
    py = t.sum(axis=0)
    mask = t > PROB_FLOOR
    ratio = np.where(mask, t / np.where(mask, np.outer(px, py), 1.0), 1.0)
    return float(np.sum(np.where(mask, t * np.log2(ratio), 0.0)))


def conditional_mutual_information(table: np.ndarray) -> float:
    """I(J; C | B) of a 3-way table over (j, b, c): weighted per-slice MI."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 3:
        raise DimensionMismatchError(f"expected a 3-way table, got shape {t.shape}")
    total = 0.0
    for b in range(t.shape[1]):
        pb = t[:, b, :].sum()
        if pb > PROB_FLOOR:
            total += pb * classical_mutual_information(t[:, b, :] / pb)
    return total


# ---------------------------------------------------------------------------
# Formal joint states (block route)
# ---------------------------------------------------------------------------

def joint_block_state(
    ch: QuantumChannel, e: Ensemble, m: Povm, dual_side: bool = False
) -> BlockDiagonalState:
    """Label-outcome-quantum joint state with classical axes A (label), B (outcome).

    Blocks are pi_j sqrt(out_j) E_b sqrt(out_j) with out_j the channel output
    for state j; with ``dual_side`` the sandwich happens on the input side
    with the pulled-back POVM, leaving the label-outcome table unchanged.
    """
    if e.dim != ch.dim_in or m.dim != ch.dim_out:
        raise DimensionMismatchError("channel, ensemble and POVM dimensions are inconsistent")
    if dual_side:
        effects, carriers = dual_apply(ch, m.elements), np.asarray(e.states)
    else:
        effects, carriers = np.asarray(m.elements), apply(ch, e.states)
    roots = matrix_sqrt(carriers)[:, None]
    blocks = e.probs[:, None, None, None] * (roots @ effects @ roots)
    labels = tuple(np.ndindex(blocks.shape[:2]))
    return BlockDiagonalState(("A", "B"), "Q", labels, blocks.reshape((-1,) + blocks.shape[2:]))


def input_outcome_block_state(ch: QuantumChannel, rho: np.ndarray, m: Povm) -> BlockDiagonalState:
    """Outcome-reference joint state with blocks sqrt(rho) dual(E_b) sqrt(rho)."""
    rho = assert_density_matrix(np.asarray(rho, dtype=complex))
    if rho.shape[0] != ch.dim_in or m.dim != ch.dim_out:
        raise DimensionMismatchError("channel, state and POVM dimensions are inconsistent")
    root = matrix_sqrt(rho)
    labels = tuple((b,) for b in range(len(m.elements)))
    return BlockDiagonalState(("B",), "R", labels, root @ dual_apply(ch, m.elements) @ root)


def mutual_information_via_blocks(ch: QuantumChannel, e: Ensemble, m: Povm) -> float:
    """Channel mutual information recomputed as S(P_B) - S(P_AB) + S(P_A).

    Independent of :func:`channel_mutual_information`; used as a cross-check.
    """
    joint = joint_block_state(ch, e, m)
    table = reduction(joint, "AB")
    return (
        shannon_entropy(reduction(joint, "B"))
        - shannon_entropy(table.ravel())
        + shannon_entropy(reduction(joint, "A"))
    )


def holevo_information(ch: QuantumChannel, e: Ensemble) -> float:
    """Holevo quantity chi = S(out(avg)) - sum pi_j S(out_j), in bits."""
    if e.dim != ch.dim_in:
        raise DimensionMismatchError(f"ensemble dimension {e.dim} != channel input {ch.dim_in}")
    outs = apply(ch, e.states)
    live = e.probs > PROB_FLOOR
    avg = (e.probs[:, None, None] * outs).sum(axis=0)
    ent = entropy(np.concatenate([avg[None], outs[live]]))  # S(avg), then S(out_j) of the live j
    return max(ent[0] - float(np.sum(e.probs[live] * ent[1:])), 0.0)


def holevo_information_via_blocks(ch: QuantumChannel, e: Ensemble) -> float:
    """Holevo quantity recomputed as S(P_Q) - S(P_AQ) + S(P_A)."""
    joint = joint_block_state(ch, e, basis_identity_povm(ch.dim_out))
    return (
        entropy(reduction(joint, "Q"))
        - block_entropy(reduction(joint, "AQ"))
        + shannon_entropy(reduction(joint, "A"))
    )


def basis_identity_povm(dim: int) -> Povm:
    """Single-element POVM {I}; measures nothing."""
    return Povm((np.eye(dim, dtype=complex),))


def weighted_dual(ch: QuantumChannel, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The map P -> sqrt(rho) dual(P) sqrt(rho); sends I to rho."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != ch.dim_in:
        raise DimensionMismatchError(f"state dimension {rho.shape[0]} != channel input {ch.dim_in}")
    root = matrix_sqrt(rho)
    return root @ dual_apply(ch, p) @ root


def measured_input_information(ch: QuantumChannel, rho: np.ndarray, m: Povm) -> float:
    """Information between POVM outcomes and the averaged input, in bits.

    Entropy form S(rho) - sum_b S(sqrt(rho) dual(E_b) sqrt(rho)) + S(tau)
    with tau_b the outcome probabilities; outcomes with tau_b below the
    probability floor contribute nothing.
    """
    rho = assert_density_matrix(np.asarray(rho, dtype=complex))
    if rho.shape[0] != ch.dim_in or m.dim != ch.dim_out:
        raise DimensionMismatchError("channel, state and POVM dimensions are inconsistent")
    root = matrix_sqrt(rho)
    blocks = root @ dual_apply(ch, m.elements) @ root
    tau = np.trace(blocks, axis1=1, axis2=2).real
    ent = entropy(np.concatenate([rho[None], blocks[tau > PROB_FLOOR]]))  # S(rho), then the live blocks
    return max(float(ent[0] - np.sum(ent[1:]) + shannon_entropy(np.clip(tau, 0.0, None))), 0.0)


def measured_input_information_via_blocks(ch: QuantumChannel, rho: np.ndarray, m: Povm) -> float:
    """Same quantity recomputed as the relative entropy H(P_BR, P_B x P_R)."""
    joint = input_outcome_block_state(ch, rho, m)
    tau = reduction(joint, "B")
    prod = scaled_block_state(("B",), "R", tau, reduction(joint, "R"))
    return block_relative_entropy(joint, prod)


def entanglement_assisted_information(ch: QuantumChannel, psi: np.ndarray) -> float:
    """Relative entropy H(rho_QR, rho_Q x rho_R) for (channel x id)|psi><psi|.

    ``psi`` is a normalised vector on the doubled input space; the first
    factor passes through the channel, the second is kept as a reference.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    d = ch.dim_in
    if psi.shape[0] != d * d:
        raise DimensionMismatchError(f"vector length {psi.shape[0]} != {d * d}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise InvariantViolation(f"state vector has norm {np.linalg.norm(psi)!r}, expected 1")
    joint = apply(product_channel(ch, identity_channel(d)), np.outer(psi, psi.conj()))
    dims = [ch.dim_out, d]
    rho_q = partial_trace(joint, dims, keep=[0])
    rho_r = partial_trace(joint, dims, keep=[1])
    return relative_entropy(joint, tensor(rho_q, rho_r))
