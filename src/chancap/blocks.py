"""Block-diagonal operators labelled by classical indices.

A :class:`BlockDiagonalState` is a direct sum of PSD blocks, one per tuple of
classical labels, together with one quantum factor.  It is never materialised
as a single large matrix: entropies and relative entropies decompose exactly
over the blocks, which keeps eigensolves at the size of one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvariantViolation
from .linalg import ATOL_PSD, _dagger, _raise_first, entropy, frozen_stack, relative_entropy, shannon_entropy


@dataclass(frozen=True, eq=False)
class BlockDiagonalState:
    """Direct sum of PSD blocks indexed by classical label tuples.

    ``axes`` names the classical factors (one letter each, e.g. ("A", "B"))
    and ``quantum_axis`` names the matrix factor.  ``labels[i]`` gives the
    classical indices of ``blocks[i]``.  ``blocks`` may be given as a
    sequence of matrices or as one (n, d, d) stack; it is stored as one
    read-only complex (n, d, d) array.  Total trace must be 1.
    """

    axes: tuple[str, ...]
    quantum_axis: str
    labels: tuple[tuple[int, ...], ...]
    blocks: np.ndarray

    def __post_init__(self):
        if len(self.labels) != len(self.blocks):
            raise DimensionMismatchError("label count differs from block count")
        if len(self.blocks) == 0:
            raise InvariantViolation("blocks have total trace 0.0, expected 1")
        blocks = frozen_stack(self.blocks, "block")
        low = np.linalg.eigvalsh(0.5 * (blocks + _dagger(blocks)))[:, 0]
        _raise_first(
            (np.array([len(lab) != len(self.axes) for lab in self.labels]), lambda i: DimensionMismatchError(
                f"label {self.labels[i]} does not index axes {self.axes}")),
            (low < -ATOL_PSD, lambda i: InvariantViolation(
                f"block {self.labels[i]} not PSD: min eigenvalue {low[i]:.3e}")),
        )
        total = np.trace(blocks, axis1=1, axis2=2).real.sum()
        if abs(total - 1.0) > 1e-9:
            raise InvariantViolation(f"blocks have total trace {total!r}, expected 1")
        object.__setattr__(self, "labels", tuple(tuple(map(int, lab)) for lab in self.labels))
        object.__setattr__(self, "blocks", blocks)

    @property
    def block_dim(self) -> int:
        return self.blocks.shape[-1]

    def trace_table(self) -> np.ndarray:
        """Traces of the blocks arranged as an array over the classical axes."""
        traces = np.trace(self.blocks, axis1=1, axis2=2).real
        if not self.axes:
            return np.array([traces.sum()])
        index = np.array(self.labels).T
        shape = tuple(index.max(axis=1) + 1)
        flat = np.ravel_multi_index(tuple(index), shape)
        return np.bincount(flat, weights=traces, minlength=int(np.prod(shape))).reshape(shape)

    def block(self, label: tuple[int, ...]) -> np.ndarray:
        for lab, b in zip(self.labels, self.blocks):
            if lab == tuple(label):
                return b
        raise KeyError(f"no block labelled {label}")


def block_entropy(state: BlockDiagonalState) -> float:
    """Entropy of the direct sum, in bits: sum of per-block -Tr[B log2 B]."""
    return float(np.sum(entropy(state.blocks)))


def entropy_decomposition(state: BlockDiagonalState) -> tuple[float, float]:
    """Split the entropy into label uncertainty plus average block entropy.

    Returns (shannon entropy of the block traces, trace-weighted sum of the
    entropies of the normalised blocks); their sum equals block_entropy.
    """
    traces = np.trace(state.blocks, axis1=1, axis2=2).real
    live = traces > 1e-12
    cond = np.sum(traces[live] * entropy(state.blocks[live] / traces[live, None, None]))
    return shannon_entropy(traces), float(cond)


def block_relative_entropy(p: BlockDiagonalState, q: BlockDiagonalState) -> float:
    """Relative entropy between two states with identical block structure.

    Blocks of P with trace at most 1e-12 contribute nothing and are not
    checked: both sides of such a pair are replaced by zero blocks.
    """
    if p.labels != q.labels:
        raise DimensionMismatchError("block label structures differ")
    live = (np.trace(p.blocks, axis1=1, axis2=2).real > 1e-12)[:, None, None]
    return float(np.sum(relative_entropy(np.where(live, p.blocks, 0.0), np.where(live, q.blocks, 0.0))))


def scaled_block_state(
    axes: tuple[str, ...],
    quantum_axis: str,
    weights: np.ndarray,
    matrix: np.ndarray,
) -> BlockDiagonalState:
    """Product of a classical distribution over labels with one fixed block.

    Builds the state with blocks ``weights[lab] * matrix`` -- the block form
    of P_classical (x) P_quantum used on the right side of relative-entropy
    comparisons.
    """
    weights = np.asarray(weights, dtype=float)
    blocks = weights.reshape(-1, 1, 1) * np.asarray(matrix, dtype=complex)
    return BlockDiagonalState(axes, quantum_axis, tuple(np.ndindex(*weights.shape)), blocks)


def reduction(state: BlockDiagonalState, which: str):
    """Reduce onto the named factors, e.g. "AB", "A", "AQ", "Q", "BR", "R".

    Dropped classical axes are summed over; dropping the quantum axis takes
    block traces.  Returns a probability table (ndarray) if the quantum axis
    is dropped, a density-matrix-like ndarray if only the quantum axis is
    kept, and a BlockDiagonalState otherwise.
    """
    wanted = list(which)
    unknown = [w for w in wanted if w != state.quantum_axis and w not in state.axes]
    if unknown:
        raise DimensionMismatchError(
            f"reduction '{which}' names unknown factors {unknown}; "
            f"state has axes {state.axes} and quantum axis {state.quantum_axis!r}"
        )
    keep_q = state.quantum_axis in wanted
    keep_axes = [a for a in dict.fromkeys(wanted) if a in state.axes]  # in the requested order
    positions = [state.axes.index(a) for a in keep_axes]

    if not keep_q:
        table = state.trace_table()
        drop = tuple(k for k, a in enumerate(state.axes) if a not in keep_axes)
        out = table.sum(axis=drop) if drop else table
        # transpose marginal axes into the requested order
        order = [sorted(positions).index(p) for p in positions]
        return out.transpose(order) if out.ndim > 1 else out

    if not keep_axes:
        return state.blocks.sum(axis=0)

    keys = [tuple(lab[p] for p in positions) for lab in state.labels]
    labels = sorted(set(keys))
    slot = {key: i for i, key in enumerate(labels)}
    merged = np.zeros((len(labels),) + state.blocks.shape[1:], dtype=complex)
    np.add.at(merged, [slot[key] for key in keys], state.blocks)
    return BlockDiagonalState(tuple(keep_axes), state.quantum_axis, tuple(labels), merged)
