"""Completely positive trace-preserving maps, POVMs, and named constructions.

Channels are stored through Kraus operators ``K_k`` acting as
``rho -> sum_k K_k rho K_k†`` with the completeness condition
``sum_k K_k† K_k = I`` enforced at construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ChannelSpecError, DimensionMismatchError, InvariantViolation
from .linalg import (
    ATOL_COMPLETENESS,
    ATOL_HERMITIAN,
    ATOL_PSD,
    EIG_CLIP,
    _dagger,
    _raise_first,
    frozen_stack,
    hermitize,
    matrix_pinv_sqrt,
    support_projector,
    tensor_pairs,
)

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (_SIGMA_X, _SIGMA_Y, _SIGMA_Z)


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operator valued measurement: PSD elements summing to identity.

    ``elements`` may be given as a sequence of matrices or as one (n, d, d)
    stack; it is stored as one read-only complex (n, d, d) array.
    """

    elements: np.ndarray

    def __post_init__(self):
        if len(self.elements) == 0:
            raise InvariantViolation("POVM needs at least one element")
        d = np.shape(self.elements[0])[0]
        elems = frozen_stack(self.elements, "POVM element", (d, d))
        skew = np.abs(elems - _dagger(elems)).max(axis=(1, 2))
        lam = np.linalg.eigvalsh(0.5 * (elems + _dagger(elems)))
        _raise_first(
            (skew > ATOL_HERMITIAN, lambda i: InvariantViolation(f"POVM element {i} is not Hermitian")),
            (lam[:, 0] < -ATOL_PSD, lambda i: InvariantViolation(
                f"POVM element {i} not PSD: min eigenvalue {lam[i, 0]:.3e}")),
            (lam[:, -1] > 1.0 + ATOL_PSD, lambda i: InvariantViolation(
                f"POVM element {i} exceeds identity: max eigenvalue {lam[i, -1]:.6f}")),
        )
        dev = np.max(np.abs(elems.sum(axis=0) - np.eye(d)))
        if dev > ATOL_COMPLETENESS:
            raise InvariantViolation(f"POVM completeness violated: max |sum E - I| = {dev:.3e}")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """CPTP map held as a Kraus family; immutable after construction.

    ``kraus`` may be given as a sequence of matrices or as one (n, d_out,
    d_in) stack; it is stored as one read-only complex array of that shape.
    """

    kraus: np.ndarray

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise InvariantViolation("channel needs at least one Kraus operator")
        ops = frozen_stack(self.kraus, "Kraus operator")
        cols = ops.shape[2]
        dev = np.max(np.abs((_dagger(ops) @ ops).sum(axis=0) - np.eye(cols)))
        if dev > ATOL_COMPLETENESS:
            raise InvariantViolation(f"trace preservation violated: max |sum K†K - I| = {dev:.3e}")
        object.__setattr__(self, "kraus", ops)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[-1]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[-2]

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply(self, rho)


def apply(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Action of the channel on a state (or any operator on the input space).

    An (n, d, d) stack of operators maps to the stack of their images.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (ch.dim_in, ch.dim_in):
        raise DimensionMismatchError(
            f"state of shape {rho.shape} incompatible with channel input dimension {ch.dim_in}"
        )
    return (ch.kraus @ rho[..., None, :, :] @ _dagger(ch.kraus)).sum(axis=-3)


def dual_apply(ch: QuantumChannel, e: np.ndarray) -> np.ndarray:
    """Adjoint action with respect to the Hilbert-Schmidt inner product.

    Satisfies Tr[apply(ch, rho) E] = Tr[rho dual_apply(ch, E)]; maps the
    identity to the identity because the channel is trace preserving.  An
    (n, d, d) stack of operators maps to the stack of their images.
    """
    e = np.asarray(e, dtype=complex)
    if e.ndim not in (2, 3) or e.shape[-2:] != (ch.dim_out, ch.dim_out):
        raise DimensionMismatchError(
            f"operator of shape {e.shape} incompatible with channel output dimension {ch.dim_out}"
        )
    return (_dagger(ch.kraus) @ e[..., None, :, :] @ ch.kraus).sum(axis=-3)


def dual_povm(ch: QuantumChannel, m: Povm) -> Povm:
    """Pull a POVM on the output space back to one on the input space."""
    if m.dim != ch.dim_out:
        raise DimensionMismatchError(f"POVM dimension {m.dim} != channel output dimension {ch.dim_out}")
    return Povm(dual_apply(ch, m.elements))


def product_channel(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Tensor product channel with Kraus family {A_i (x) B_j}."""
    return QuantumChannel(tensor_pairs(a.kraus, b.kraus))


# ---------------------------------------------------------------------------
# Named channels
# ---------------------------------------------------------------------------

def identity_channel(dim: int = 2) -> QuantumChannel:
    return QuantumChannel((np.eye(dim, dtype=complex),))


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > ATOL_COMPLETENESS:
        raise InvariantViolation("matrix is not unitary")
    return QuantumChannel((u,))


def completely_noisy_channel(dim: int = 2) -> QuantumChannel:
    """Replaces every input state by the maximally mixed state I/d."""
    ops = np.zeros((dim, dim, dim, dim), dtype=complex)
    ops[np.arange(dim)[:, None], np.arange(dim), np.arange(dim)[:, None], np.arange(dim)] = 1.0 / np.sqrt(dim)
    return QuantumChannel(ops.reshape(dim * dim, dim, dim))  # K_ij = |i><j| / sqrt(d)


def depolarizing_channel(p: float) -> QuantumChannel:
    """Qubit map rho -> (1-p) rho + p I/2."""
    if not 0.0 <= p <= 1.0:
        raise InvariantViolation(f"depolarizing parameter {p} outside [0, 1]")
    ops = [np.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=complex)]
    ops += [np.sqrt(p / 4.0) * s for s in PAULI]
    return QuantumChannel([o for o in ops if np.max(np.abs(o)) > 0])


def bit_flip_channel(p: float) -> QuantumChannel:
    """Classical bit flip: read out the computational basis, flip the recorded
    bit with probability p, and re-prepare the basis state.

    Acts as a binary symmetric channel on every input, so its capacity is
    1 - h(p); the coherent Pauli-X mixture would instead be noiseless in the
    x basis.
    """
    if not 0.0 <= p <= 1.0:
        raise InvariantViolation(f"bit-flip probability {p} outside [0, 1]")
    ops = []
    amp = {(0, 0): np.sqrt(1.0 - p), (1, 0): np.sqrt(p), (1, 1): np.sqrt(1.0 - p), (0, 1): np.sqrt(p)}
    for (out, inp), a in amp.items():
        if a > 0:
            k = np.zeros((2, 2), dtype=complex)
            k[out, inp] = a
            ops.append(k)
    return QuantumChannel(ops)


def amplitude_damping_channel(gamma: float) -> QuantumChannel:
    if not 0.0 <= gamma <= 1.0:
        raise InvariantViolation(f"damping parameter {gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return QuantumChannel((k0, k1) if gamma > 0 else (k0,))


def phase_damping_channel(lam: float) -> QuantumChannel:
    if not 0.0 <= lam <= 1.0:
        raise InvariantViolation(f"damping parameter {lam} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - lam)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(lam)]], dtype=complex)
    return QuantumChannel((k0, k1) if lam > 0 else (k0,))


# ---------------------------------------------------------------------------
# Measure-and-reprepare channels
# ---------------------------------------------------------------------------

def omega_channel(states: list[np.ndarray], povm: Povm) -> QuantumChannel:
    """Channel P -> sum_k R_k Tr(P X_k) for density matrices R_k and POVM {X_k}.

    The Kraus family is assembled from the eigendecompositions of the R_k and
    X_k, so the returned object carries the usual CPTP guarantees.
    """
    if len(states) != len(povm):
        raise DimensionMismatchError(f"{len(states)} output states vs {len(povm)} POVM elements")
    states = hermitize(frozen_stack(states, "output state"))
    lr, vr = np.linalg.eigh(states)
    tr = np.trace(states, axis1=1, axis2=2).real
    _raise_first(
        (lr[:, 0] < -ATOL_PSD, lambda k: InvariantViolation(f"output state {k} not PSD: min eigenvalue {lr[k, 0]:.3e}")),
        (np.abs(tr - 1.0) > 1e-9, lambda k: InvariantViolation(f"output state {k} trace {tr[k]!r} differs from 1")),
    )
    lx, vx = np.linalg.eigh(hermitize(povm.elements))
    # sqrt(lr_ka lx_kc) |r_ka><x_kc| over eigenpairs above EIG_CLIP, in (k, a, c) order
    keep = (lr > EIG_CLIP)[:, :, None] & (lx > EIG_CLIP)[:, None, :]
    amp = np.sqrt(np.where(keep, lr[:, :, None] * lx[:, None, :], 0.0))
    outer = vr.swapaxes(1, 2)[:, :, None, :, None] * vx.conj().swapaxes(1, 2)[:, None, :, None, :]
    return QuantumChannel((amp[..., None, None] * outer)[keep])


def measurement_channel(m: Povm) -> QuantumChannel:
    """Measure with the POVM and record the outcome in a basis state."""
    return omega_channel(basis_povm(len(m)).elements, m)


def measured_channel(ch: QuantumChannel, m: Povm) -> QuantumChannel:
    """The classical readout channel P -> sum_b |e_b><e_b| Tr[P dual(E_b)].

    Output dimension equals the number of POVM elements; every output is
    diagonal in the standard basis.
    """
    return measurement_channel(dual_povm(ch, m))


# ---------------------------------------------------------------------------
# POVM constructions
# ---------------------------------------------------------------------------

def basis_povm(dim: int = 2) -> Povm:
    """Projective measurement in the computational basis."""
    return Povm(np.eye(dim, dtype=complex)[:, :, None] * np.eye(dim)[:, None, :])


def projective_povm(direction: np.ndarray) -> Povm:
    """Two-outcome qubit measurement along a Bloch direction."""
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    p = 0.5 * (np.eye(2, dtype=complex) + n[0] * _SIGMA_X + n[1] * _SIGMA_Y + n[2] * _SIGMA_Z)
    return Povm((p, np.eye(2, dtype=complex) - p))


def trine_povm(phases: np.ndarray | None = None) -> Povm:
    """Three-outcome qubit POVM from coplanar Bloch directions at 120 degrees."""
    if phases is None:
        phases = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    p = [0.5 * (np.eye(2, dtype=complex) + np.cos(t) * _SIGMA_X + np.sin(t) * _SIGMA_Z) for t in phases]
    return Povm(2.0 * np.array(p) / 3.0)


def pretty_good_measurement(probs: np.ndarray, states: list[np.ndarray]) -> Povm:
    """POVM with elements pi_j rho^{-1/2} rho_j rho^{-1/2} for rho = sum pi_j rho_j.

    When the average state is singular the identity deficit I - supp(rho) is
    folded into the first element to keep the family complete; ensemble states
    are supported inside supp(rho), so outcome statistics are unaffected.
    """
    probs, states = np.asarray(probs, dtype=float)[:, None, None], np.asarray(states, dtype=complex)
    avg = (probs * states).sum(axis=0)
    isq = matrix_pinv_sqrt(avg)
    elems = probs * (isq @ states @ isq)
    deficit = np.eye(avg.shape[0], dtype=complex) - support_projector(avg)
    if np.max(np.abs(deficit)) > EIG_CLIP:
        elems[0] += deficit
    return Povm(hermitize(elems, atol=1e-8))


# ---------------------------------------------------------------------------
# Random instances and serialized specifications
# ---------------------------------------------------------------------------

def random_channel(dim: int, kraus_rank: int, seed: int) -> QuantumChannel:
    """CPTP map sampled from a random isometry; deterministic per seed.

    Gaussian columns are orthonormalised into an isometry from dimension
    ``dim`` to ``dim * kraus_rank`` and sliced into Kraus blocks.
    """
    if not 1 <= kraus_rank <= dim * dim:
        raise InvariantViolation(f"kraus_rank {kraus_rank} outside [1, {dim * dim}]")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim * kraus_rank, dim)) + 1j * rng.normal(size=(dim * kraus_rank, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * np.where(np.abs(d) > 0, np.sign(d), 1.0)  # fix the QR gauge so the draw is canonical
    return QuantumChannel(q.reshape(kraus_rank, dim, dim))


def _matrix_from_json(obj, where: str) -> np.ndarray:
    try:
        rows = [[complex(entry[0], entry[1]) for entry in row] for row in obj]
    except (TypeError, IndexError) as exc:
        raise ChannelSpecError(f"{where}: matrix entries must be [re, im] pairs") from exc
    mat = np.array(rows, dtype=complex)
    if mat.ndim != 2:
        raise ChannelSpecError(f"{where}: expected a matrix")
    return mat


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def load_channel(text: str) -> QuantumChannel:
    """Build a channel from a JSON specification document.

    The document is an object with a ``kind`` field and kind-specific
    parameters; matrices are arrays of rows whose entries are [re, im] pairs.
    Recognised kinds: identity, depolarizing, amplitude-damping,
    phase-damping, bit-flip, completely-noisy, unitary, kraus, qc.
    """
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelSpecError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past Python's digit limit, or too deep nesting
        raise ChannelSpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ChannelSpecError("channel spec must be an object with a 'kind' field")
    kind = spec["kind"]

    def need(fieldname: str):
        if fieldname not in spec:
            raise ChannelSpecError(f"kind '{kind}' requires field '{fieldname}'")
        return spec[fieldname]

    def dim() -> int:  # a JSON integer within the total-dimension scope
        value = spec.get("dim", 2)
        if type(value) is not int or not 1 <= value <= 16:
            raise ChannelSpecError(f"kind '{kind}': 'dim' must be an integer in [1, 16]")
        return value

    try:
        if kind == "identity":
            return identity_channel(dim())
        if kind == "depolarizing":
            return depolarizing_channel(float(need("p")))
        if kind == "amplitude-damping":
            return amplitude_damping_channel(float(need("gamma")))
        if kind == "phase-damping":
            return phase_damping_channel(float(need("lambda")))
        if kind == "bit-flip":
            return bit_flip_channel(float(need("p")))
        if kind == "completely-noisy":
            return completely_noisy_channel(dim())
        if kind == "unitary":
            return unitary_channel(_matrix_from_json(need("matrix"), "matrix"))
        if kind == "kraus":
            ops = [_matrix_from_json(m, f"operators[{i}]") for i, m in enumerate(need("operators"))]
            return QuantumChannel(ops)
        if kind == "qc":
            states = [_matrix_from_json(m, f"states[{i}]") for i, m in enumerate(need("states"))]
            povm = Povm([_matrix_from_json(m, f"povm[{i}]") for i, m in enumerate(need("povm"))])
            return omega_channel(states, povm)
    except (ValueError, TypeError, DimensionMismatchError) as exc:
        raise ChannelSpecError(f"kind '{kind}': {exc}") from exc
    raise ChannelSpecError(f"unknown channel kind '{kind}'")


def channel_to_json(ch: QuantumChannel) -> str:
    """Serialize as a generic kraus-kind specification."""
    return json.dumps({"kind": "kraus", "operators": [matrix_to_json(k) for k in ch.kraus]})
