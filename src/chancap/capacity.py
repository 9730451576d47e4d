"""Capacity estimators: Blahut-Arimoto plus alternating local search.

The reported capacity values are feasible-point lower bounds on the
corresponding suprema: every returned number is the exact objective value at
the returned ensemble / POVM / state, so re-evaluating the objective at the
argmax reproduces it.  A deterministic Bloch-grid brute force provides an
independent cross-check for qubit channels.

On a qubit side the Nelder-Mead objectives work in Bloch coordinates: a
qubit channel is the affine map n -> T n + t on Bloch vectors, signal states
are Bloch vectors, effects are Pauli forms E = e0 I + e . sigma, and every
objective is a few operations on real 3-vectors.  These evaluate the same
numbers as the matrix route from the same parameters; the matrix route
stays for every other dimension and for the final exact re-evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .channels import PAULI, Povm, QuantumChannel, dual_povm, measured_channel
from .errors import DimensionMismatchError, InvariantViolation
from .information import (
    Ensemble,
    channel_mutual_information,
    holevo_information,
    measured_input_information,
    mutual_information,
)
from .linalg import EIG_CLIP, entropy, frozen


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget shared by all capacity estimators."""

    restarts: int = 6
    max_iters: int = 40  # alternation sweeps per restart
    tol: float = 1e-7  # stop when a full sweep improves the objective by less
    seed: int = 0
    ensemble_size_cap: int = 4
    povm_size_cap: int = 4

    def __post_init__(self):
        if self.restarts < 1:
            raise InvariantViolation(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iters < 0:
            raise InvariantViolation(f"max_iters must be nonnegative, got {self.max_iters}")
        if self.tol <= 0:
            raise InvariantViolation("tol must be positive")
        if self.ensemble_size_cap < 2 or self.povm_size_cap < 2:
            raise InvariantViolation("size caps must be at least 2")


@dataclass(frozen=True)
class CapacityResult:
    """Best feasible point found, with the objective value it achieves."""

    value: float
    argmax_ensemble: Ensemble | None = None
    argmax_povm: Povm | None = None
    argmax_rho: np.ndarray | None = None
    restarts_used: int = 0
    converged: bool = False


@dataclass(frozen=True)
class QubitEffect:
    """Qubit POVM element in Pauli form E = w0 I + w . sigma.

    Feasible (0 <= E <= I) exactly when |w| <= min(w0, 1 - w0); a POVM
    additionally satisfies sum w0 = 1 and sum w = 0.
    """

    weight: float
    bloch: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bloch, dtype=float)
        if b.shape != (3,):
            raise DimensionMismatchError("bloch must be a 3-vector")
        if not 0.0 <= self.weight <= 1.0:
            raise InvariantViolation(f"weight {self.weight} outside [0, 1]")
        if np.linalg.norm(b) > min(self.weight, 1.0 - self.weight) + 1e-12:
            raise InvariantViolation(
                f"|w| = {np.linalg.norm(b):.6f} exceeds min(w0, 1-w0) = "
                f"{min(self.weight, 1.0 - self.weight):.6f}"
            )
        object.__setattr__(self, "bloch", frozen(b))

    def to_matrix(self) -> np.ndarray:
        e = self.weight * np.eye(2, dtype=complex)
        for c, s in zip(self.bloch, PAULI):
            e = e + c * s
        return e

    @classmethod
    def from_matrix(cls, e: np.ndarray) -> "QubitEffect":
        e = np.asarray(e, dtype=complex)
        if e.shape != (2, 2):
            raise DimensionMismatchError("qubit effect must be 2x2")
        w0 = float(np.trace(e).real / 2.0)
        w = np.array([float(np.trace(e @ s).real / 2.0) for s in PAULI])
        return cls(w0, w)


def qubit_povm_effects(m: Povm) -> list[QubitEffect]:
    """Pauli-form parameters of a qubit POVM, with completeness re-checked."""
    if m.dim != 2:
        raise DimensionMismatchError("Pauli form applies to qubit POVMs only")
    effects = [QubitEffect.from_matrix(e) for e in m.elements]
    if abs(sum(e.weight for e in effects) - 1.0) > 1e-9:
        raise InvariantViolation("effect weights do not sum to 1")
    if np.linalg.norm(sum(e.bloch for e in effects)) > 1e-9:
        raise InvariantViolation("effect Bloch vectors do not sum to 0")
    return effects


# ---------------------------------------------------------------------------
# Blahut-Arimoto for the classical inner problem
# ---------------------------------------------------------------------------

def blahut_arimoto(
    kernel: np.ndarray,
    tol: float = 1e-9,
    max_iters: int = 2000,
    full_output: bool = False,
    init_weights: np.ndarray | None = None,
):
    """Capacity (bits) of the discrete channel p(b|j) over input distributions.

    Iterates the classical alternating update; the running lower bound is
    monotone nondecreasing, and iteration stops once the standard upper/lower
    capacity gap max_j D_j - sum_j r_j D_j falls below ``tol``.

    Returns ``(capacity, weights)``, or ``(capacity, weights, info)`` with the
    per-iteration lower-bound history when ``full_output`` is set.
    """
    k = np.asarray(kernel, dtype=float)
    if k.ndim != 2 or k.shape[0] < 1:
        raise InvariantViolation(f"kernel must be a 2-D row-stochastic array, got shape {k.shape}")
    if k.min() < -1e-12:
        raise InvariantViolation(f"kernel has negative entry {k.min():.3e}")
    k = np.clip(k, 0.0, None)
    row_sums = k.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise InvariantViolation("kernel rows must each sum to 1")
    k = k / row_sums[:, None]

    n_in = k.shape[0]
    if init_weights is not None and len(init_weights) == n_in and np.min(init_weights) >= 0:
        r = np.asarray(init_weights, dtype=float) + 1e-9
        r = r / r.sum()
    else:
        r = np.full(n_in, 1.0 / n_in)

    mask = k > 0.0
    logk = np.where(mask, np.log2(np.where(mask, k, 1.0)), 0.0)

    def divergences(weights):
        pbar = weights @ k
        safe = np.where(pbar > 0.0, pbar, 1.0)
        return np.sum(np.where(mask, k * (logk - np.log2(safe)[None, :]), 0.0), axis=1)

    d = divergences(r)
    lower = float(r @ d)
    upper = float(d.max())
    history = [lower]
    gamma = 1.0  # over-relaxation exponent, backtracked to keep the bound monotone
    for _ in range(int(max_iters)):
        if upper - lower < tol:
            break
        while True:
            cand = r * np.exp2(gamma * (d - upper))
            cand = cand / cand.sum()
            d_cand = divergences(cand)
            lower_cand = float(cand @ d_cand)
            if lower_cand >= lower - 1e-15 or gamma <= 1.0:
                break
            gamma = max(1.0, 0.5 * gamma)
        r, d = cand, d_cand
        lower = max(lower_cand, lower)
        upper = float(d.max())
        history.append(lower)
        gamma = min(1.5 * gamma, 16.0)

    if full_output:
        return lower, r, {"lower_bounds": history, "iterations": len(history)}
    return lower, r


# ---------------------------------------------------------------------------
# Parametrisations (feasible by construction)
# ---------------------------------------------------------------------------

def _bloch_to_vector(theta: float, phi: float) -> np.ndarray:
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


def pure_states_from_params(x: np.ndarray, dim: int, n: int) -> np.ndarray:
    """Stack of n pure density matrices from unconstrained real parameters.

    Qubits use Bloch angles (theta, phi) per state; higher dimensions use 2*dim
    reals per state interpreted as a complex vector and normalised.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n, dim, dim), dtype=complex)
    if dim == 2:
        for j in range(n):
            v = _bloch_to_vector(x[2 * j], x[2 * j + 1])
            out[j] = np.outer(v, v.conj())
    else:
        per = 2 * dim
        for j in range(n):
            chunk = x[per * j:per * (j + 1)]
            v = chunk[:dim] + 1j * chunk[dim:]
            norm = np.linalg.norm(v)
            if norm < 1e-12:
                v = np.zeros(dim, dtype=complex)
                v[0] = 1.0
                norm = 1.0
            v = v / norm
            out[j] = np.outer(v, v.conj())
    return out


def n_state_params(dim: int, n: int) -> int:
    return 2 * n if dim == 2 else 2 * dim * n


def povm_elements_from_params(x: np.ndarray, dim: int, n_out: int) -> np.ndarray:
    """Stack of n_out rank-1 POVM elements, complete by construction.

    The parameters fill a complex (n_out x dim) matrix whose orthonormalised
    columns make an isometry; its rows give element vectors, so completeness
    and 0 <= E <= I hold exactly for every parameter value.
    """
    x = np.asarray(x, dtype=float)
    g = (x[: n_out * dim] + 1j * x[n_out * dim:]).reshape(n_out, dim)
    q, r = np.linalg.qr(g, mode="reduced")
    d = np.diagonal(r)
    q = q * np.where(np.abs(d) > 0, np.sign(d), 1.0)  # gauge fix: orthonormal g maps to itself
    elems = np.einsum("bi,bj->bij", q.conj(), q)
    return elems


def n_povm_params(dim: int, n_out: int) -> int:
    return 2 * n_out * dim


def _povm_params_from_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=complex)
    return np.concatenate([rows.real.ravel(), rows.imag.ravel()])


def density_from_params(x: np.ndarray, dim: int) -> np.ndarray:
    """Full-rank density matrix from eigenvalue logits and unitary parameters."""
    x = np.asarray(x, dtype=float)
    logits = x[:dim]
    z = np.exp(logits - logits.max())
    lam = z / z.sum()
    g = (x[dim: dim + dim * dim] + 1j * x[dim + dim * dim:]).reshape(dim, dim)
    if np.linalg.norm(g) < 1e-9:
        g = np.eye(dim, dtype=complex)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * np.where(np.abs(d) > 0, np.sign(d), 1.0)
    return (q * lam) @ q.conj().T


def n_density_params(dim: int) -> int:
    return dim + 2 * dim * dim


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

def _dual_effect_stack(ch: QuantumChannel, elements: np.ndarray) -> np.ndarray:
    kr = np.stack(ch.kraus)
    return np.einsum("kxa,mxy,kyb->mab", kr.conj(), np.asarray(elements), kr)


def _kernel(states: np.ndarray, effects: np.ndarray) -> np.ndarray:
    k = np.einsum("jab,mba->jm", states, effects).real
    return np.clip(k, 0.0, None)


def _mi_fixed_weights(weights: np.ndarray, kernel: np.ndarray) -> float:
    """Mutual information of the joint weights x kernel, weights held fixed."""
    q = weights @ kernel
    safe_k = np.where(kernel > 0.0, kernel, 1.0)  # zero entries contribute 0 * finite = 0
    safe_q = np.where(q > 0.0, q, 1.0)
    return float(weights @ (kernel * (np.log2(safe_k) - np.log2(safe_q))).sum(axis=1))


def _eig_entropy(lam: np.ndarray) -> np.ndarray:
    """Entropies (bits) of eigenvalue lists along the last axis; entries at or below EIG_CLIP count 0."""
    kept = np.where(lam > EIG_CLIP, lam, 1.0)  # 1 log 1 = 0
    return -(kept * np.log2(kept)).sum(axis=-1)


# ---------------------------------------------------------------------------
# Qubit objectives in Bloch coordinates
# ---------------------------------------------------------------------------
#
# A qubit state is rho = (I + n . sigma) / 2 and an effect E = e0 I + e . sigma,
# so Tr(rho E) = e0 + n . e.  Each helper returns, from the same parameters,
# the Bloch or Pauli form of the matrix its ``*_from_params`` counterpart builds.

_PAULI_STACK = np.stack(PAULI)


def _pauli_form(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e0, e) with M = e0 I + e . sigma, for a stack of 2x2 Hermitian matrices."""
    e = 0.5 * np.einsum("...ab,kba->...k", mats, _PAULI_STACK).real
    return 0.5 * np.einsum("...aa->...", mats).real, e


def _affine_bloch_map(ch: QuantumChannel) -> tuple[np.ndarray, np.ndarray]:
    """(T, t) such that the qubit channel maps input Bloch vector n to T n + t."""
    shift = _bloch_of_outputs(ch, np.zeros((1, 3)))
    return (_bloch_of_outputs(ch, np.eye(3)) - shift).T, shift[0]


def _bloch_of_angles(x: np.ndarray) -> np.ndarray:
    """Bloch vectors (rows) of ``pure_states_from_params(x, 2, n)``."""
    theta, phi = x[0::2], x[1::2]
    s = np.sin(theta)
    out = np.empty((len(theta), 3))
    out[:, 0], out[:, 1], out[:, 2] = s * np.cos(phi), s * np.sin(phi), np.cos(theta)
    return out


def _bloch_kernel(bloch: np.ndarray, effects: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``_kernel`` of the states with these Bloch vectors and the effects in Pauli form."""
    e0, e = effects
    return np.maximum(e0 + bloch @ e.T, 0.0)


def _povm_pauli_from_params(x: np.ndarray, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Pauli form of ``povm_elements_from_params(x, 2, n_out)``.

    The gauge-fixed QR of the two-column matrix g is Gram-Schmidt on its
    columns.  Where a column vanishes or the columns are (nearly) parallel,
    the basis is QR's own, so the elements come from the matrix route; so
    they do for column norms far from 1, where the squares below would
    leave the floating-point range.
    """
    g = np.empty(2 * n_out, dtype=complex)
    g.real, g.imag = x[: 2 * n_out], x[2 * n_out:]
    a, b = g[0::2], g[1::2]  # the columns of g
    aa, bb = np.vdot(a, a).real, np.vdot(b, b).real
    if 1e-150 < aa < 1e150 and bb < 1e150:
        u = b - (np.vdot(a, b) / aa) * a
        uu = np.vdot(u, u).real
        if uu > max(1e-12 * bb, 1e-150):
            ac = a.conj()
            p0, p1 = (ac * a).real / aa, (u.conj() * u).real / uu
            off = ac * u / np.sqrt(aa * uu)  # element (0, 1) of each E_b
            w = np.empty((n_out, 3))
            w[:, 0], w[:, 1], w[:, 2] = off.real, -off.imag, 0.5 * (p0 - p1)
            return 0.5 * (p0 + p1), w
    return _pauli_form(povm_elements_from_params(x, 2, n_out))


def _density_bloch_from_params(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and Bloch vector of ``density_from_params(x, 2)``.

    rho = lam_1 I + (lam_0 - lam_1) q q^dag with q the first column of the
    gauge-fixed QR of g, i.e. g's first column normalised.  A vanishing first
    column leaves q to QR, so rho then comes from the matrix route.
    """
    logits = x[:2]
    z = np.exp(logits - logits.max())
    lam = z / z.sum()
    if np.sqrt(x[2:] @ x[2:]) < 1e-9:  # density_from_params takes g = I
        return lam, np.array([0.0, 0.0, lam[0] - lam[1]])
    p, q, r, s = x[2], x[6], x[4], x[8]  # g[:, 0] = (p + iq, r + is)
    norm2 = p * p + q * q + r * r + s * s
    if 1e-300 < norm2 < 1e300:
        scale = (lam[0] - lam[1]) / norm2
        return lam, scale * np.array([2.0 * (p * r + q * s), 2.0 * (p * s - q * r), p * p + q * q - r * r - s * s])
    return lam, 2.0 * _pauli_form(density_from_params(x, 2))[1]


def _measured_input_bloch(rho: tuple[np.ndarray, np.ndarray], effects: tuple[np.ndarray, np.ndarray]) -> float:
    """Measured-input information of a qubit input against pulled-back effects.

    ``rho`` is (eigenvalues, Bloch vector) and ``effects`` the Pauli form of
    dual(E_b).  The block sqrt(rho) dual(E_b) sqrt(rho) has trace
    tau_b = Tr(rho dual(E_b)) and determinant det(rho) det(dual(E_b)), which
    fix its two eigenvalues.
    """
    lam, n = rho
    e0, e = effects
    tau = np.maximum(e0 + e @ n, 0.0)
    det = lam[0] * lam[1] * np.maximum(e0 * e0 - (e * e).sum(axis=1), 0.0)
    half = 0.5 * tau
    s = np.sqrt(np.maximum(half * half - det, 0.0))
    block_eigs = np.concatenate([half + s, np.maximum(half - s, 0.0)])
    return float(_eig_entropy(lam) - _eig_entropy(block_eigs) + _eig_entropy(tau))


def _bloch_outputs_of(ch: QuantumChannel):
    """Signal parameters -> Bloch vectors (rows) of the qubit channel's outputs."""
    t_mat, shift = _affine_bloch_map(ch)
    return lambda xs: _bloch_of_angles(xs) @ t_mat.T + shift


def _qubit_chi(weights: np.ndarray, bloch_out: np.ndarray) -> float:
    """Holevo quantity of qubit outputs (Bloch vectors, rows) at fixed weights."""
    vecs = np.vstack([weights @ bloch_out, bloch_out])
    radii = np.sqrt((vecs * vecs).sum(axis=1))
    ent = _eig_entropy(np.stack([0.5 * (1.0 + radii), 0.5 * (1.0 - radii)], axis=1))
    return float(ent[0] - weights @ ent[1:])


def _signal_route(din: int, n_states: int):
    """(signals, kernel) for the Nelder-Mead objectives.

    ``signals`` maps signal parameters to states and ``kernel`` takes those
    states and the input-side effects to p(b|j).  On a qubit input the states
    are Bloch vectors and the effects Pauli forms.
    """
    if din == 2:
        return _bloch_of_angles, _bloch_kernel
    return (lambda xs: pure_states_from_params(xs, din, n_states)), _kernel


def _pulled_back_effects(ch: QuantumChannel, n_out: int):
    """POVM parameters -> the POVM pulled back to the channel input.

    The effects are in Pauli form on a qubit input, and matrices otherwise.
    A qubit channel pulls back the Pauli form w0 I + w . sigma as
    (w0 + w . t) I + (T^T w) . sigma.
    """
    din, dout = ch.dim_in, ch.dim_out
    if (din, dout) == (2, 2):
        t_mat, shift = _affine_bloch_map(ch)

        def pulled(xm):
            w0, w = _povm_pauli_from_params(xm, n_out)
            return w0 + w @ shift, w @ t_mat
    else:
        def pulled(xm):
            duals = _dual_effect_stack(ch, povm_elements_from_params(xm, dout, n_out))
            return _pauli_form(duals) if din == 2 else duals
    return pulled


def _nelder_mead(fun, x0: np.ndarray, maxfev: int) -> tuple[np.ndarray, float]:
    res = minimize(
        fun,
        np.asarray(x0, dtype=float),
        method="Nelder-Mead",
        options={"maxfev": int(maxfev), "xatol": 1e-7, "fatol": 1e-11, "adaptive": True},
    )
    return res.x, float(res.fun)


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    return np.random.default_rng([seed, restart])


def _best_of_draws(objective, draw, rng: np.random.Generator, n_draws: int = 24) -> np.ndarray:
    """Cheap basin selection: evaluate a handful of random starts, keep the best."""
    best_x, best_v = None, -np.inf
    for _ in range(n_draws):
        x = draw(rng)
        v = objective(x)
        if v > best_v:
            best_x, best_v = x, v
    return best_x


_CANONICAL_ANGLES = {
    # (theta, phi) Bloch angles of the +-z, +-x, +-y axes and a tetrahedron
    "zx": [(0.0, 0.0), (np.pi, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi)],
    "xy": [(np.pi / 2, 0.0), (np.pi / 2, np.pi), (np.pi / 2, np.pi / 2), (np.pi / 2, -np.pi / 2)],
    "zy": [(0.0, 0.0), (np.pi, 0.0), (np.pi / 2, np.pi / 2), (np.pi / 2, -np.pi / 2)],
    "tetra": [
        (0.0, 0.0),
        (np.arccos(-1.0 / 3.0), 0.0),
        (np.arccos(-1.0 / 3.0), 2 * np.pi / 3),
        (np.arccos(-1.0 / 3.0), 4 * np.pi / 3),
    ],
}

_CANONICAL_BASES = {
    # columns are the measured basis vectors
    "zx": np.eye(2, dtype=complex),
    "xy": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "zy": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    "tetra": np.eye(2, dtype=complex),
}


def _state_inits(dim: int, n: int, rng: np.random.Generator, restart: int) -> np.ndarray:
    names = list(_CANONICAL_ANGLES)
    if dim == 2 and restart < len(names):
        angles = _CANONICAL_ANGLES[names[restart]]
        x = np.zeros(2 * n)
        for j in range(n):
            t, p = angles[j % len(angles)]
            x[2 * j], x[2 * j + 1] = t, p
        return x
    if dim != 2 and restart == 0:
        x = np.zeros(n_state_params(dim, n))
        per = 2 * dim
        for j in range(n):
            x[per * j + (j % dim)] = 1.0
        return x
    return rng.normal(scale=1.5, size=n_state_params(dim, n))


def _povm_inits(dim: int, n_out: int, rng: np.random.Generator, restart: int) -> np.ndarray:
    names = list(_CANONICAL_BASES)
    if dim == 2 and restart < len(names):
        basis = _CANONICAL_BASES[names[restart]]
        rows = np.zeros((n_out, 2), dtype=complex)
        # element b projects onto basis column b, so the isometry row is its conjugate
        rows[0], rows[1] = basis[:, 0].conj(), basis[:, 1].conj()
        return _povm_params_from_rows(rows)
    if dim != 2 and restart == 0:
        rows = np.zeros((n_out, dim), dtype=complex)
        for b in range(min(dim, n_out)):
            rows[b, b] = 1.0
        return _povm_params_from_rows(rows)
    return rng.normal(size=n_povm_params(dim, n_out))


# ---------------------------------------------------------------------------
# Shannon capacity
# ---------------------------------------------------------------------------

def shannon_capacity(ch: QuantumChannel, cfg: OptimizerConfig) -> CapacityResult:
    """Best feasible mutual information over ensembles and product POVMs.

    Alternates (i) signal-state local search with Blahut-Arimoto weights on
    the induced classical kernel against (ii) POVM local search over the
    rank-1 isometry parametrisation, keeping the best of ``cfg.restarts``
    deterministic seeds.  The value is a lower bound on the true supremum.
    """
    din, dout = ch.dim_in, ch.dim_out
    n_states = max(cfg.ensemble_size_cap, 2)
    n_out = max(cfg.povm_size_cap, dout)

    n_canon = len(_CANONICAL_ANGLES) if din == 2 else 1
    ns = n_state_params(din, n_states)
    ceiling = np.log2(min(din, dout))
    signals, kernel = _signal_route(din, n_states)
    pulled = _pulled_back_effects(ch, n_out)

    best = None
    runs = 0
    for restart in range(cfg.restarts):
        if best is not None and best.value >= ceiling - 1e-11:
            break
        runs += 1
        rng = _restart_rng(cfg.seed, restart)
        warm = {"w": None}

        def ba_value(xs_, xm_):
            effects = _dual_effect_stack(ch, povm_elements_from_params(xm_, dout, n_out))
            kern = _kernel(pure_states_from_params(xs_, din, n_states), effects)
            c, w = blahut_arimoto(kern, tol=1e-9, max_iters=250, init_weights=warm["w"])
            warm["w"] = w
            return c

        if restart == 0 and (din, dout) == (2, 2):
            # start from the coarse grid scan's best two-point configuration
            xs, xm, _ = _witness_inits(ch, n_states, n_out)
        elif restart < n_canon:
            xs = _state_inits(din, n_states, rng, restart)
            xm = _povm_inits(dout, n_out, rng, restart)
        else:
            cat = _best_of_draws(
                lambda v: ba_value(v[:ns], v[ns:]),
                lambda r: np.concatenate(
                    [r.normal(scale=1.5, size=ns), r.normal(size=n_povm_params(dout, n_out))]
                ),
                rng,
            )
            xs, xm = cat[:ns], cat[ns:]

        current = ba_value(xs, xm)
        converged = False
        for _ in range(cfg.max_iters):
            # weights from the sweep-start kernel stay fixed inside both blocks
            w = warm["w"]
            effects = pulled(xm)
            xs, _ = _nelder_mead(lambda v: -_mi_fixed_weights(w, kernel(signals(v), effects)), xs, maxfev=60 * len(xs))
            states = signals(xs)
            xm, _ = _nelder_mead(lambda v: -_mi_fixed_weights(w, kernel(states, pulled(v))), xm, maxfev=60 * len(xm))
            value = ba_value(xs, xm)
            improved = value - current
            current = max(value, current)
            if improved < cfg.tol:
                converged = True
                break

        states = pure_states_from_params(xs, din, n_states)
        elements = povm_elements_from_params(xm, dout, n_out)
        kern = _kernel(states, _dual_effect_stack(ch, elements))
        _, weights = blahut_arimoto(kern, tol=1e-10, max_iters=3000)
        ensemble = Ensemble(weights, tuple(states))
        povm = Povm(tuple(elements))
        value = channel_mutual_information(ch, ensemble, povm)
        if best is None or value > best.value:
            best = CapacityResult(value, ensemble, povm, converged=converged)
    return replace(best, restarts_used=runs)


def fixed_measurement_capacity(
    ch: QuantumChannel | None,
    m: Povm,
    cfg: OptimizerConfig,
    dim: int | None = None,
) -> CapacityResult:
    """Best feasible mutual information over ensembles at a fixed measurement.

    With a channel, optimises signals against the pulled-back POVM; without
    one, the POVM acts directly on the signal space (``dim`` defaults to the
    POVM dimension).
    """
    if ch is not None:
        effects = _dual_effect_stack(ch, np.stack(m.elements))
        din = ch.dim_in
    else:
        effects = np.stack(m.elements)
        din = dim if dim is not None else m.dim
    n_states = max(cfg.ensemble_size_cap, 2)

    n_canon = len(_CANONICAL_ANGLES) if din == 2 else 1
    ceiling = min(np.log2(din), np.log2(len(m.elements)))

    signals, kernel = _signal_route(din, n_states)
    input_effects = _pauli_form(effects) if din == 2 else effects

    best = None
    runs = 0
    for restart in range(cfg.restarts):
        if best is not None and best.value >= ceiling - 1e-11:
            break
        runs += 1
        rng = _restart_rng(cfg.seed, restart)
        warm = {"w": None}

        def ba_value(xs_):
            kern = _kernel(pure_states_from_params(xs_, din, n_states), effects)
            c, w = blahut_arimoto(kern, tol=1e-9, max_iters=250, init_weights=warm["w"])
            warm["w"] = w
            return c

        if restart < n_canon:
            xs = _state_inits(din, n_states, rng, restart)
        else:
            xs = _best_of_draws(
                ba_value,
                lambda r: r.normal(scale=1.5, size=n_state_params(din, n_states)),
                rng,
            )

        current = ba_value(xs)
        converged = False
        for _ in range(cfg.max_iters):
            w = warm["w"]
            xs, _ = _nelder_mead(
                lambda v: -_mi_fixed_weights(w, kernel(signals(v), input_effects)), xs, maxfev=60 * len(xs)
            )
            value = ba_value(xs)
            improved = value - current
            current = max(value, current)
            if improved < cfg.tol:
                converged = True
                break

        states = pure_states_from_params(xs, din, n_states)
        kern = _kernel(states, effects)
        _, weights = blahut_arimoto(kern, tol=1e-10, max_iters=3000)
        ensemble = Ensemble(weights, tuple(states))
        if ch is not None:
            value = channel_mutual_information(ch, ensemble, m)
        else:
            value = mutual_information(ensemble, m)
        if best is None or value > best.value:
            best = CapacityResult(value, ensemble, m, converged=converged)
    return replace(best, restarts_used=runs)


# ---------------------------------------------------------------------------
# Holevo capacity
# ---------------------------------------------------------------------------

def _entropy_stack(mats: np.ndarray) -> np.ndarray:
    return _eig_entropy(np.clip(np.linalg.eigvalsh(mats), 0.0, None))


def _entropy_and_log2_psd2(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Entropy (bits) and base-2 logarithm of a 2x2 PSD matrix, closed form.

    Eigenvalues floored at the clipping threshold so singular averages stay
    usable inside gradient ascent.
    """
    t = m[0, 0].real + m[1, 1].real
    delta = m - 0.5 * t * np.eye(2)
    s = np.sqrt(max((delta @ delta).trace().real / 2.0, 0.0))
    hi = max(t / 2.0 + s, EIG_CLIP)
    lo = max(t / 2.0 - s, EIG_CLIP)
    ent = -(hi * np.log2(hi) + lo * np.log2(lo))
    if s < 1e-15:
        return ent, 0.5 * np.log2(hi * lo) * np.eye(2, dtype=complex)
    alpha = 0.5 * np.log2(hi * lo)
    beta = 0.5 * np.log2(hi / lo) / s
    return ent, alpha * np.eye(2, dtype=complex) + beta * delta


def max_holevo_weights(
    outputs: np.ndarray,
    tol: float = 1e-9,
    max_iters: int = 600,
    init_weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Maximise chi over the weight simplex for fixed channel outputs.

    Exponentiated-gradient ascent with backtracking; chi is concave in the
    weights, and the gradient components are the relative entropies of each
    output to the average, so max_j grad_j - chi bounds the optimality gap.
    """
    outs = np.asarray(outputs, dtype=complex)
    n = outs.shape[0]
    s_each = _entropy_stack(outs)
    if init_weights is not None and len(init_weights) == n and np.min(init_weights) >= 0:
        pi = np.asarray(init_weights, dtype=float) + 1e-10
        pi = pi / pi.sum()
    else:
        pi = np.full(n, 1.0 / n)

    dim = outs.shape[-1]

    def chi_and_logavg(p):
        avg = np.einsum("j,jab->ab", p, outs)
        if dim == 2:
            ent, log_avg = _entropy_and_log2_psd2(avg)
            return float(ent - p @ s_each), log_avg
        lam, vec = np.linalg.eigh(avg)
        lam = np.clip(lam, EIG_CLIP, None)
        chi_val = float(-(lam * np.log2(lam)).sum() - p @ s_each)
        return chi_val, (vec * np.log2(lam)) @ vec.conj().T

    chi, log_avg = chi_and_logavg(pi)
    eta = 1.0
    for _ in range(int(max_iters)):
        grad = -s_each - np.einsum("jab,ba->j", outs, log_avg).real
        gap = float(grad.max() - chi)
        if gap < tol:
            break
        eta = min(eta * 2.0, 8.0)
        accepted = False
        while eta > 1e-8:
            cand = pi * np.exp2(eta * (grad - grad.max()))
            cand = cand / cand.sum()
            chi_cand, log_cand = chi_and_logavg(cand)
            if chi_cand >= chi:
                stalled = chi_cand - chi < 1e-13
                pi, chi, log_avg = cand, chi_cand, log_cand
                accepted = not stalled
                break
            eta *= 0.5
        if not accepted:
            break
    return chi, pi


def holevo_capacity(ch: QuantumChannel, cfg: OptimizerConfig) -> CapacityResult:
    """Best feasible Holevo quantity over ensembles of pure signal states."""
    din = ch.dim_in
    n_states = max(cfg.ensemble_size_cap, 2)
    kr = np.stack(ch.kraus)

    n_canon = len(_CANONICAL_ANGLES) if din == 2 else 1

    def outputs_of(xs_):
        states = pure_states_from_params(xs_, din, n_states)
        return np.einsum("kai,jib,kcb->jac", kr, states, kr.conj())

    if (din, ch.dim_out) == (2, 2):
        bloch_outputs_of = _bloch_outputs_of(ch)

        def chi_fixed(w, xs_):
            return _qubit_chi(w, bloch_outputs_of(xs_))
    else:
        def chi_fixed(w, xs_):
            outs = outputs_of(xs_)
            avg = np.einsum("j,jab->ab", w, outs)
            return float(_entropy_stack(avg[None])[0] - w @ _entropy_stack(outs))

    ceiling = np.log2(min(din, ch.dim_out))

    best = None
    runs = 0
    for restart in range(cfg.restarts):
        if best is not None and best.value >= ceiling - 1e-11:
            break
        runs += 1
        rng = _restart_rng(cfg.seed, restart)
        warm = {"w": None}

        def chi_value(xs_):
            c, w = max_holevo_weights(outputs_of(xs_), tol=1e-9, max_iters=250, init_weights=warm["w"])
            warm["w"] = w
            return c

        if restart < n_canon:
            xs = _state_inits(din, n_states, rng, restart)
        else:
            xs = _best_of_draws(
                chi_value,
                lambda r: r.normal(scale=1.5, size=n_state_params(din, n_states)),
                rng,
            )

        current = chi_value(xs)
        converged = False
        for _ in range(cfg.max_iters):
            w = warm["w"]
            xs, _ = _nelder_mead(lambda v: -chi_fixed(w, v), xs, maxfev=60 * len(xs))
            value = chi_value(xs)
            improved = value - current
            current = max(value, current)
            if improved < cfg.tol:
                converged = True
                break

        states = pure_states_from_params(xs, din, n_states)
        outs = np.einsum("kai,jib,kcb->jac", kr, states, kr.conj())
        _, weights = max_holevo_weights(outs, tol=1e-11, max_iters=3000)
        ensemble = Ensemble(weights, tuple(states))
        value = holevo_information(ch, ensemble)
        if best is None or value > best.value:
            best = CapacityResult(value, ensemble, converged=converged)
    return replace(best, restarts_used=runs)


# ---------------------------------------------------------------------------
# Measured-input upper bound
# ---------------------------------------------------------------------------

def measured_input_bound(ch: QuantumChannel, cfg: OptimizerConfig) -> CapacityResult:
    """Best feasible value of the measured-input information over (rho, POVM).

    The average input is parametrised full rank (eigenvalue simplex times a
    unitary) and the POVM by the rank-1 isometry construction; the result is
    a lower bound on the supremum that upper-bounds the Shannon capacity.
    """
    din, dout = ch.dim_in, ch.dim_out
    n_out = max(cfg.povm_size_cap, dout)

    nr = n_density_params(din)
    ceiling = np.log2(min(din, dout))
    qubit = (din, dout) == (2, 2)

    # the objective is information(input_of(xr), effects_of(xm))
    effects_of = _pulled_back_effects(ch, n_out)
    if din == 2:
        input_of, information = _density_bloch_from_params, _measured_input_bloch
    else:
        information = _measured_input_fast

        def input_of(xr_):
            return density_from_params(xr_, din)

    def value_of(xr_, xm_):
        return information(input_of(xr_), effects_of(xm_))

    best_x = None
    best_val = -np.inf
    best_conv = False
    runs = 0
    for restart in range(cfg.restarts):
        if best_val >= ceiling - 1e-11:
            break
        runs += 1
        rng = _restart_rng(cfg.seed, restart)

        if restart == 0 and qubit:
            # the coarse grid scan's witness: the weighted two-point average
            # input with its best projective readout
            _, xm, xr = _witness_inits(ch, 2, n_out)
        elif restart == 0 or (restart == 1 and qubit):
            # maximally mixed input; readout along the channel ellipsoid's
            # dominant output axis when available, the basis otherwise
            xr = np.zeros(nr)
            xm = _ellipsoid_povm_init(ch, n_out) if qubit else _povm_inits(dout, n_out, rng, 0)
        else:
            cat = _best_of_draws(
                lambda v: value_of(v[:nr], v[nr:]),
                lambda r: np.concatenate(
                    [r.normal(scale=0.8, size=nr), r.normal(size=n_povm_params(dout, n_out))]
                ),
                rng,
                n_draws=32,
            )
            xr, xm = cat[:nr], cat[nr:]

        current = value_of(xr, xm)
        converged = False
        for _ in range(cfg.max_iters):
            effects = effects_of(xm)
            xr, _ = _nelder_mead(lambda v: -information(input_of(v), effects), xr, maxfev=60 * len(xr))
            rho = input_of(xr)
            xm, neg = _nelder_mead(lambda v: -information(rho, effects_of(v)), xm, maxfev=60 * len(xm))
            improved = -neg - current
            current = -neg
            if improved < cfg.tol:
                converged = True
                break

        if current > best_val:
            best_x, best_val, best_conv = np.concatenate([xr, xm]), current, converged

    # joint polish of the winning restart removes residual block zigzag
    cat, _ = _nelder_mead(
        lambda v: -value_of(v[:nr], v[nr:]), best_x, maxfev=45 * len(best_x)
    )
    rho = density_from_params(cat[:nr], din)
    povm = Povm(tuple(povm_elements_from_params(cat[nr:], dout, n_out)))
    value = measured_input_information(ch, rho, povm)
    if value < best_val:  # keep the unpolished point if polish regressed the re-evaluation
        rho = density_from_params(best_x[:nr], din)
        povm = Povm(tuple(povm_elements_from_params(best_x[nr:], dout, n_out)))
        value = measured_input_information(ch, rho, povm)
    return CapacityResult(value, None, povm, frozen(rho), runs, best_conv)


def _coarse_qubit_scan(ch: QuantumChannel, density: int = 10):
    """Deterministic two-point scan over Bloch directions.

    Returns (value, bloch_lo, bloch_hi, weights, best_direction): the best
    binary-measurement mutual information found on a coarse grid, the two
    extreme signal directions achieving it, their Blahut-Arimoto weights and
    the measurement direction.
    """
    grid = _grid_directions(density)
    bloch_out = _bloch_of_outputs(ch, grid)
    meas = grid[grid[:, 2] > 1e-12]
    meas = np.vstack([meas, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    p = np.clip(0.5 * (1.0 + bloch_out @ meas.T), 0.0, 1.0)
    best = (-1.0, None)
    for col in range(meas.shape[0]):
        jlo, jhi = int(np.argmin(p[:, col])), int(np.argmax(p[:, col]))
        lo, hi = float(p[jlo, col]), float(p[jhi, col])
        if hi - lo < 1e-12:
            continue
        c, w = blahut_arimoto(
            np.array([[lo, 1.0 - lo], [hi, 1.0 - hi]]), tol=1e-9, max_iters=300
        )
        if c > best[0]:
            best = (c, (grid[jlo], grid[jhi], w, meas[col]))
    if best[1] is None:
        return 0.0, grid[0], grid[1], np.array([0.5, 0.5]), np.array([0.0, 0.0, 1.0])
    value, (b_lo, b_hi, w, n) = best
    return value, b_lo, b_hi, w, n


def _bloch_state(n: np.ndarray) -> np.ndarray:
    return 0.5 * (np.eye(2, dtype=complex) + sum(c * s for c, s in zip(n, PAULI)))


def _bloch_angles(n: np.ndarray) -> tuple[float, float]:
    return float(np.arccos(np.clip(n[2], -1.0, 1.0))), float(np.arctan2(n[1], n[0]))


def _projective_rows(n: np.ndarray, n_out: int) -> np.ndarray:
    lam, vec = np.linalg.eigh(_bloch_state(n))
    rows = np.zeros((n_out, 2), dtype=complex)
    rows[0] = vec[:, np.argmax(lam)].conj()
    rows[1] = vec[:, np.argmin(lam)].conj()
    return rows


def _density_params_from_state(rho: np.ndarray) -> np.ndarray:
    """Parameters that reproduce a full-rank density matrix exactly."""
    dim = rho.shape[0]
    mixed = (1.0 - 1e-9) * rho + 1e-9 * np.eye(dim) / dim
    lam, vec = np.linalg.eigh(mixed)
    return np.concatenate([np.log(np.clip(lam, 1e-300, None)), vec.real.ravel(), vec.imag.ravel()])


def _witness_inits(ch: QuantumChannel, n_states: int, n_out: int):
    """Shannon-style and measured-input inits from the coarse scan's argmax."""
    _, b_lo, b_hi, w, n = _coarse_qubit_scan(ch)
    angles = [_bloch_angles(b_lo), _bloch_angles(b_hi),
              (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)]
    xs = np.zeros(2 * n_states)
    for j in range(n_states):
        t, p = angles[j % len(angles)]
        xs[2 * j], xs[2 * j + 1] = t, p
    xm = _povm_params_from_rows(_projective_rows(n, n_out))
    rho = w[0] * _bloch_state(b_lo) + w[1] * _bloch_state(b_hi)
    xr = _density_params_from_state(rho)
    return xs, xm, xr


def _ellipsoid_povm_init(ch: QuantumChannel, n_out: int) -> np.ndarray:
    """Projective init along the dominant output axis of a qubit channel."""
    u, _, _ = np.linalg.svd(_affine_bloch_map(ch)[0])
    return _povm_params_from_rows(_projective_rows(u[:, 0], n_out))


def _measured_input_fast(rho: np.ndarray, duals: np.ndarray) -> float:
    """Measured-input information of input ``rho`` against the pulled-back effects ``duals``."""
    lam, vec = np.linalg.eigh(rho)
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T
    blocks = np.einsum("ab,mbc,cd->mad", root, duals, root)
    ent_blocks = _entropy_stack(blocks)
    tau = np.einsum("maa->m", blocks).real
    s_rho = _entropy_stack(rho[None])[0]
    tau = np.clip(tau, 0.0, None)
    ent_blocks = np.where(tau > 1e-12, ent_blocks, 0.0)
    return float(s_rho - ent_blocks.sum() + _eig_entropy(tau))


# ---------------------------------------------------------------------------
# Deterministic qubit grid oracle
# ---------------------------------------------------------------------------

def _bloch_of_outputs(ch: QuantumChannel, bloch_in: np.ndarray) -> np.ndarray:
    """Map input Bloch vectors through the channel, returning output Bloch vectors."""
    states = 0.5 * (np.eye(2, dtype=complex)[None] + np.einsum("jk,kab->jab", bloch_in, _PAULI_STACK))
    kr = np.stack(ch.kraus)
    outs = np.einsum("kai,jib,kcb->jac", kr, states, kr.conj())
    return np.einsum("jab,kba->jk", outs, _PAULI_STACK).real


def _grid_directions(density: int) -> np.ndarray:
    thetas = np.linspace(0.0, np.pi, density + 1)
    phis = np.linspace(0.0, 2 * np.pi, max(density, 2), endpoint=False)
    pts = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for t in thetas[1:-1]:
        for p in phis:
            pts.append(np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)]))
    return np.stack(pts)


def qubit_grid_oracle(
    ch: QuantumChannel, grid_density: int, ensemble_size: int = 2, povm_arity: int = 2
) -> float:
    """Brute-force lower bound for qubit channels on a deterministic Bloch grid.

    Candidate signals are the grid of pure states; candidate measurements are
    two-outcome projective POVMs along grid directions (arity 2) or trine
    POVMs rotated through the grid planes (arity 3); Blahut-Arimoto supplies
    the input weights.  No randomness is involved.

    For a two-outcome measurement the outcome statistics of every candidate
    lie on a segment, so the optimum uses the two extreme conditional
    probabilities; the search therefore feeds only those to Blahut-Arimoto.
    """
    if ch.dim_in != 2 or ch.dim_out != 2:
        raise DimensionMismatchError("grid oracle handles qubit channels only")
    if ensemble_size not in (2, 3) or povm_arity not in (2, 3):
        raise InvariantViolation("ensemble_size and povm_arity must be 2 or 3")
    if povm_arity > ensemble_size:
        raise InvariantViolation("povm_arity must not exceed ensemble_size")

    grid = _grid_directions(grid_density)
    bloch_out = _bloch_of_outputs(ch, grid)

    best = 0.0
    if povm_arity == 2:
        # keep one of each antipodal direction pair
        dirs = grid[grid[:, 2] > 1e-12]
        dirs = np.vstack([dirs, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        p = 0.5 * (1.0 + bloch_out @ dirs.T)
        p = np.clip(p, 0.0, 1.0)
        for col in range(p.shape[1]):
            lo, hi = float(p[:, col].min()), float(p[:, col].max())
            if hi - lo < 1e-12:
                continue
            c, _ = blahut_arimoto(np.array([[lo, 1.0 - lo], [hi, 1.0 - hi]]), tol=1e-10, max_iters=600)
            best = max(best, c)
    else:
        planes = [(0, 1), (0, 2), (1, 2)]
        offsets = np.linspace(0.0, 2 * np.pi / 3, max(grid_density, 2), endpoint=False)
        for ax1, ax2 in planes:
            for off in offsets:
                dirs = np.zeros((3, 3))
                for i, ang in enumerate(off + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])):
                    dirs[i, ax1], dirs[i, ax2] = np.cos(ang), np.sin(ang)
                kern = (1.0 + bloch_out @ dirs.T) / 3.0
                kern = np.clip(kern, 0.0, None)
                kern = kern / kern.sum(axis=1, keepdims=True)
                c, _ = blahut_arimoto(kern, tol=1e-9, max_iters=800)
                best = max(best, c)
    return best


# ---------------------------------------------------------------------------
# Measured-channel equivalence
# ---------------------------------------------------------------------------

def measured_channel_equivalence(
    ch: QuantumChannel, m: Povm, cfg: OptimizerConfig
) -> tuple[float, float]:
    """Two routes to the ensemble-optimised information at a fixed POVM.

    Left: direct ensemble optimisation of the channel mutual information at
    measurement ``m``.  Right: Holevo capacity of the classical readout
    channel built from (channel, m).  The two agree up to optimizer noise.
    """
    lhs = fixed_measurement_capacity(ch, m, cfg).value
    rhs = holevo_capacity(measured_channel(ch, m), cfg).value
    return lhs, rhs
