"""Capacity estimators: exact input-weight solves inside alternating local search.

At fixed signals and POVM, the input weights maximise a concave function on
the simplex (mutual information, or chi); ``_simplex_newton`` solves it
exactly by active-set Newton steps.  The reported capacity values are
feasible-point lower bounds on the corresponding suprema: every returned
number is the exact objective value at the returned ensemble / POVM / state,
so re-evaluating the objective at the argmax reproduces it.  A deterministic
Bloch-grid brute force provides an independent cross-check for qubit channels.

On a qubit side the block objectives work in Bloch coordinates: a qubit
channel is the affine map n -> T n + t on Bloch vectors, signal states are
Bloch vectors, effects are Pauli forms E = e0 I + e . sigma, and every
objective is a few operations on real 3-vectors.  These evaluate the same
numbers as the matrix route from the same parameters, together with their
closed-form gradients (pulled back to the parameters in reverse mode), so
L-BFGS-B takes those gradients as given.  Blocks without such a gradient
keep the matrix route, where L-BFGS-B takes its gradients by finite
differences, and the final exact re-evaluation always takes the matrix route.  The Shannon and
measured-input searches solve all their parameters in one block per sweep.
L-BFGS-B stops at once when started exactly at a stationary point, such as
equatorial signals under a z-basis readout; the other restarts cover that case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import PAULI, Povm, QuantumChannel, measured_channel
from .errors import DimensionMismatchError, InvariantViolation
from .information import (
    Ensemble,
    channel_mutual_information,
    holevo_information,
    measured_input_information,
    mutual_information,
)
from .linalg import EIG_CLIP, _eig_entropy, _eig_entropy_slope, frozen


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
        if not 0 < self.tol < np.inf:
            raise InvariantViolation(f"tol must be positive and finite, got {self.tol}")
        if self.seed < 0:
            raise InvariantViolation(f"seed must be nonnegative, got {self.seed}")
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


# ---------------------------------------------------------------------------
# Input weights: exact Newton solves on the simplex
# ---------------------------------------------------------------------------

# Damping of each face Hessian, relative to its largest diagonal entry (at
# least 1).  The Hessians are singular (rank <= n_out for mutual information,
# <= d^2 for chi), so a step along a flat direction is long and the ratio
# test ends it.
_NEWTON_DAMPING = 1e-12


def _simplex_newton(fgh, p0: np.ndarray, tol: float, max_iters: int):
    """Maximise a concave f over the probability simplex by active-set Newton steps.

    ``fgh(p)`` returns (f, gradient, Hessian); vertices toward which f has
    +inf slope enter first.  A ratio test sets the weight blocking a step to
    exactly 0; backtracking accepts a step once f rises, or once the model's
    predicted rise is below rounding.  Stops once the KKT gap max_j g_j - p.g
    falls below ``tol`` or after ``max_iters`` steps.  Returns (f, p, f after
    each step with the start first, gap) at the last point.
    """
    p = np.array(p0, dtype=float)
    value, g, h = fgh(p)
    history, max_iters = [value], max(int(max_iters), 0)
    for step in range(max_iters + 1):
        gap = max(float(g.max() - p @ g), 0.0) if np.all(np.isfinite(g)) else np.inf
        if not gap >= tol or step == max_iters:
            break
        if np.isinf(gap):
            enter = ~np.isfinite(g)
            d, t, slope, curv = enter / enter.sum() - p, 0.5, 0.0, 0.0
        else:  # Newton on the support's face, joined by the row j of largest gradient
            j = int(np.argmax(g))
            idx = np.flatnonzero((p > 0.0) | (np.arange(len(p)) == j))
            k = len(idx)
            bordered = np.ones((k + 1, k + 1))
            bordered[:k, :k], bordered[k, k] = -h[np.ix_(idx, idx)], 0.0
            bordered[:k, :k] += _NEWTON_DAMPING * max(float(bordered.diagonal().max()), 1.0) * np.eye(k)
            d = np.zeros_like(p)
            d[idx] = np.linalg.solve(bordered, np.append(g[idx] - p @ g, 0.0))[:k]
            slope = float(g @ d)
            if not (slope > 0.0 and (p[j] > 0.0 or d[j] > 0.0)):  # j would leave again: move weight to j
                d, slope = -p, gap
                d[j] += 1.0
            curv = float(d @ h @ d)
            t = slope / max(-curv, slope)  # the model's maximiser, capped at 1
        shrink = d < 0.0
        ratios = np.where(shrink, p / np.where(shrink, -d, 1.0), np.inf)
        block = int(np.argmin(ratios))
        t = min(t, ratios[block])
        rounding = 1e-14 * max(1.0, abs(value))
        for _ in range(60):
            cand = p + t * d
            if t >= ratios[block]:
                cand[block] = 0.0
            cand = np.maximum(cand, 0.0)
            cand /= cand.sum()
            new = fgh(cand)
            pred = t * slope + 0.5 * t * t * curv
            if new[0] - value >= 1e-4 * pred or (pred <= rounding and new[0] >= value - rounding):
                break
            t *= 0.5
        else:
            break
        p, (value, g, h) = cand, new
        history.append(value)
    return value, p, history, gap


def blahut_arimoto(
    kernel: np.ndarray,
    tol: float = 1e-9,
    max_iters: int = 2000,
    full_output: bool = False,
    init_weights: np.ndarray | None = None,
):
    """Capacity (bits) of the discrete channel p(b|j) over input distributions.

    A name kept for the API: the solver is ``_simplex_newton`` with gradient
    D_j = D(p(.|j) || q) and Hessian -K diag(1/q) K^T / ln 2, stopped once
    the gap max_j D_j - sum_j r_j D_j falls below ``tol``.  ``init_weights``
    start it as given; a cold start is uniform on the n_out + 1 rows of
    largest D_j at uniform weights (all rows when there are no more), plus
    rows until every output some row reaches is reached.

    Returns ``(capacity, weights)``, or ``(capacity, weights, info)`` with the
    per-iteration lower-bound history and the final gap upper - lower (the
    capacity lies in [capacity, capacity + gap]) when ``full_output`` is set.
    The capacity is the mutual information at the returned weights.
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

    n_in, n_out = k.shape
    mask = k > 0.0
    logk = np.where(mask, np.log2(np.where(mask, k, 1.0)), 0.0)

    def fgh(r):
        q = r @ k
        reached = q > 0.0
        terms = np.where(mask, k * (logk - np.log2(np.where(reached, q, 1.0))), 0.0)
        div = np.where((mask & ~reached).any(axis=1), np.inf, terms.sum(axis=1))
        scaled = k[:, reached] / np.sqrt(q[reached])
        return float(r[r > 0.0] @ div[r > 0.0]), div, -(scaled @ scaled.T) / np.log(2.0)

    if init_weights is not None and len(init_weights) == n_in and np.min(init_weights) >= 0 and np.sum(init_weights) > 0:
        r = np.asarray(init_weights, dtype=float) / np.sum(init_weights)
    else:
        div = fgh(np.full(n_in, 1.0 / n_in))[1]
        rows = np.isin(np.arange(n_in), np.argsort(-div, kind="stable")[: n_out + 1])
        while (missed := mask.any(axis=0) & ~mask[rows].any(axis=0)).any():
            rows[np.argmax(np.where(mask[:, np.argmax(missed)], div, -np.inf))] = True
        r = rows / rows.sum()

    value, r, history, gap = _simplex_newton(fgh, r, tol, max_iters)
    if full_output:
        return value, r, {"lower_bounds": history, "iterations": len(history), "gap": gap}
    return value, r


def _binary_capacity(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Capacities (bits) and optimal weights of the kernels [[lo, 1-lo], [hi, 1-hi]], lo <= hi.

    Closed form for an invertible square kernel W with row entropies h:
    c = -W^-1 h, output q = 2^(c - C) with C = log2 sum 2^c, and weights
    p = q W^-1, here p_hi = (q_0 - lo) / (hi - lo), clipped to [0, 1].  The
    value returned is the mutual information at those weights, so it stays
    a feasible-point lower bound where hi - lo is tiny and the formula
    loses digits.  Weights have shape (..., 2), ordered (lo, hi).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    kern = np.stack([np.stack([lo, 1.0 - lo], axis=-1), np.stack([hi, 1.0 - hi], axis=-1)], axis=-2)
    logk = np.log2(np.where(kern > 0.0, kern, 1.0))  # zero entries contribute 0 * finite = 0
    h = -(kern * logk).sum(axis=-1)
    d = hi - lo
    safe_d = np.where(d > 0.0, d, 1.0)
    with np.errstate(over="ignore"):
        q0 = 1.0 / (1.0 + np.exp2((h[..., 1] - h[..., 0]) / safe_d))  # 2^(c_0 - C): c_1 - c_0 = (h_hi - h_lo) / d
    p_hi = np.where(d > 0.0, np.clip((q0 - lo) / safe_d, 0.0, 1.0), 0.5)
    weights = np.stack([1.0 - p_hi, p_hi], axis=-1)
    q = np.einsum("...j,...jb->...b", weights, kern)
    logq = np.log2(np.where(q > 0.0, q, 1.0))
    return np.einsum("...j,...jb->...", weights, kern * (logk - logq[..., None, :])), weights


# ---------------------------------------------------------------------------
# Parametrisations (feasible by construction)
# ---------------------------------------------------------------------------

def pure_states_from_params(x: np.ndarray, dim: int, n: int) -> np.ndarray:
    """Stack of n pure density matrices from unconstrained real parameters.

    Qubits use Bloch angles (theta, phi) per state; higher dimensions use 2*dim
    reals per state interpreted as a complex vector and normalised (a vector
    of norm below 1e-12 gives e_0).
    """
    x = np.asarray(x, dtype=float)
    if dim == 2:
        theta, phi = x[0:2 * n:2], x[1:2 * n:2]
        v = np.stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1)
    else:
        chunks = x[: 2 * dim * n].reshape(n, 2, dim)
        v = chunks[:, 0] + 1j * chunks[:, 1]
        norms = np.array([np.linalg.norm(u) for u in v])  # norm(v, axis=1) sums in another order
        small = norms < 1e-12
        v[small], norms[small] = np.eye(dim)[0], 1.0
        v = v / norms[:, None]
    return v[:, :, None] * v.conj()[:, None, :]


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


def _mi_and_grad(weights: np.ndarray, kernel: np.ndarray) -> tuple[float, np.ndarray]:
    """Mutual information of the joint weights x kernel at fixed weights, and its kernel gradient.

    dI/dK_jb = w_j log2(K_jb / q_b), taken as 0 where K_jb = 0 (clipped).
    """
    q = weights @ kernel
    safe_k = np.where(kernel > 0.0, kernel, 1.0)  # zero entries contribute 0 * finite = 0
    safe_q = np.where(q > 0.0, q, 1.0)
    log_ratio = np.log2(safe_k) - np.log2(safe_q)
    value = float(weights @ (kernel * log_ratio).sum(axis=1))
    return value, np.where(kernel > 0.0, weights[:, None] * log_ratio, 0.0)


def _mi_fixed_weights(weights: np.ndarray, kernel: np.ndarray) -> float:
    """Mutual information of the joint weights x kernel, weights held fixed."""
    return _mi_and_grad(weights, kernel)[0]


# ---------------------------------------------------------------------------
# Qubit objectives in Bloch coordinates
# ---------------------------------------------------------------------------
#
# A qubit state is rho = (I + n . sigma) / 2 and an effect E = e0 I + e . sigma,
# so Tr(rho E) = e0 + n . e.  ``_pauli_form``, ``_bloch_state``, ``_bloch_angles``
# and ``_bloch_of_angles`` are the package's only conversions between Bloch
# angles, Bloch vectors, Pauli forms and 2x2 matrices, apart from the POVM
# constructors in ``channels``.  Each parametrisation helper returns, from the
# same parameters, the Bloch or Pauli form of the matrix its ``*_from_params``
# counterpart builds, with its pull-back: a callable taking a gradient in that
# form to the gradient in the parameters (a vector-Jacobian product).  Where a
# helper takes the matrix route (degenerate parameters) its pull-back returns zeros.

_PAULI_STACK = np.stack(PAULI)


def _pauli_form(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e0, e) with M = e0 I + e . sigma, for a stack of 2x2 Hermitian matrices."""
    e = 0.5 * np.einsum("...ab,kba->...k", mats, _PAULI_STACK).real
    return 0.5 * np.einsum("...aa->...", mats).real, e


def _bloch_state(n: np.ndarray) -> np.ndarray:
    """Density matrices (I + n . sigma) / 2 of Bloch vectors n (the last axis)."""
    return 0.5 * (np.eye(2, dtype=complex) + np.einsum("...k,kab->...ab", n, _PAULI_STACK))


def _bloch_angles(n: np.ndarray) -> tuple[float, float]:
    return float(np.arccos(np.clip(n[2], -1.0, 1.0))), float(np.arctan2(n[1], n[0]))


def _affine_bloch_map(ch: QuantumChannel) -> tuple[np.ndarray, np.ndarray]:
    """(T, t) such that the qubit channel maps input Bloch vector n to T n + t."""
    shift = _bloch_of_outputs(ch, np.zeros((1, 3)))
    return (_bloch_of_outputs(ch, np.eye(3)) - shift).T, shift[0]


def _bloch_of_angles(x: np.ndarray):
    """Bloch vectors (rows) of ``pure_states_from_params(x, 2, n)``, and their pull-back."""
    theta, phi = x[0::2], x[1::2]
    s, c, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    out = np.column_stack([s * cp, s * sp, c])

    def pull_back(g):  # d/dtheta and d/dphi of each state, interleaved
        d_theta = c * (cp * g[:, 0] + sp * g[:, 1]) - s * g[:, 2]
        return np.column_stack([d_theta, s * (cp * g[:, 1] - sp * g[:, 0])]).ravel()

    return out, pull_back


def _bloch_kernel(bloch: np.ndarray, effects: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``_kernel`` of the states with these Bloch vectors and the effects in Pauli form."""
    e0, e = effects
    return np.maximum(e0 + bloch @ e.T, 0.0)


def _povm_pauli_from_params(x: np.ndarray, n_out: int):
    """Pauli form (e0, e) of ``povm_elements_from_params(x, 2, n_out)``, and its pull-back.

    The gauge-fixed QR of the two-column matrix g is Gram-Schmidt on its
    columns a and b, and the pull-back of a gradient with rows (e0, e) runs
    it in reverse, with complex cotangents z_bar = dL/dRe z + i dL/dIm z.
    Where a column vanishes or the columns are (nearly) parallel, the basis
    is QR's own, so the elements come from the matrix route; so they do for
    column norms far from 1, where the squares below would leave the
    floating-point range.
    """
    m = 2 * n_out
    g = np.empty(m, dtype=complex)
    g.real, g.imag = x[:m], x[m:]
    a, b = g[0::2], g[1::2]  # the columns of g
    aa, bb = np.vdot(a, a).real, np.vdot(b, b).real
    if 1e-150 < aa < 1e150 and bb < 1e150:
        ab = np.vdot(a, b)
        u = b - (ab / aa) * a
        uu = np.vdot(u, u).real
        if uu > max(1e-12 * bb, 1e-150):
            ac = a.conj()
            p0, p1 = (ac * a).real / aa, (u.conj() * u).real / uu
            root = np.sqrt(aa * uu)
            off = ac * u / root  # element (0, 1) of each E_b
            w = np.column_stack([off.real, -off.imag, 0.5 * (p0 - p1)])

            def pull_back(grad):
                p0_bar, p1_bar = 0.5 * (grad[:, 0] + grad[:, 3]), 0.5 * (grad[:, 0] - grad[:, 3])
                off_bar = grad[:, 1] - 1j * grad[:, 2]
                # back through off = conj(a) u / sqrt(aa uu), p0 = |a|^2 / aa, p1 = |u|^2 / uu,
                # uu = <u, u>, u = b - (ab / aa) a, ab = <a, b> and aa = <a, a>
                shrink = -0.5 * np.vdot(off_bar, off).real
                u_bar = a * off_bar / root + (2.0 / uu) * (p1_bar + shrink - p1_bar @ p1) * u
                ab_bar = -np.vdot(a, u_bar) / aa
                aa_bar = (shrink - p0_bar @ p0 - (np.conj(ab_bar) * ab).real) / aa
                g_bar = np.empty(m, dtype=complex)
                g_bar[0::2] = u * off_bar.conj() / root - np.conj(ab / aa) * u_bar + np.conj(ab_bar) * b
                g_bar[0::2] += 2.0 * (p0_bar / aa + aa_bar) * a
                g_bar[1::2] = u_bar + ab_bar * a
                return np.concatenate([g_bar.real, g_bar.imag])

            return (0.5 * (p0 + p1), w), pull_back
    return _pauli_form(povm_elements_from_params(x, 2, n_out)), lambda grad: np.zeros(len(x))


def _density_bloch_from_params(x: np.ndarray):
    """Eigenvalues and Bloch vector of ``density_from_params(x, 2)``, and their pull-back.

    rho = lam_1 I + (lam_0 - lam_1) q q^dag with q the first column of the
    gauge-fixed QR of g, i.e. g's first column normalised.  The pull-back
    takes a gradient in (lam_0, lam_1, n).  A vanishing g or first column
    leaves q to QR, so rho then comes from the matrix route.
    """
    logits = x[:2]
    z = np.exp(logits - logits.max())
    lam = z / z.sum()
    if np.sqrt(x[2:] @ x[2:]) < 1e-9:  # density_from_params takes g = I
        return (lam, np.array([0.0, 0.0, lam[0] - lam[1]])), lambda grad: np.zeros(10)
    pqrs = x[[2, 6, 4, 8]]  # g[:, 0] = (p + iq, r + is)
    p, q, r, s = pqrs
    norm2 = p * p + q * q + r * r + s * s
    if 1e-300 < norm2 < 1e300:
        v = np.array([2.0 * (p * r + q * s), 2.0 * (p * s - q * r), p * p + q * q - r * r - s * s])
        scale = (lam[0] - lam[1]) / norm2

        def pull_back(grad):
            along = 2.0 * (grad[2:] @ v) / norm2
            dv = 2.0 * np.array([[r, s, p], [s, -r, q], [p, -q, -r], [q, p, -s]])  # dv / d(p, q, r, s)
            out = np.zeros(10)
            # d lam_0 / d logits = -d lam_1 / d logits = lam_0 lam_1 (1, -1)
            out[:2] = lam[0] * lam[1] * (grad[0] - grad[1] + along) * np.array([1.0, -1.0])
            out[[2, 6, 4, 8]] = scale * (dv @ grad[2:] - along * pqrs)
            return out

        return (lam, scale * v), pull_back
    return (lam, 2.0 * _pauli_form(density_from_params(x, 2))[1]), lambda grad: np.zeros(10)


def _measured_input_bloch(rho: tuple[np.ndarray, np.ndarray], effects: tuple[np.ndarray, np.ndarray]):
    """Measured-input information of a qubit input against pulled-back effects, and its gradients.

    ``rho`` is (eigenvalues, Bloch vector) and ``effects`` the Pauli form of
    dual(E_b).  The block sqrt(rho) dual(E_b) sqrt(rho) has trace
    tau_b = Tr(rho dual(E_b)) and determinant det(rho) det(dual(E_b)), which
    fix its two eigenvalues mu = tau/2 +- s.  Returns the value, its gradient
    in (lam_0, lam_1, n) and its gradient in each effect's (e0, e) (rows).
    With l = log2 mu + 1/ln 2, dS_b/dtau = -(l+ + l-)/2 - (tau/4s)(l+ - l-)
    and dS_b/ddet = (l+ - l-)/2s, whose limit at s = 0 is 2/(ln 2 tau).
    """
    lam, n = rho
    e0, e = effects
    tau_raw = e0 + e @ n
    tau = np.maximum(tau_raw, 0.0)
    det_e = e0 * e0 - (e * e).sum(axis=1)
    kept_det_e = np.maximum(det_e, 0.0)
    det = lam[0] * lam[1] * kept_det_e
    half = 0.5 * tau
    s = np.sqrt(np.maximum(half * half - det, 0.0))
    block_eigs = np.concatenate([half + s, np.maximum(half - s, 0.0)])
    value = float(_eig_entropy(lam) - _eig_entropy(block_eigs) + _eig_entropy(tau))

    slope_hi, slope_lo = _eig_entropy_slope(block_eigs).reshape(2, -1)
    split = s > 1e-6 * half
    occupied = half > EIG_CLIP
    ratio = np.where(  # dS_b / ddet
        split,
        (slope_hi - slope_lo) / (2.0 * np.where(split, s, 1.0)),
        np.where(occupied, 1.0 / (np.log(2.0) * np.where(occupied, half, 1.0)), 0.0),
    )
    g_tau = np.where(tau_raw > 0.0, 0.5 * (slope_hi + slope_lo) + half * ratio - _eig_entropy_slope(tau), 0.0)
    g_det_e = np.where(det_e > 0.0, -ratio * lam[0] * lam[1], 0.0)
    d_lam = -ratio @ kept_det_e
    g_rho = np.concatenate([-_eig_entropy_slope(lam) + d_lam * lam[::-1], g_tau @ e])
    g_effects = np.column_stack([g_tau + 2.0 * e0 * g_det_e, g_tau[:, None] * n - 2.0 * g_det_e[:, None] * e])
    return value, g_rho, g_effects


def _qubit_chi(weights: np.ndarray, bloch_out: np.ndarray):
    """Holevo quantity of qubit outputs (Bloch vectors, rows) at fixed weights, and its gradient in them.

    With h(r) the entropy of (1 +- r)/2 and rbar = sum_j w_j r_j,
    dchi/dr_j = w_j [h'(|rbar|) rbar/|rbar| - h'(|r_j|) r_j/|r_j|], where
    h'(r)/r -> -1/ln 2 as r -> 0.
    """
    vecs = np.vstack([weights @ bloch_out, bloch_out])
    radii = np.sqrt((vecs * vecs).sum(axis=1))
    lam = np.stack([0.5 * (1.0 + radii), 0.5 * (1.0 - radii)], axis=1)
    ent = _eig_entropy(lam)
    slope = _eig_entropy_slope(lam)
    small = radii < 1e-8
    per_radius = np.where(small, -1.0 / np.log(2.0), 0.5 * (slope[:, 1] - slope[:, 0]) / np.where(small, 1.0, radii))
    radial = per_radius[:, None] * vecs
    return float(ent[0] - weights @ ent[1:]), weights[:, None] * (radial[0] - radial[1:])


def _qubit_chi_objective(ch: QuantumChannel):
    """(weights, signal parameters) -> (chi, its gradient in the parameters) on a qubit channel."""
    t_mat, shift = _affine_bloch_map(ch)

    def chi(weights, xs):
        bloch, pull_back = _bloch_of_angles(xs)
        value, g_out = _qubit_chi(weights, bloch @ t_mat.T + shift)
        return value, pull_back(g_out @ t_mat)

    return chi


def _mi_bloch(weights: np.ndarray, bloch: np.ndarray, effects: tuple[np.ndarray, np.ndarray]):
    """MI at fixed weights of qubit signals against effects in Pauli form, and its gradients.

    Returns the value, the gradient in the signals' Bloch vectors (rows) and
    the gradient in each effect's (e0, e) (rows).
    """
    value, g = _mi_and_grad(weights, _bloch_kernel(bloch, effects))
    return value, g @ effects[1], np.column_stack([g.sum(axis=0), g.T @ bloch])


def _mi_signal_objective(weights: np.ndarray, effects, din: int, n_states: int):
    """Signal-block objective of the MI searches, and whether it returns a gradient.

    On a qubit input the effects are in Pauli form and the objective returns
    (value, gradient); otherwise the effects are matrices and it returns the value.
    """
    if din == 2:
        def objective(xs):
            bloch, pull_back = _bloch_of_angles(xs)
            value, g_bloch, _ = _mi_bloch(weights, bloch, effects)
            return value, pull_back(g_bloch)

        return objective, True
    return (lambda xs: _mi_fixed_weights(weights, _kernel(pure_states_from_params(xs, din, n_states), effects))), False


def _pulled_back_effects(ch: QuantumChannel, n_out: int):
    """POVM parameters -> (the POVM pulled back to the channel input, its pull-back).

    The effects are in Pauli form on a 2->2 channel, and matrices otherwise.
    A qubit channel pulls back the Pauli form w0 I + w . sigma as
    (w0 + w . t) I + (T^T w) . sigma, so its pull-back maps a gradient
    (e0_bar, e_bar) to (e0_bar, e0_bar t + e_bar T^T) in (w0, w), then
    through ``_povm_pauli_from_params``; other channels give none (None).
    """
    if (ch.dim_in, ch.dim_out) == (2, 2):
        t_mat, shift = _affine_bloch_map(ch)

        def pulled(xm):
            (w0, w), pull_back = _povm_pauli_from_params(xm, n_out)

            def pull_back_pulled(grad):
                return pull_back(np.column_stack([grad[:, 0], grad[:, :1] * shift + grad[:, 1:] @ t_mat.T]))

            return (w0 + w @ shift, w @ t_mat), pull_back_pulled
    else:
        def pulled(xm):
            return _dual_effect_stack(ch, povm_elements_from_params(xm, ch.dim_out, n_out)), None
    return pulled


def _joint_objective(first, second, information, split: int):
    """(value, gradient) of ``information`` at the parameters of ``first`` (up to ``split``) then ``second``.

    ``first`` and ``second`` return (form, pull-back); ``information`` returns (value, gradient in each form).
    """
    def objective(v):
        (a, a_back), (b, b_back) = first(v[:split]), second(v[split:])
        value, g_a, g_b = information(a, b)
        return value, np.concatenate([a_back(g_a), b_back(g_b)])

    return objective


# Settings of every L-BFGS-B block solve; the block's evaluation budget caps
# each solve, finite-difference evaluations included.
_LBFGSB_OPTIONS = {"ftol": 1e-12, "gtol": 1e-9}


def minimize(fun, x0, **options):
    """``scipy.optimize.minimize``, imported on first use: scipy.optimize
    takes about 50 MB of resident memory, which a process that only
    evaluates information functionals never needs."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


def _maximize(fun, x0: np.ndarray, maxfev: int, jac: bool = False) -> np.ndarray:
    """Local maximiser of ``fun`` from ``x0`` by L-BFGS-B, within ``maxfev`` evaluations.

    With ``jac``, ``fun`` returns (value, gradient); otherwise it returns the
    value and the gradient is taken by finite differences.  A non-finite
    result returns ``x0``.
    """
    x0 = np.asarray(x0, dtype=float)
    if jac:
        def negated(v):
            value, grad = fun(v)
            return -value, -grad
    else:
        def negated(v):
            return -fun(v)

    res = minimize(negated, x0, jac=jac, method="L-BFGS-B", options={**_LBFGSB_OPTIONS, "maxfun": int(maxfev)})
    return res.x if np.all(np.isfinite(res.x)) else x0


def _block_ascent(blocks, sweep_value, block_objectives, cfg: OptimizerConfig, maxfev_per_param: int = 60):
    """Alternating ascent over parameter blocks.

    ``block_objectives[i](*blocks)`` returns (objective, jac): an objective
    of block i alone, built with the other blocks held, and whether it
    returns (value, gradient) (see ``_maximize``).  A sweep maximises each
    block's objective in turn, then takes ``sweep_value(*blocks)``; the
    search stops once a sweep gains less than ``cfg.tol``.  With one block
    of all parameters a sweep is one joint solve.
    Returns the blocks, the best sweep value and whether that test (rather
    than ``cfg.max_iters``) ended the search.
    """
    blocks = list(blocks)
    current = sweep_value(*blocks)
    for _ in range(cfg.max_iters):
        for i, make_objective in enumerate(block_objectives):
            objective, jac = make_objective(*blocks)
            blocks[i] = _maximize(objective, blocks[i], maxfev_per_param * len(blocks[i]), jac)
        value = sweep_value(*blocks)
        improved = value - current
        current = max(value, current)
        if improved < cfg.tol:
            return blocks, current, True
    return blocks, current, False


def _best_restart(run, cfg: OptimizerConfig, ceiling: float = np.inf):
    """Best ``(value, point) = run(restart, rng)`` over ``cfg.restarts`` seeded restarts.

    No further restart runs once the best value is within 1e-11 of ``ceiling``.
    Returns the best value, its point and the number of restarts run.
    """
    best = None
    for restart in range(cfg.restarts):
        if best is not None and best[0] >= ceiling - 1e-11:
            return best + (restart,)
        value, point = run(restart, np.random.default_rng([cfg.seed, restart]))
        if best is None or value > best[0]:
            best = (value, point)
    return best + (cfg.restarts,)


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


def _n_canonical_inits(dim: int) -> int:
    return len(_CANONICAL_ANGLES) if dim == 2 else 1


def _state_inits(dim: int, n: int, restart: int) -> np.ndarray:
    """Canonical signal parameters of a restart below ``_n_canonical_inits(dim)``."""
    if dim == 2:  # the restart's canonical directions, repeated cyclically
        return np.resize(list(_CANONICAL_ANGLES.values())[restart], (n, 2)).ravel()
    x = np.zeros(n_state_params(dim, n))
    per = 2 * dim
    for j in range(n):
        x[per * j + (j % dim)] = 1.0
    return x


def _signal_inits(dim: int, n: int, restart: int, rng: np.random.Generator, value) -> np.ndarray:
    """Canonical signals for the first restarts, then the best random draw under ``value``."""
    if restart < _n_canonical_inits(dim):
        return _state_inits(dim, n, restart)
    return _best_of_draws(value, lambda r: r.normal(scale=1.5, size=n_state_params(dim, n)), rng)


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

# Least weight a signal carries into the block objectives: an exact weight
# solve drops signals to weight 0, where the blocks give them no slope to
# come back.  Sweep values and warm starts keep the exact weights.
_BLOCK_WEIGHT_FLOOR = 1e-6


def _block_weights(weights: np.ndarray) -> np.ndarray:
    floored = np.maximum(weights, _BLOCK_WEIGHT_FLOOR)
    return floored / floored.sum()


def shannon_capacity(ch: QuantumChannel, cfg: OptimizerConfig) -> CapacityResult:
    """Best feasible mutual information over ensembles and product POVMs.

    Alternates exactly solved weights on the induced classical kernel with
    one joint local search over the signal states and the rank-1 isometry
    parametrisation of the POVM, keeping the best of ``cfg.restarts``
    deterministic seeds.  The value is a lower bound on the true supremum.
    """
    din, dout = ch.dim_in, ch.dim_out
    n_states = max(cfg.ensemble_size_cap, 2)
    n_out = max(cfg.povm_size_cap, dout)

    ns = n_state_params(din, n_states)
    pulled = _pulled_back_effects(ch, n_out)
    qubit = (din, dout) == (2, 2)

    def run(restart, rng):
        warm = {"w": None}

        def ba_value(cat_):  # of the signal then POVM parameters
            effects = _dual_effect_stack(ch, povm_elements_from_params(cat_[ns:], dout, n_out))
            kern = _kernel(pure_states_from_params(cat_[:ns], din, n_states), effects)
            c, w = blahut_arimoto(kern, tol=1e-9, max_iters=250, init_weights=warm["w"])
            warm["w"] = w
            return c

        if restart == 0 and qubit:
            # start from the coarse grid scan's best two-point configuration
            cat = np.concatenate(_witness_inits(ch, n_states, n_out)[:2])
        elif restart < _n_canonical_inits(din):
            cat = np.concatenate([_state_inits(din, n_states, restart), _povm_inits(dout, n_out, rng, restart)])
        else:
            cat = _best_of_draws(
                ba_value,
                lambda r: np.concatenate(
                    [r.normal(scale=1.5, size=ns), r.normal(size=n_povm_params(dout, n_out))]
                ),
                rng,
            )

        # weights from the sweep-start kernel stay fixed inside the block
        def joint_block(_):
            w = _block_weights(warm["w"])
            if qubit:
                return _joint_objective(_bloch_of_angles, pulled, lambda b, e: _mi_bloch(w, b, e), ns), True

            def objective(v):
                return _mi_fixed_weights(w, _kernel(pure_states_from_params(v[:ns], din, n_states), pulled(v[ns:])[0]))

            return objective, False

        (cat,), _, converged = _block_ascent([cat], ba_value, [joint_block], cfg)

        states = pure_states_from_params(cat[:ns], din, n_states)
        elements = povm_elements_from_params(cat[ns:], dout, n_out)
        _, weights = blahut_arimoto(_kernel(states, _dual_effect_stack(ch, elements)), tol=1e-10, max_iters=3000)
        ensemble = Ensemble(weights, tuple(states))
        povm = Povm(tuple(elements))
        value = channel_mutual_information(ch, ensemble, povm)
        return value, CapacityResult(value, ensemble, povm, converged=converged)

    _, best, runs = _best_restart(run, cfg, ceiling=np.log2(min(din, dout)))
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

    input_effects = _pauli_form(effects) if din == 2 else effects

    def run(restart, rng):
        warm = {"w": None}

        def ba_value(xs_):
            kern = _kernel(pure_states_from_params(xs_, din, n_states), effects)
            c, w = blahut_arimoto(kern, tol=1e-9, max_iters=250, init_weights=warm["w"])
            warm["w"] = w
            return c

        xs = _signal_inits(din, n_states, restart, rng, ba_value)

        def signal_block(_):
            return _mi_signal_objective(_block_weights(warm["w"]), input_effects, din, n_states)

        (xs,), _, converged = _block_ascent([xs], ba_value, [signal_block], cfg)

        states = pure_states_from_params(xs, din, n_states)
        _, weights = blahut_arimoto(_kernel(states, effects), tol=1e-10, max_iters=3000)
        ensemble = Ensemble(weights, tuple(states))
        if ch is not None:
            value = channel_mutual_information(ch, ensemble, m)
        else:
            value = mutual_information(ensemble, m)
        return value, CapacityResult(value, ensemble, m, converged=converged)

    _, best, runs = _best_restart(run, cfg, ceiling=min(np.log2(din), np.log2(len(m.elements))))
    return replace(best, restarts_used=runs)


# ---------------------------------------------------------------------------
# Holevo capacity
# ---------------------------------------------------------------------------

def _entropy_stack(mats: np.ndarray) -> np.ndarray:
    return _eig_entropy(np.clip(np.linalg.eigvalsh(mats), 0.0, None))


def max_holevo_weights(
    outputs: np.ndarray,
    tol: float = 1e-9,
    max_iters: int = 600,
    init_weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Maximise chi over the weight simplex for fixed channel outputs, at any dimension.

    Solved by ``_simplex_newton``: the gradient g_j = -S(rho_j) - Tr rho_j
    log2 rhobar is each output's relative entropy to the average (+inf when
    more than 1e-9 of its trace lies off the average's support), and one
    ``eigh`` of the average gives the Hessian through the divided differences
    of log, over that support.  Stops once max_j g_j - chi falls below
    ``tol``; the cold start is uniform.
    """
    outs = np.asarray(outputs, dtype=complex)
    s_each, traces = _entropy_stack(outs), np.einsum("jaa->j", outs).real

    def fgh(p):
        lam, vec = np.linalg.eigh(np.einsum("j,jab->ab", p, outs))
        kept = lam > EIG_CLIP
        lam, vec = lam[kept], vec[:, kept]
        log_lam = np.log2(lam)
        rotated = np.einsum("ai,jab,bk->jik", vec.conj(), outs, vec)  # outputs in the average's eigenbasis
        inside = np.einsum("jii->ji", rotated).real
        grad = np.where(traces - inside.sum(axis=1) > 1e-9, np.inf, -s_each - inside @ log_lam)
        ratio = lam[:, None] / lam[None, :] - 1.0
        same = ratio == 0.0
        dlog = np.where(same, 1.0, np.log1p(ratio) / np.where(same, 1.0, ratio)) / lam[None, :]
        hess = -np.einsum("jab,kba,ab->jk", rotated, rotated, dlog).real / np.log(2.0)
        return float(-(lam * log_lam).sum() - p @ s_each), grad, hess

    if init_weights is not None and len(init_weights) == len(outs) and np.min(init_weights) >= 0 and np.sum(init_weights) > 0:
        pi = np.asarray(init_weights, dtype=float) / np.sum(init_weights)
    else:
        pi = np.full(len(outs), 1.0 / len(outs))
    chi, pi, _, _ = _simplex_newton(fgh, pi, tol, max_iters)
    return chi, pi


def holevo_capacity(ch: QuantumChannel, cfg: OptimizerConfig) -> CapacityResult:
    """Best feasible Holevo quantity over ensembles of pure signal states."""
    din = ch.dim_in
    n_states = max(cfg.ensemble_size_cap, 2)
    kr = np.stack(ch.kraus)

    def outputs_of(xs_):
        states = pure_states_from_params(xs_, din, n_states)
        return np.einsum("kai,jib,kcb->jac", kr, states, kr.conj())

    qubit = (din, ch.dim_out) == (2, 2)
    if qubit:
        chi_fixed = _qubit_chi_objective(ch)  # returns (chi, gradient)
    else:
        def chi_fixed(w, xs_):
            outs = outputs_of(xs_)
            avg = np.einsum("j,jab->ab", w, outs)
            return float(_entropy_stack(avg[None])[0] - w @ _entropy_stack(outs))

    def run(restart, rng):
        warm = {"w": None}

        def chi_value(xs_):
            c, w = max_holevo_weights(outputs_of(xs_), tol=1e-9, max_iters=250, init_weights=warm["w"])
            warm["w"] = w
            return c

        xs = _signal_inits(din, n_states, restart, rng, chi_value)

        def signal_block(_):
            w = _block_weights(warm["w"])
            return (lambda v: chi_fixed(w, v)), qubit

        (xs,), _, converged = _block_ascent([xs], chi_value, [signal_block], cfg)

        states = pure_states_from_params(xs, din, n_states)
        _, weights = max_holevo_weights(outputs_of(xs), tol=1e-11, max_iters=3000)
        ensemble = Ensemble(weights, tuple(states))
        value = holevo_information(ch, ensemble)
        return value, CapacityResult(value, ensemble, converged=converged)

    _, best, runs = _best_restart(run, cfg, ceiling=np.log2(min(din, ch.dim_out)))
    return replace(best, restarts_used=runs)


# ---------------------------------------------------------------------------
# Measured-input bound
# ---------------------------------------------------------------------------

def measured_input_bound(ch: QuantumChannel, cfg: OptimizerConfig) -> CapacityResult:
    """Best feasible value of the measured-input information over (rho, POVM).

    The average input is parametrised full rank (eigenvalue simplex times a
    unitary) and the POVM by the rank-1 isometry construction.  The result is
    a feasible value of the bound's objective, so at most its supremum; the
    supremum upper-bounds the Shannon capacity, but this value certifies no
    upper bound.
    """
    din, dout = ch.dim_in, ch.dim_out
    n_out = max(cfg.povm_size_cap, dout)

    nr = n_density_params(din)
    qubit = (din, dout) == (2, 2)

    # the objective of the input then POVM parameters; on a 2->2 channel the
    # parametrisations come with their pull-backs and the information with its
    # gradients in both arguments
    effects_of = _pulled_back_effects(ch, n_out)
    if qubit:
        joint = _joint_objective(_density_bloch_from_params, effects_of, _measured_input_bloch, nr), True

        def value_of(cat):
            return _measured_input_bloch(_density_bloch_from_params(cat[:nr])[0], effects_of(cat[nr:])[0])[0]
    else:
        def value_of(cat):
            return _measured_input_fast(density_from_params(cat[:nr], din), effects_of(cat[nr:])[0])

        joint = value_of, False

    def run(restart, rng):
        if restart == 0 and qubit:
            # the coarse grid scan's witness: the weighted two-point average
            # input with its best projective readout
            _, xm, xr = _witness_inits(ch, 2, n_out)
            cat = np.concatenate([xr, xm])
        elif restart == 0 or (restart == 1 and qubit):
            # maximally mixed input; readout along the channel ellipsoid's
            # dominant output axis when available, the basis otherwise.  On a
            # qubit input g = I, since g = 0 is a fallback point without slope.
            xr = np.concatenate([np.zeros(2), np.eye(2).ravel(), np.zeros(4)]) if din == 2 else np.zeros(nr)
            cat = np.concatenate([xr, _ellipsoid_povm_init(ch, n_out) if qubit else _povm_inits(dout, n_out, rng, 0)])
        else:
            cat = _best_of_draws(
                value_of,
                lambda r: np.concatenate(
                    [r.normal(scale=0.8, size=nr), r.normal(size=n_povm_params(dout, n_out))]
                ),
                rng,
                n_draws=32,
            )

        (cat,), value, converged = _block_ascent([cat], value_of, [lambda _: joint], cfg)
        return value, (cat, converged)

    _, (best_x, best_conv), runs = _best_restart(run, cfg, ceiling=np.log2(min(din, dout)))
    rho = density_from_params(best_x[:nr], din)
    povm = Povm(tuple(povm_elements_from_params(best_x[nr:], dout, n_out)))
    return CapacityResult(measured_input_information(ch, rho, povm), None, povm, frozen(rho), runs, best_conv)


def _coarse_qubit_scan(ch: QuantumChannel, density: int = 10):
    """Deterministic two-point scan over Bloch directions.

    Returns (value, bloch_lo, bloch_hi, weights, best_direction): the best
    binary-measurement mutual information found on a coarse grid, the two
    extreme signal directions achieving it, their closed-form optimal
    weights and the measurement direction.
    """
    grid, meas, jlo, jhi, lo, hi = _two_point_kernels(ch, density)
    if len(meas) == 0:
        return 0.0, grid[0], grid[1], np.array([0.5, 0.5]), np.array([0.0, 0.0, 1.0])
    values, weights = _binary_capacity(lo, hi)
    i = int(np.argmax(values))
    return float(values[i]), grid[jlo[i]], grid[jhi[i]], weights[i], meas[i]


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
    angles = [_bloch_angles(b_lo), _bloch_angles(b_hi), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)]
    xs = np.resize(angles, (n_states, 2)).ravel()
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
    kr = np.stack(ch.kraus)
    outs = np.einsum("kai,jib,kcb->jac", kr, _bloch_state(bloch_in), kr.conj())
    return 2.0 * _pauli_form(outs)[1]


def _grid_directions(density: int) -> np.ndarray:
    """The poles, then every interior polar angle of the grid at each azimuth (rows)."""
    thetas = np.linspace(0.0, np.pi, density + 1)[1:-1]
    phis = np.linspace(0.0, 2 * np.pi, max(density, 2), endpoint=False)
    angles = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).ravel()
    return np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], _bloch_of_angles(angles)[0]])


def _two_point_kernels(ch: QuantumChannel, density: int):
    """Binary-readout kernels of the grid's pure states, one per measurement direction.

    The directions keep one of each antipodal grid pair.  Returns (grid, meas,
    jlo, jhi, lo, hi): for each direction ``meas`` whose outcome probabilities
    are not all equal, the grid indices of the states with the lowest and
    highest probability of its first outcome, and those probabilities.
    """
    grid = _grid_directions(density)
    meas = grid[grid[:, 2] > 1e-12]
    meas = np.vstack([meas, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    p = np.clip(0.5 * (1.0 + _bloch_of_outputs(ch, grid) @ meas.T), 0.0, 1.0)
    jlo, jhi = p.argmin(axis=0), p.argmax(axis=0)
    cols = np.arange(len(meas))
    lo, hi = p[jlo, cols], p[jhi, cols]
    keep = hi - lo >= 1e-12
    return grid, meas[keep], jlo[keep], jhi[keep], lo[keep], hi[keep]


def qubit_grid_oracle(ch: QuantumChannel, grid_density: int, povm_arity: int = 2) -> float:
    """Brute-force lower bound for qubit channels on a deterministic Bloch grid.

    Candidate signals are the grid of pure states; candidate measurements are
    two-outcome projective POVMs along grid directions (arity 2) or trine
    POVMs rotated through the grid planes (arity 3), where the exact weight
    solve supplies the input weights.  No randomness is involved.

    For a two-outcome measurement the outcome statistics of every candidate
    lie on a segment, so the optimum uses the two extreme conditional
    probabilities, and that binary kernel's capacity has a closed form.
    """
    if ch.dim_in != 2 or ch.dim_out != 2:
        raise DimensionMismatchError("grid oracle handles qubit channels only")
    if povm_arity not in (2, 3):
        raise InvariantViolation(f"povm_arity must be 2 or 3, got {povm_arity}")

    best = 0.0
    if povm_arity == 2:
        *_, lo, hi = _two_point_kernels(ch, grid_density)
        best = float(_binary_capacity(lo, hi)[0].max(initial=0.0))
    else:
        bloch_out = _bloch_of_outputs(ch, _grid_directions(grid_density))
        planes = [(0, 1), (0, 2), (1, 2)]
        offsets = np.linspace(0.0, 2 * np.pi / 3, max(grid_density, 2), endpoint=False)
        for ax1, ax2 in planes:
            for off in offsets:
                dirs = np.zeros((3, 3))
                for i, ang in enumerate(off + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])):
                    dirs[i, ax1], dirs[i, ax2] = np.cos(ang), np.sin(ang)
                best = max(best, blahut_arimoto((1.0 + bloch_out @ dirs.T) / 3.0, tol=1e-9, max_iters=800)[0])
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
