"""Capacity estimators: exact input-weight solves inside alternating local search.

At fixed signals and POVM, the input weights maximise a concave function on
the simplex (mutual information, or chi); ``_simplex_newton`` solves it
exactly by active-set Newton steps.  The reported capacity values are
feasible-point lower bounds on the corresponding suprema: every returned
number is the exact objective value at the returned ensemble / POVM / state,
so re-evaluating the objective at the argmax reproduces it.  A deterministic
Bloch-grid brute force provides an independent cross-check for qubit channels.

The signals, the POVM and the measured-input state are smooth maps of
unconstrained parameters, at every dimension: Bloch angles or normalised
vectors for pure signals, the polar factor of a complex matrix for the POVM,
and a a^dag for the input.  Each block objective returns its value with the
gradient pulled back through these maps in reverse mode, and every block is
one solve of the module's own L-BFGS (``minimize``) on that gradient.  The
solver stops at once when started exactly at a stationary point, such as
equatorial signals under a z-basis readout; the other restarts cover that
case.

The searches with inner weights (Shannon, fixed-measurement, Holevo and the
adaptive one) sweep: each sweep solves the blocks at the last exact weights,
then re-solves the weights, until a sweep gains less than the tolerance.
A restart's solves of one block share the solver's curvature pairs, so a
sweep resumes the curvature of the last.  The Shannon search solves all
its parameters in one block per sweep.  The measured-input search has no
inner weights, so its objective never changes and each restart is one
joint L-BFGS solve, resumed only while it stops at its evaluation cap; its
``converged`` is the solver's own stop.
Each weight solve runs at its solver's one tolerance, so a restart's last
sweep already holds its exact weights: the restarts are ranked by their
last sweep values, and only the best one is built and re-evaluated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import PAULI, Povm, QuantumChannel, measured_channel
from .errors import DimensionMismatchError, InvariantViolation
from .information import (
    PROB_FLOOR,
    Ensemble,
    channel_mutual_information,
    holevo_information,
    measured_input_information,
)
from .linalg import EIG_CLIP, _eig_entropy, _eig_entropy_and_slope, frozen


# Largest ensemble or POVM size cap: d^2 at the largest total dimension, 16.
_MAX_SIZE_CAP = 256


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
        if not (2 <= self.ensemble_size_cap <= _MAX_SIZE_CAP and 2 <= self.povm_size_cap <= _MAX_SIZE_CAP):
            raise InvariantViolation(
                f"size caps must lie in [2, {_MAX_SIZE_CAP}], got {self.ensemble_size_cap} and {self.povm_size_cap}"
            )


@dataclass(frozen=True, eq=False)
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
        gap = max(float(g.max() - p @ g), 0.0) if np.isfinite(g).all() else np.inf
        if not gap >= tol or step == max_iters:
            break
        if np.isinf(gap):
            enter = ~np.isfinite(g)
            d, t, slope, curv = enter / enter.sum() - p, 0.5, 0.0, 0.0
        else:  # Newton on the support's face, joined by the row j of largest gradient
            j = int(np.argmax(g))
            face = p > 0.0
            face[j] = True
            idx = np.flatnonzero(face)
            k = len(idx)
            bordered, rhs = np.ones((k + 1, k + 1)), np.zeros(k + 1)
            np.negative(h[idx[:, None], idx], out=bordered[:k, :k])
            bordered[k, k] = 0.0
            diagonal = bordered.reshape(-1)[: k * (k + 2) : k + 2]  # a view of the face's diagonal
            diagonal += _NEWTON_DAMPING * max(float(diagonal.max()), 1.0)
            np.subtract(g[idx], p @ g, out=rhs[:k])
            d = np.zeros_like(p)
            d[idx] = np.linalg.solve(bordered, rhs)[:k]
            slope = float(g @ d)
            if not (slope > 0.0 and (p[j] > 0.0 or d[j] > 0.0)):  # j would leave again: move weight to j
                d, slope = -p, gap
                d[j] += 1.0
            curv = float(d @ h @ d)
            t = slope / max(-curv, slope)  # the model's maximiser, capped at 1
        shrink = np.flatnonzero(d < 0.0)  # the ratio test: the first weight to reach 0 blocks the step
        ratios = p[shrink] / -d[shrink]
        limit = ratios.min(initial=np.inf)
        t = min(t, limit)
        rounding = 1e-14 * max(1.0, abs(value))
        for _ in range(60):
            cand = p + t * d
            if t >= limit:
                cand[shrink[np.argmin(ratios)]] = 0.0
            np.maximum(cand, 0.0, out=cand)
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


def _warm_start(init_weights, n: int) -> np.ndarray | None:
    """``init_weights`` scaled to sum 1, or None (a cold start) for anything but
    a finite, nonnegative vector of length ``n`` with a finite positive sum."""
    if init_weights is None:
        return None
    w = np.asarray(init_weights, dtype=float)
    if w.shape != (n,) or not np.isfinite(w).all() or w.min() < 0.0:
        return None
    with np.errstate(over="ignore"):
        total = w.sum()
    return w / total if 0.0 < total < np.inf else None


def blahut_arimoto(
    kernel: np.ndarray,
    tol: float = 1e-10,
    max_iters: int = 3000,
    full_output: bool = False,
    init_weights: np.ndarray | None = None,
):
    """Capacity (bits) of the discrete channel p(b|j) over input distributions.

    A name kept for the API: the solver is ``_simplex_newton`` with gradient
    D_j = D(p(.|j) || q) and Hessian -K diag(1/q) K^T / ln 2, stopped once
    the gap max_j D_j - sum_j r_j D_j falls below ``tol`` (every call in the
    package keeps the defaults: 1e-10, within 3000 steps).  ``init_weights``
    start it when ``_warm_start`` accepts them; otherwise a cold start is
    uniform on the n_out + 1 rows of largest D_j at uniform weights (all rows
    when there are no more), plus rows until every output some row reaches
    is reached.

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

    r = _warm_start(init_weights, n_in)
    if r is None:
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
#
# Each ``*_from_params`` map builds on a private helper that returns, from the
# same parameters, the unit vectors or the matrix the map is made of, with
# their pull-back: a callable taking a gradient g in them (dL = Re sum
# conj(g) dz) to the gradient in the parameters (a vector-Jacobian product).
# Where a helper takes a fallback (degenerate parameters) its pull-back
# returns zeros, so the L-BFGS solve stops there.

def _complex_params(z: np.ndarray) -> np.ndarray:
    """Parameters (real parts, then imaginary parts) of a complex matrix."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real.ravel(), z.imag.ravel()])


def _unit_rows(u: np.ndarray, norms: np.ndarray, fallback: np.ndarray):
    """The rows of ``u`` over their ``norms`` (rows of norm below 1e-12 become ``fallback``), and their pull-back."""
    small = norms < 1e-12
    u[small], norms[small] = fallback, 1.0
    v = u / norms[:, None]

    def pull_back(g):  # the radial part of g does not move v
        g = (g - (v.conj() * g).real.sum(axis=1, keepdims=True) * v) / norms[:, None]
        g[small] = 0.0
        return g

    return v, pull_back


def _signal_vectors(x: np.ndarray, dim: int, n: int):
    """Unit vectors (rows) of the states ``pure_states_from_params(x, dim, n)``, and their pull-back."""
    x = np.asarray(x, dtype=float)
    if dim == 2:
        theta, phi = x[0:2 * n:2], x[1:2 * n:2]
        c, s, phase = np.cos(theta / 2.0), np.sin(theta / 2.0), np.exp(1j * phi)
        v = np.empty((n, 2), dtype=complex)
        v[:, 0], v[:, 1] = c, phase * s

        def pull_back(g):  # d/dtheta and d/dphi of each state, interleaved
            turned = g[:, 1].conj() * phase
            out = np.empty((n, 2))
            out[:, 0], out[:, 1] = 0.5 * (c * turned.real - s * g[:, 0].real), -s * turned.imag
            return out.ravel()

        return v, pull_back
    chunks = x[: 2 * dim * n].reshape(n, 2, dim)
    u = chunks[:, 0] + 1j * chunks[:, 1]
    re, im = u.real, u.imag  # strided views: the products then round as norm() of each row does
    norms = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
    v, unit_back = _unit_rows(u, norms, np.eye(dim)[0])

    def pull_back(g):
        g = unit_back(g)
        return np.stack([g.real, g.imag], axis=1).ravel()

    return v, pull_back


def pure_states_from_params(x: np.ndarray, dim: int, n: int) -> np.ndarray:
    """Stack of n pure density matrices from unconstrained real parameters.

    Qubits use Bloch angles (theta, phi) per state; higher dimensions use 2*dim
    reals per state interpreted as a complex vector and normalised (a vector
    of norm below 1e-12 gives e_0).
    """
    return _rank_one(_signal_vectors(x, dim, n)[0])


def n_state_params(dim: int, n: int) -> int:
    return 2 * n if dim == 2 else 2 * dim * n


def _polar_rows(x: np.ndarray, dim: int, n_out: int):
    """Rows of the polar factor of the complex (n_out x dim) parameter matrix g, and their pull-back.

    The polar factor g (g^dag g)^(-1/2) = W Z^dag, from one SVD
    g = W diag(s) Z^dag, has orthonormal columns and maps a g with
    orthonormal columns to itself.  The pull-back chains V = g P with
    P = Z diag(1/s) Z^dag, through the Daleckii-Krein divided differences of
    t^(-1/2) at the eigenvalues s^2 of g^dag g, -1 / (s_i s_j (s_i + s_j)).
    A singular g (s_min <= 1e-12 s_max) keeps W Z^dag, still an isometry,
    and a non-finite one gives the first rows of I; neither pulls back
    anything.
    """
    x = np.asarray(x, dtype=float)
    m = n_out * dim
    g = (x[:m] + 1j * x[m:2 * m]).reshape(n_out, dim)
    if not np.isfinite(g).all():
        return np.eye(n_out, dim), lambda grad: np.zeros(2 * m)
    w, s, zh = np.linalg.svd(g, full_matrices=False)
    rows = w @ zh
    if not s[-1] > 1e-12 * s[0]:
        return rows, lambda grad: np.zeros(2 * m)
    z = zh.conj().T

    def pull_back(grad):
        y = zh @ grad.conj().T @ w
        inner = (y + s[:, None] * y.conj().T / s) / (s[:, None] + s)
        out = (grad @ z / s - w @ inner) @ zh
        return np.concatenate([out.real.ravel(), out.imag.ravel()])

    return rows, pull_back


def povm_elements_from_params(x: np.ndarray, dim: int, n_out: int) -> np.ndarray:
    """Stack of n_out rank-1 POVM elements, complete by construction.

    The parameters fill a complex (n_out x dim) matrix whose polar factor is
    an isometry; its rows v_b give the elements conj(v_b) v_b^T, so
    completeness and 0 <= E <= I hold exactly for every parameter value.
    """
    return _rank_one(_polar_rows(x, dim, n_out)[0].conj())


def n_povm_params(dim: int, n_out: int) -> int:
    return 2 * n_out * dim


def _density_factor(x: np.ndarray, dim: int):
    """The complex (dim x dim) parameter matrix scaled to unit norm, a, and its pull-back.

    rho = a a^dag; a matrix of norm below 1e-12 gives a = I / sqrt(dim).
    """
    x = np.asarray(x, dtype=float)
    m = dim * dim
    u = (x[:m] + 1j * x[m:2 * m])[None]
    a, pull_back = _unit_rows(u, np.array([np.linalg.norm(u)]), np.eye(dim).ravel() / np.sqrt(dim))
    return a.reshape(dim, dim), lambda g: _complex_params(pull_back(g.reshape(1, m)))


def density_from_params(x: np.ndarray, dim: int) -> np.ndarray:
    """Density matrix a a^dag of a complex (dim x dim) parameter matrix a scaled to unit norm."""
    a = _density_factor(x, dim)[0]
    return a @ a.conj().T


def n_density_params(dim: int) -> int:
    return 2 * dim * dim


# ---------------------------------------------------------------------------
# Block objectives: values with their gradients
# ---------------------------------------------------------------------------
#
# The channel enters as its dual matrix D: vec(dual(E)) = vec(E) D and
# vec(ch(rho)) = vec(rho) D^dag for row-major vec, so a gradient G in the
# pulled-back effects is G D^dag in the effects, and one in the outputs is
# G D in the inputs.  Each objective returns (value, gradient in its
# parameters); the reported values come from ``chancap.information`` at the
# returned point.

def _dual_matrix(ch: QuantumChannel) -> np.ndarray:
    """(d_out^2, d_in^2) matrix D with vec(dual(E)) = vec(E) D."""
    return np.einsum("kxa,kyb->xyab", ch.kraus.conj(), ch.kraus).reshape(ch.dim_out ** 2, ch.dim_in ** 2)


def _rank_one(u: np.ndarray) -> np.ndarray:
    """Stack of u_j u_j^dag for the rows u_j."""
    return u[:, :, None] * u.conj()[:, None, :]


def _rank_one_pull(gamma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Gradient in the rows u_j of sum_j Re Tr(gamma_j u_j u_j^dag), for Hermitian gamma_j (a stack or its rows)."""
    d = u.shape[1]
    return 2.0 * (np.reshape(gamma, (len(u), d, d)) @ u[:, :, None])[:, :, 0]


def _kernel(states: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Tr(rho_j E_b), clipped at 0, of Hermitian (n, d, d) stacks or their (n, d^2) rows."""
    s, e = np.reshape(states, (len(states), -1)), np.reshape(effects, (len(effects), -1))
    return np.maximum((s.conj() @ e.T).real, 0.0)


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


def _signal_information(weights: np.ndarray, effects: np.ndarray, dim: int, n: int):
    """Signal parameters -> mutual information against fixed effects (rows, on the signal space) at fixed weights."""
    def objective(xs):
        vecs, pull_back = _signal_vectors(xs, dim, n)
        value, g = _mi_and_grad(weights, _kernel(_rank_one(vecs), effects))
        return value, pull_back(_rank_one_pull(g @ effects, vecs))

    return objective


def _shannon_objective(dual: np.ndarray, weights: np.ndarray, dims: tuple[int, int], n_states: int, n_out: int):
    """Signal then POVM parameters -> mutual information at fixed weights, the POVM pulled back by ``dual``."""
    din, dout = dims
    ns, channel = n_state_params(din, n_states), dual.conj().T

    def objective(v):
        vecs, states_back = _signal_vectors(v[:ns], din, n_states)
        rows, rows_back = _polar_rows(v[ns:], dout, n_out)
        states = _rank_one(vecs).reshape(n_states, -1)
        effects = _rank_one(rows.conj()).reshape(n_out, -1) @ dual
        value, g = _mi_and_grad(weights, _kernel(states, effects))
        g_elements = (g.T @ states) @ channel
        g_rows = _rank_one_pull(g_elements.conj(), rows)  # E_b = conj(v_b) v_b^T
        return value, np.concatenate([states_back(_rank_one_pull(g @ effects, vecs)), rows_back(g_rows)])

    return objective


def _holevo_objective(dual: np.ndarray, weights: np.ndarray, dims: tuple[int, int], n: int):
    """Signal parameters -> chi = S(sum_j w_j rho_j) - sum_j w_j S(rho_j) of the outputs at fixed weights.

    The gradient in output j is w_j (log2 rho_j - log2 rhobar), each log taken
    on its support: one ``eigh`` of the stack (rhobar, rho_1, ...).
    """
    din, dout = dims
    channel = dual.conj().T

    def objective(xs):
        vecs, pull_back = _signal_vectors(xs, din, n)
        outs = _rank_one(vecs).reshape(n, -1) @ channel
        lam, vec = np.linalg.eigh(np.vstack([weights @ outs, outs]).reshape(n + 1, dout, dout))
        ent, slope = _eig_entropy_and_slope(lam)
        slope[0] *= -1.0  # dS/dlam = -slope: chi gains S(rhobar) and loses each S(rho_j)
        grads = ((vec * slope[:, None, :]) @ vec.conj().swapaxes(1, 2)).reshape(n + 1, -1)
        g_outs = weights[:, None] * (grads[0] + grads[1:])
        return float(ent[0] - weights @ ent[1:]), pull_back(_rank_one_pull(g_outs @ dual, vecs))

    return objective


def _measured_input_objective(dual: np.ndarray, dims: tuple[int, int], n_out: int):
    """Input then POVM parameters -> measured-input information.

    With rho = a a^dag, sqrt(rho) dual(E_b) sqrt(rho) has the nonzero
    spectrum of B_b = a^dag dual(E_b) a, and rho that of C = a^dag a, so the
    value S(C) - sum_b S(B_b) + H(tau), tau_b = Tr B_b, takes one ``eigh`` of
    the stack (C, B_1, ...), whose eigenvectors also give each term's
    gradient.  Outcomes with tau_b at or below the probability floor add no
    block entropy, as in ``measured_input_information``.
    """
    din, dout = dims
    nr, channel, eye = n_density_params(din), dual.conj().T, np.eye(din)[None]

    def objective(v):
        a, a_back = _density_factor(v[:nr], din)
        rows, rows_back = _polar_rows(v[nr:], dout, n_out)
        ops = np.concatenate([eye, (_rank_one(rows.conj()).reshape(n_out, -1) @ dual).reshape(n_out, din, din)])
        lam, vec = np.linalg.eigh(a.conj().T @ ops @ a)
        tau = np.maximum(lam[1:].sum(axis=1), 0.0)
        live = tau > PROB_FLOOR
        (ent, slope), (ent_tau, slope_tau) = _eig_entropy_and_slope(lam), _eig_entropy_and_slope(tau)
        value = float(ent[0] - ent[1:][live].sum() + ent_tau)
        slope[0] *= -1.0
        slope[1:] = slope[1:] * live[:, None] - slope_tau[:, None]  # H(tau) adds -slope(tau_b) I
        grads = (vec * slope[:, None, :]) @ vec.conj().swapaxes(1, 2)  # in C, then each B_b
        g_a = 2.0 * (ops @ a @ grads).sum(axis=0)
        g_elements = (a @ grads[1:] @ a.conj().T).reshape(n_out, -1) @ channel
        return value, np.concatenate([a_back(g_a), rows_back(_rank_one_pull(g_elements.conj(), rows))])

    return objective


# ---------------------------------------------------------------------------
# The qubit Bloch/Pauli format
# ---------------------------------------------------------------------------
#
# A qubit state is rho = (I + n . sigma) / 2 and an effect E = e0 I + e . sigma,
# so Tr(rho E) = e0 + n . e.  ``_pauli_form``, ``_bloch_state``, ``_bloch_angles``
# and ``_bloch_of_angles`` are the package's only conversions between Bloch
# angles, Bloch vectors, Pauli forms and 2x2 matrices, apart from the POVM
# constructors in ``channels``.  The grid oracle, the coarse scan, the
# estimators' qubit inits, the adaptive stages and the CLI use them.

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


# ---------------------------------------------------------------------------
# Local search
# ---------------------------------------------------------------------------

# Stopping tests of every block solve (the block's evaluation budget caps each
# solve): a relative reduction of at most _FTOL, a largest slope of at most
# _GTOL.  The line search's strong Wolfe constants, its evaluation cap and the
# relative bracket width at which it takes its best point.  The number of
# (step, gradient change) pairs the solver keeps, L-BFGS-B's default.
_FTOL, _GTOL = 1e-12, 1e-9
_C1, _C2, _LS_MAXFEV, _XTOL = 1e-3, 0.9, 20, 0.1
_MEMORY = 10
_EPS = float(np.finfo(float).eps)


def _mt_step(x, t, sign_change: bool) -> float:
    """Next trial of Moré and Thuente's ``dcstep`` between bracket ends x and t,
    each (step, psi, psi'): case 1 (t higher than x: the cubic's minimiser, or
    halfway to the quadratic's when that lies nearer x) or case 2 (x higher,
    psi' changes sign: the cubic's or the secant's minimiser, the farther from
    t).  NaN where the formulas divide by zero."""
    (ax, fx, gx), (at, ft, gt) = x, t
    try:
        theta = 3.0 * (fx - ft) / (at - ax) + gx + gt
        s = max(abs(theta), abs(gx), abs(gt))
        gamma = s * math.sqrt(max(0.0, (theta / s) * (theta / s) - (gx / s) * (gt / s)))
        if not sign_change:
            gamma = -gamma if at < ax else gamma
            cubic = ax + (gamma - gx + theta) / (gamma - gx + gamma + gt) * (at - ax)
            quad = ax + gx / ((fx - ft) / (at - ax) + gx) / 2.0 * (at - ax)
            return cubic if abs(cubic - ax) < abs(quad - ax) else cubic + (quad - cubic) / 2.0
        gamma = -gamma if at > ax else gamma
        cubic = at + (gamma - gt + theta) / (gamma - gt + gamma + gx) * (ax - at)
        secant = at + gt / (gt - gx) * (ax - at)
        return cubic if abs(cubic - at) > abs(secant - at) else secant
    except ZeroDivisionError:
        return math.nan


def _line_search(fun, x, f0: float, dg0: float, d, step: float, budget: int):
    """Step along the descent direction ``d`` that meets the strong Wolfe
    conditions, within ``budget`` evaluations of ``fun`` at x + a d.

    Works on psi(a) = f(x + a d) - f0 - _C1 a f'(0), as Moré and Thuente do.
    The best point ``lo`` (least psi, 0 at first) and the other end ``hi`` of a
    bracket of a minimiser of psi are (step, psi, psi').  A trial higher than
    ``lo`` becomes ``hi``; a lower one becomes ``lo``, its former ``lo``
    becoming ``hi`` where psi' changes sign.  A trial with a non-finite value
    or slope becomes a ``hi`` without values, so the next trial backtracks
    halfway to ``lo``.  Before there is a bracket the step grows fourfold;
    inside one, it is ``_mt_step``'s, bisected when the bracket has not shrunk
    by a third over two trials, and the search takes ``lo`` once the bracket
    is within ``_XTOL`` of its far end, or after ``_LS_MAXFEV`` trials.

    Returns (step, value, gradient, evaluations, status): the Wolfe point, or
    else ``lo`` (step 0 when nothing decreased psi); status 1 when the budget
    ended the search, else 0 when the step is positive and 2 when it is 0.
    """
    lo, lo_f, lo_g, hi = (0.0, 0.0, (1.0 - _C1) * dg0), f0, None, None
    width = width1 = math.inf
    a, used, limit = step, 0, min(budget, _LS_MAXFEV)
    while used < limit:
        f, g = fun(x + a * d)
        used += 1
        f, dg = float(f), float(g @ d)
        psi = f - f0 - _C1 * a * dg0
        sign_change = False
        if not (math.isfinite(psi) and math.isfinite(dg)):
            hi = (a, None, None)
        elif psi <= 0.0 and abs(dg) <= -_C2 * dg0:
            return a, f, g, used, 0
        elif psi > lo[1]:
            hi = (a, psi, dg - _C1 * dg0)
        else:
            trial = (a, psi, dg - _C1 * dg0)
            if trial[2] * (a - lo[0]) >= 0.0:
                hi, sign_change = lo, True
            lo, lo_f, lo_g = trial, f, g
        if hi is None:  # psi still falls at the last trial, which is lo
            a *= 4.0
            continue
        span = abs(hi[0] - lo[0])
        if span <= _XTOL * max(hi[0], lo[0]):
            break
        a = math.nan if hi[1] is None else _mt_step(hi, lo, True) if sign_change else _mt_step(lo, hi, False)
        if span >= 0.66 * width1 or not min(lo[0], hi[0]) < a < max(lo[0], hi[0]):
            a = lo[0] + 0.5 * (hi[0] - lo[0])
        width1, width = width, span
    else:
        if used == budget:
            return lo[0], lo_f, lo_g, used, 1
    return lo[0], lo_f, lo_g, used, 0 if lo[0] > 0.0 else 2


def minimize(fun, x0, maxfev: int, memory: list | None = None):
    """Local minimiser of ``fun`` from ``x0``, within ``maxfev`` >= 1 evaluations.

    ``fun`` returns (value, gradient).  L-BFGS with the last ``_MEMORY``
    pairs (s, y) of steps and gradient changes: the first step along -g is
    1/|g| long, later ones start at 1 along -H g, with the strong Wolfe
    ``_line_search``; H g comes from the two-loop recursion over the pairs,
    with H0 the identity scaled by s.y / y.y of the newest pair, and a pair
    with s.y <= eps y.y is not kept.  Memory and work per iteration are
    O(_MEMORY n) for n parameters.  Where -H g is no descent direction, or
    its line search finds no decrease, the pairs are dropped.

    ``memory``, when given, is the caller's list of pairs (s, y, 1 / s.y),
    oldest first: the solve starts from them (first step 1 along -H g), and
    leaves its newest pairs in it (none where it drops them), for the next
    solve of a nearby objective.  Without it a solve starts from -g.

    Returns (x, f, status).  Status 0: the largest slope is at most
    ``_GTOL``, or an iteration reduced f by at most ``_FTOL`` times
    max(|f| before, |f| after, 1).  Status 1: the evaluation cap ended the
    solve (it is never exceeded).  Status 2: a steepest-descent line search
    found no decrease.  Non-finite trials are never taken, so a start with a
    non-finite value or slope returns ``x0``.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    f, nfev, pairs = float(f), 1, [] if memory is None else memory
    if not math.isfinite(f):
        return x, f, 2
    gamma = float(pairs[-1][0] @ pairs[-1][1]) / float(pairs[-1][1] @ pairs[-1][1]) if pairs else 1.0
    while not np.abs(g).max() <= _GTOL:
        if nfev >= maxfev:
            return x, f, 1
        d = -g if not pairs else -_two_loop(g, pairs, gamma)
        dg0 = float(g @ d)
        if not -math.inf < dg0 < 0.0:
            if not pairs:
                return x, f, 2
            pairs.clear()
            continue
        a, f_new, g_new, used, status = _line_search(
            fun, x, f, dg0, d, 1.0 if pairs else 1.0 / math.sqrt(-dg0), maxfev - nfev
        )
        nfev += used
        if a == 0.0:
            if status == 2 and pairs:
                pairs.clear()
                continue
            return x, f, status
        s, y = a * d, g_new - g
        x, f_old, f, g = x + s, f, f_new, g_new
        if status == 1:
            return x, f, 1
        if f_old - f <= _FTOL * max(abs(f_old), abs(f), 1.0):
            return x, f, 0
        sy, yy = float(s @ y), float(y @ y)
        if sy > _EPS * yy:
            pairs[:], gamma = (pairs + [(s, y, 1.0 / sy)])[-_MEMORY:], sy / yy
    return x, f, 0


def _two_loop(g, pairs, gamma: float):
    """H g of L-BFGS for the pairs (s, y, 1 / s.y), oldest first, from H0 = gamma I."""
    q, alphas = g.copy(), []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    q *= gamma
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return q


def _maximize(fun, x0: np.ndarray, maxfev: int, memory: list | None = None):
    """Local maximiser of ``fun`` from ``x0`` by L-BFGS (``minimize``), within ``maxfev`` evaluations.

    ``fun`` returns (value, gradient); ``memory`` is ``minimize``'s list of
    curvature pairs, here of -fun.  Returns (x, value at x, stopped), where
    ``stopped`` says that the solver ended on its own tests rather than at
    the evaluation cap.  A non-finite value or slope at the start returns
    ``x0`` and its value.
    """
    def negated(v):
        value, grad = fun(v)
        return -value, -grad

    x, f, status = minimize(negated, x0, maxfev, memory)
    return x, -f, status != 1


def _block_ascent(x, sweep_value, blocks, cfg: OptimizerConfig, maxfev_per_param: int = 60):
    """Alternating ascent over blocks of the parameters ``x``.

    ``blocks`` are (slice, make) pairs: ``make(x)`` returns the objective of
    ``x[slice]`` alone, built with the rest of ``x`` held, that returns (value,
    gradient).  A sweep maximises each block's objective in turn, then takes
    ``sweep_value(x)``; the search stops once a sweep gains less than
    ``cfg.tol``.  With one block of all parameters a sweep is one joint solve.
    Without a ``sweep_value`` (no inner weights) the one block's objective
    does not change between solves, so the search is one solve, followed by
    another only while a solve stops at its evaluation cap, up to
    ``cfg.max_iters`` solves; its value is the last solve's (the start's
    when there is none).  Returns the parameters, the value at them (the
    last sweep value, even where that sweep lost ground) and whether a
    stopping test (the sweep gain, or the solver's own) rather than
    ``cfg.max_iters`` ended the search.

    Each block keeps its own L-BFGS pairs (``minimize``'s ``memory``) over
    the call's solves: a sweep's objective moves only with the weights, and
    a re-solve resumes the capped solve.  No pair carries between restarts.
    """
    x = np.array(x, dtype=float)
    memories = [[] for _ in blocks]
    if sweep_value is None:
        ((part, make),) = blocks
        objective, value, stopped = make(x), None, False
        for _ in range(cfg.max_iters):
            x[part], value, stopped = _maximize(objective, x[part], maxfev_per_param * len(x[part]), memories[0])
            if stopped:
                break
        return x, objective(x[part])[0] if value is None else value, stopped
    value = sweep_value(x)
    for _ in range(cfg.max_iters):
        for (part, make), memory in zip(blocks, memories):
            x[part] = _maximize(make(x), x[part], maxfev_per_param * len(x[part]), memory)[0]
        last, value = value, sweep_value(x)
        if value - last < cfg.tol:
            return x, value, True
    return x, value, False


# Least weight a signal carries into the block objectives: an exact weight
# solve drops signals to weight 0, where the blocks give them no slope to
# come back.  Sweep values and warm starts keep the exact weights.
_BLOCK_WEIGHT_FLOOR = 1e-6


def _block_weights(weights: np.ndarray) -> np.ndarray:
    floored = np.maximum(weights, _BLOCK_WEIGHT_FLOOR)
    return floored / floored.sum()


def _search(cfg: OptimizerConfig, value, blocks, start, finish, ceiling: float = np.inf, maxfev_per_param: int = 60):
    """Best of ``cfg.restarts`` seeded restarts of one block ascent; each estimator states only its problem.

    - ``value(x, w)`` returns (sweep value, inner weights) at parameters x,
      where w holds the weights of the restart's last call (None at its first).
      A search without inner weights passes None: it has one block, and each
      restart is its L-BFGS solve (see ``_block_ascent``).
    - ``blocks`` are (slice, make) pairs: ``make(x, w)`` returns the block's
      objective (see ``_block_ascent``) at the last weights, floored by
      ``_block_weights`` (None while there are none).
    - ``start(restart, rng, draw)`` returns the restart's start; ``draw(scales,
      n_draws)`` is the best of random normal draws of these per-entry scales
      under ``value``, or under the block objective when there is none.
    - ``finish(x, w, converged)`` builds the result from the best restart's
      parameters, the weights of its last ``value`` call (those at x, or
      None without inner weights) and its ``converged`` flag.

    Each restart draws from ``default_rng([cfg.seed, restart])`` and is
    ranked by the value ``_block_ascent`` returns; the first of equal values
    is kept, and no further restart runs once it is within 1e-11 of
    ``ceiling``.  Returns what ``finish``, called once, makes of the best
    restart, and the number of restarts run.
    """
    rng, weights, best = None, None, None  # the restart's generator and last weights, the best (value, x, w, converged)

    def sweep_value(x):
        nonlocal weights
        v, weights = value(x, weights)
        return v

    def held(make):
        return lambda x: make(x, None if weights is None else _block_weights(weights))

    blocks = [(part, held(make)) for part, make in blocks]
    if value is None:
        ((part, make),) = blocks
        sweep_value = None

        def score(x):
            return make(x)(x[part])[0]
    else:
        score = sweep_value

    def draw(scales, n_draws=24):  # cheap basin selection: the first best of a few random starts
        return max((rng.normal(scale=scales) for _ in range(n_draws)), key=score)

    for restart in range(cfg.restarts):
        rng, weights = np.random.default_rng([cfg.seed, restart]), None
        x, v, converged = _block_ascent(start(restart, rng, draw), sweep_value, blocks, cfg, maxfev_per_param)
        if best is None or v > best[0]:
            best = (v, x, weights, converged)
        if best[0] >= ceiling - 1e-11:
            break
    return finish(*best[1:]), restart + 1


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


def _signal_inits(dim: int, n: int, restart: int, draw) -> np.ndarray:
    """Canonical signals for the first restarts, then ``_search``'s best random draw."""
    if restart < _n_canonical_inits(dim):
        return _state_inits(dim, n, restart)
    return draw(np.full(n_state_params(dim, n), 1.5))


def _povm_inits(dim: int, n_out: int, rng: np.random.Generator, restart: int) -> np.ndarray:
    names = list(_CANONICAL_BASES)
    if dim == 2 and restart < len(names):
        basis = _CANONICAL_BASES[names[restart]]
        rows = np.zeros((n_out, 2), dtype=complex)
        # element b projects onto basis column b, so the isometry row is its conjugate
        rows[0], rows[1] = basis[:, 0].conj(), basis[:, 1].conj()
        return _complex_params(rows)
    if dim != 2 and restart == 0:
        rows = np.zeros((n_out, dim), dtype=complex)
        for b in range(min(dim, n_out)):
            rows[b, b] = 1.0
        return _complex_params(rows)
    return rng.normal(size=n_povm_params(dim, n_out))


# ---------------------------------------------------------------------------
# Shannon capacity
# ---------------------------------------------------------------------------

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
    dual = _dual_matrix(ch)
    qubit = (din, dout) == (2, 2)

    def kernel_of(cat):  # of the signal then POVM parameters
        states = pure_states_from_params(cat[:ns], din, n_states)
        return _kernel(states, povm_elements_from_params(cat[ns:], dout, n_out).reshape(n_out, -1) @ dual)

    def start(restart, rng, draw):
        if restart == 0 and qubit:  # the coarse grid scan's best two-point configuration
            return np.concatenate(_witness_inits(ch, n_states, n_out)[:2])
        if restart < _n_canonical_inits(din):
            return np.concatenate([_state_inits(din, n_states, restart), _povm_inits(dout, n_out, rng, restart)])
        return draw(np.concatenate([np.full(ns, 1.5), np.ones(n_povm_params(dout, n_out))]))

    def finish(cat, weights, converged):
        ensemble = Ensemble(weights, pure_states_from_params(cat[:ns], din, n_states))
        povm = Povm(povm_elements_from_params(cat[ns:], dout, n_out))
        return CapacityResult(channel_mutual_information(ch, ensemble, povm), ensemble, povm, converged=converged)

    best, runs = _search(
        cfg,
        lambda cat, w: blahut_arimoto(kernel_of(cat), init_weights=w),
        [(slice(None), lambda _, w: _shannon_objective(dual, w, (din, dout), n_states, n_out))],
        start,
        finish,
        ceiling=np.log2(min(din, dout)),
    )
    return replace(best, restarts_used=runs)


def fixed_measurement_capacity(ch: QuantumChannel, m: Povm, cfg: OptimizerConfig) -> CapacityResult:
    """Best feasible mutual information over ensembles at a fixed measurement.

    Optimises the signals against the POVM pulled back through the channel.
    """
    effects = m.elements.reshape(len(m), -1) @ _dual_matrix(ch)
    din = ch.dim_in
    n_states = max(cfg.ensemble_size_cap, 2)

    def finish(xs, weights, converged):
        ensemble = Ensemble(weights, pure_states_from_params(xs, din, n_states))
        return CapacityResult(channel_mutual_information(ch, ensemble, m), ensemble, m, converged=converged)

    best, runs = _search(
        cfg,
        lambda xs, w: blahut_arimoto(_kernel(pure_states_from_params(xs, din, n_states), effects), init_weights=w),
        [(slice(None), lambda _, w: _signal_information(w, effects, din, n_states))],
        lambda restart, rng, draw: _signal_inits(din, n_states, restart, draw),
        finish,
        ceiling=min(np.log2(din), np.log2(len(m))),
    )
    return replace(best, restarts_used=runs)


# ---------------------------------------------------------------------------
# Holevo capacity
# ---------------------------------------------------------------------------

def _entropy_stack(mats: np.ndarray) -> np.ndarray:
    return _eig_entropy(np.clip(np.linalg.eigvalsh(mats), 0.0, None))


def max_holevo_weights(
    outputs: np.ndarray,
    tol: float = 1e-11,
    max_iters: int = 3000,
    init_weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Maximise chi over the weight simplex for fixed channel outputs, at any dimension.

    Solved by ``_simplex_newton``: the gradient g_j = -S(rho_j) - Tr rho_j
    log2 rhobar is each output's relative entropy to the average (+inf when
    more than 1e-9 of its trace lies off the average's support), and one
    ``eigh`` of the average gives the Hessian through the divided differences
    of log, over that support.  Stops once max_j g_j - chi falls below
    ``tol`` (every call in the package keeps the defaults: 1e-11, within
    3000 steps); ``init_weights`` start it as ``blahut_arimoto``'s do, and
    the cold start is uniform.
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

    pi = _warm_start(init_weights, len(outs))
    if pi is None:
        pi = np.full(len(outs), 1.0 / len(outs))
    chi, pi, _, _ = _simplex_newton(fgh, pi, tol, max_iters)
    return chi, pi


def holevo_capacity(ch: QuantumChannel, cfg: OptimizerConfig) -> CapacityResult:
    """Best feasible Holevo quantity over ensembles of pure signal states."""
    din, dout = ch.dim_in, ch.dim_out
    n_states = max(cfg.ensemble_size_cap, 2)
    dual = _dual_matrix(ch)
    channel = dual.conj().T

    def outputs_of(xs_):
        states = pure_states_from_params(xs_, din, n_states).reshape(n_states, -1)
        return (states @ channel).reshape(n_states, dout, dout)

    def finish(xs, weights, converged):
        ensemble = Ensemble(weights, pure_states_from_params(xs, din, n_states))
        return CapacityResult(holevo_information(ch, ensemble), ensemble, converged=converged)

    best, runs = _search(
        cfg,
        lambda xs, w: max_holevo_weights(outputs_of(xs), init_weights=w),
        [(slice(None), lambda _, w: _holevo_objective(dual, w, (din, dout), n_states))],
        lambda restart, rng, draw: _signal_inits(din, n_states, restart, draw),
        finish,
        ceiling=np.log2(min(din, dout)),
    )
    return replace(best, restarts_used=runs)


# ---------------------------------------------------------------------------
# Measured-input bound
# ---------------------------------------------------------------------------

def measured_input_bound(ch: QuantumChannel, cfg: OptimizerConfig) -> CapacityResult:
    """Best feasible value of the measured-input information over (rho, POVM).

    The average input is parametrised as rho = a a^dag with a of unit norm,
    and the POVM by the rank-1 isometry construction.  The result is
    a feasible value of the bound's objective, so at most its supremum; the
    supremum upper-bounds the Shannon capacity, but this value certifies no
    upper bound.
    """
    din, dout = ch.dim_in, ch.dim_out
    n_out = max(cfg.povm_size_cap, dout)

    nr = n_density_params(din)
    qubit = (din, dout) == (2, 2)
    joint = _measured_input_objective(_dual_matrix(ch), (din, dout), n_out)

    def start(restart, rng, draw):
        if restart == 0 and qubit:
            # the coarse grid scan's witness: the weighted two-point average
            # input with its best projective readout
            _, xm, xr = _witness_inits(ch, 2, n_out)
            return np.concatenate([xr, xm])
        if restart == 0 or (restart == 1 and qubit):
            # maximally mixed input (a = I, since a = 0 is a fallback point
            # without slope); readout along the channel ellipsoid's dominant
            # output axis when available, the basis otherwise
            xm = _ellipsoid_povm_init(ch, n_out) if qubit else _povm_inits(dout, n_out, rng, 0)
            return np.concatenate([_complex_params(np.eye(din)), xm])
        return draw(np.concatenate([np.full(nr, 0.8), np.ones(n_povm_params(dout, n_out))]), n_draws=32)

    def finish(cat, _, converged):
        rho = density_from_params(cat[:nr], din)
        povm = Povm(povm_elements_from_params(cat[nr:], dout, n_out))
        return CapacityResult(measured_input_information(ch, rho, povm), None, povm, frozen(rho), converged=converged)

    best, runs = _search(cfg, None, [(slice(None), lambda *_: joint)], start, finish, ceiling=np.log2(min(din, dout)))
    return replace(best, restarts_used=runs)


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


def _witness_inits(ch: QuantumChannel, n_states: int, n_out: int):
    """Shannon-style and measured-input inits from the coarse scan's argmax."""
    _, b_lo, b_hi, w, n = _coarse_qubit_scan(ch)
    angles = [_bloch_angles(b_lo), _bloch_angles(b_hi), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)]
    xs = np.resize(angles, (n_states, 2)).ravel()
    xm = _complex_params(_projective_rows(n, n_out))
    xr = _complex_params(_signal_vectors(xs, 2, 2)[0].T * np.sqrt(w))  # a = (sqrt(w_lo) v_lo, sqrt(w_hi) v_hi)
    return xs, xm, xr


def _ellipsoid_povm_init(ch: QuantumChannel, n_out: int) -> np.ndarray:
    """Projective init along the dominant output axis of a qubit channel."""
    u, _, _ = np.linalg.svd(_affine_bloch_map(ch)[0])
    return _complex_params(_projective_rows(u[:, 0], n_out))


# ---------------------------------------------------------------------------
# Deterministic qubit grid oracle
# ---------------------------------------------------------------------------

def _bloch_of_outputs(ch: QuantumChannel, bloch_in: np.ndarray) -> np.ndarray:
    """Map input Bloch vectors through the channel, returning output Bloch vectors."""
    outs = np.einsum("kai,jib,kcb->jac", ch.kraus, _bloch_state(bloch_in), ch.kraus.conj())
    return 2.0 * _pauli_form(outs)[1]


@functools.lru_cache(maxsize=16)
def _grid_directions(density: int) -> np.ndarray:
    """The poles, then every interior polar angle of the grid at each azimuth (rows); frozen, one per density."""
    thetas = np.linspace(0.0, np.pi, density + 1)[1:-1]
    phis = np.linspace(0.0, 2 * np.pi, density, endpoint=False)
    angles = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).ravel()
    return frozen(np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], _bloch_of_angles(angles)[0]]))


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
    ``grid_density``, an integer of at least 2, is the number of azimuths and
    of polar steps of the grid, and of trine rotations per plane.

    For a two-outcome measurement the outcome statistics of every candidate
    lie on a segment, so the optimum uses the two extreme conditional
    probabilities, and that binary kernel's capacity has a closed form.
    """
    if ch.dim_in != 2 or ch.dim_out != 2:
        raise DimensionMismatchError("grid oracle handles qubit channels only")
    if povm_arity not in (2, 3):
        raise InvariantViolation(f"povm_arity must be 2 or 3, got {povm_arity}")
    if isinstance(grid_density, bool) or not isinstance(grid_density, (int, np.integer)) or grid_density < 2:
        raise InvariantViolation(f"grid_density must be an integer of at least 2, got {grid_density!r}")

    best = 0.0
    if povm_arity == 2:
        *_, lo, hi = _two_point_kernels(ch, grid_density)
        best = float(_binary_capacity(lo, hi)[0].max(initial=0.0))
    else:
        bloch_out = _bloch_of_outputs(ch, _grid_directions(grid_density))
        planes = [(0, 1), (0, 2), (1, 2)]
        offsets = np.linspace(0.0, 2 * np.pi / 3, grid_density, endpoint=False)
        for ax1, ax2 in planes:
            for off in offsets:
                dirs = np.zeros((3, 3))
                for i, ang in enumerate(off + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])):
                    dirs[i, ax1], dirs[i, ax2] = np.cos(ang), np.sin(ang)
                best = max(best, blahut_arimoto((1.0 + bloch_out @ dirs.T) / 3.0)[0])
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
