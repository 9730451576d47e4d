"""Dense complex linear algebra for small Hilbert spaces (total dimension <= 16).

All matrices are plain ``numpy.ndarray`` objects with complex entries.
Density matrices, POVM elements and probability vectors are ordinary arrays
that pass the validators below; entropic quantities are returned in bits.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvariantViolation, SupportError

# Tolerances used by every validator in the package.
ATOL_HERMITIAN = 1e-10
ATOL_PSD = 1e-10
ATOL_TRACE = 1e-10
ATOL_PROB_NEG = 1e-12
ATOL_PROB_SUM = 1e-10
ATOL_COMPLETENESS = 1e-9
EIG_CLIP = 1e-12  # eigenvalues below this are treated as exact zeros


def _as_matrix(m) -> np.ndarray:
    """``m`` as a complex matrix or (n, d, d) stack of matrices."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3):
        raise DimensionMismatchError(f"expected a matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(-2, -1))
        raise InvariantViolation(f"matrix{_at(a, int(np.argmin(finite)))} contains non-finite entries")
    return a


def _at(a: np.ndarray, i: int) -> str:
    """`` i`` when ``a`` is a stack (naming its matrix i in a message), else ''."""
    return f" {i}" if a.ndim == 3 else ""


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _raise_first(*checks) -> None:
    """Raise for the first matrix of a stack that fails any check, with the first check it fails.

    Each check is ``(mask, error)``: a boolean mask over the stack (a scalar
    for one matrix) and a callable building the exception for index i.  This
    is the order of a loop that validates matrix by matrix, check by check.
    """
    if any(mask.any() for mask, _ in checks):
        masks = [np.atleast_1d(mask) for mask, _ in checks]
        i = int(np.argmax(np.logical_or.reduce(masks)))
        raise next(error(i) for mask, (_, error) in zip(masks, checks) if mask[i])


def hermitize(m: np.ndarray, atol: float = ATOL_HERMITIAN) -> np.ndarray:
    """Return the Hermitian part (m + m†)/2, rejecting inputs that are not
    Hermitian to within ``atol``.  Accepts a stack of matrices."""
    m = _as_matrix(m)
    skew = np.abs(m - _dagger(m)).max(axis=(-2, -1), initial=0.0)
    _raise_first((skew > atol, lambda i: InvariantViolation(
        f"matrix{_at(m, i)} is not Hermitian: max |M - M†| = {np.atleast_1d(skew)[i]:.3e} > {atol:.1e}"
    )))
    return 0.5 * (m + _dagger(m))


def assert_density_matrix(rho: np.ndarray, atol: float = ATOL_PSD) -> np.ndarray:
    """Validate a density matrix (Hermitian, PSD, unit trace) and return it.

    Accepts an (n, d, d) stack; a violation then names the first offending
    matrix.
    """
    rho = _as_matrix(rho)
    if rho.shape[-1] != rho.shape[-2]:
        raise InvariantViolation(f"density matrix must be square, got shape {rho.shape}")
    skew = np.abs(rho - _dagger(rho)).max(axis=(-2, -1))
    lam = np.linalg.eigvalsh(0.5 * (rho + _dagger(rho)))
    low, tr = lam[..., 0], np.trace(rho, axis1=-2, axis2=-1).real
    _raise_first(
        (skew > ATOL_HERMITIAN, lambda i: InvariantViolation(
            f"density matrix{_at(rho, i)} not Hermitian: deviation {np.atleast_1d(skew)[i]:.3e}")),
        (low < -atol, lambda i: InvariantViolation(
            f"density matrix{_at(rho, i)} not PSD: min eigenvalue {np.atleast_1d(low)[i]:.3e}")),
        (np.abs(tr - 1.0) > ATOL_TRACE, lambda i: InvariantViolation(
            f"density matrix{_at(rho, i)} trace {np.atleast_1d(tr)[i]!r} differs from 1 by "
            f"{abs(np.atleast_1d(tr)[i] - 1):.3e}")),
    )
    return rho


def clean_probability_vector(p, atol_sum: float = ATOL_PROB_SUM) -> np.ndarray:
    """Validate a probability vector; tiny negatives (>= -1e-12) are clipped to 0."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise InvariantViolation(f"probability vector must be 1-D, got shape {p.shape}")
    if p.size and p.min() < -ATOL_PROB_NEG:
        raise InvariantViolation(f"probability vector has negative weight {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    if abs(p.sum() - 1.0) > atol_sum:
        raise InvariantViolation(f"probability vector sums to {p.sum()!r}, not 1")
    return p


def frozen(a: np.ndarray) -> np.ndarray:
    """Read-only copy; all public containers store their arrays this way."""
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def frozen_stack(mats, what: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Read-only complex (n, ...) copy of a non-empty sequence of equal-shape matrices.

    ``shape`` defaults to the first matrix's; a mismatch raises
    DimensionMismatchError, and a NaN or infinite entry InvariantViolation,
    naming the first offending ``what``.
    """
    shape = tuple(shape or np.shape(mats[0]))
    try:
        stack = np.array(mats, dtype=complex)
    except ValueError:  # ragged
        stack = np.empty(0)
    if stack.shape[1:] != shape or len(shape) != 2:
        i = next((i for i, m in enumerate(mats) if np.shape(m) != shape), 0)
        raise DimensionMismatchError(
            f"{what} {i} has shape {np.shape(mats[i])}, expected {shape if len(shape) == 2 else 'a matrix'}"
        )
    if not np.isfinite(stack).all():
        i = int(np.argmin(np.isfinite(stack).all(axis=(1, 2))))
        raise InvariantViolation(f"{what} {i} has a non-finite entry")
    stack.setflags(write=False)
    return stack


# ---------------------------------------------------------------------------
# Tensor products and partial traces
# ---------------------------------------------------------------------------

def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, in standard ordering.

    Factors may be (n, a, b) stacks, multiplied matrix by matrix; a single
    matrix pairs with every matrix of a stack.
    """
    if not factors:
        raise DimensionMismatchError("tensor() needs at least one factor")
    out = _as_matrix(factors[0])
    for f in factors[1:]:
        f = _as_matrix(f)
        prod = out[..., :, None, :, None] * f[..., None, :, None, :]
        out = prod.reshape(prod.shape[:-4] + (out.shape[-2] * f.shape[-2], out.shape[-1] * f.shape[-1]))
    return out


def tensor_pairs(a, b) -> np.ndarray:
    """Stack of a_i (x) b_k over all pairs (i, k) of two stacks, i major."""
    a, b = np.asarray(a), np.asarray(b)
    return tensor(np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1, 1)))


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors except those in ``keep`` (0-based indices).

    ``dims`` lists the factor dimensions; their product must equal the matrix
    dimension.  ``partial_trace(m, dims, [])`` returns the scalar trace as a
    1x1 matrix.  A stack of matrices is reduced matrix by matrix.
    """
    m = _as_matrix(m)
    lead = m.shape[:-2]
    dims = [int(d) for d in dims]
    n = len(dims)
    total = int(np.prod(dims))
    if m.shape[-2:] != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match factor dimensions {dims}"
        )
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {n} factors")
    t = m.reshape(lead + tuple(dims + dims))
    traced = [k for k in range(n) if k not in keep]
    for offset, k in enumerate(traced):
        ax = len(lead) + k - offset  # earlier traces shrink the row-index block
        t = np.trace(t, axis1=ax, axis2=ax + (n - offset))
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(lead + (d_keep, d_keep))


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------

def _eig_entropy(lam: np.ndarray) -> np.ndarray:
    """Entropies (bits) of eigenvalue lists along the last axis; entries at or below EIG_CLIP count 0."""
    kept = np.where(lam > EIG_CLIP, lam, 1.0)  # 1 log 1 = 0
    return -(kept * np.log2(kept)).sum(axis=-1)


def _eig_entropy_and_slope(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_eig_entropy(lam)`` and the slope log2(lam) + 1/ln 2, so that dS/dlam = -slope (0 for dropped entries)."""
    mask = lam > EIG_CLIP
    kept = np.where(mask, lam, 1.0)
    logs = np.log2(kept)
    return -(kept * logs).sum(axis=-1), np.where(mask, logs + 1.0 / np.log(2.0), 0.0)


def shannon_entropy(p):
    """Shannon entropy -sum p log2 p in bits, with 0 log 0 = 0.

    A 2-D array gives the entropy of each row; any other shape is flattened.
    """
    p = np.asarray(p, dtype=float)
    p = p if p.ndim == 2 else p.ravel()
    val = _eig_entropy(p)
    # entries <= 1 make every term nonnegative; clip float residue at 0
    val = np.where(p.max(axis=-1, initial=0.0) <= 1.0 + ATOL_PROB_NEG, np.maximum(val, 0.0), val) + 0.0  # no -0.0
    return float(val) if p.ndim == 1 else val


def entropy(m: np.ndarray):
    """Entropy -Tr[M log2 M] of a PSD matrix, in bits.

    Accepts any PSD matrix (unit trace not required), so it applies to the
    unnormalised blocks of block-diagonal constructions.  Eigenvalues in
    [-1e-10, 1e-12] are treated as zero.  An (n, d, d) stack gives the n
    entropies as an array.
    """
    return shannon_entropy(_psd_eig(m, "entropy argument", vectors=False)[1])


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy of a density matrix, in bits."""
    return entropy(assert_density_matrix(rho))


def relative_entropy(p: np.ndarray, q: np.ndarray, atol_support: float = 1e-9):
    """Relative entropy Tr[P log2 P - P log2 Q] in bits for PSD P, Q.

    Requires supp(P) within supp(Q): every eigenvector of P with eigenvalue
    above 1e-10 must lie in the span of Q's eigenvectors with eigenvalue
    above 1e-12.  A violation raises SupportError naming the offending
    eigenvector.  For unit-trace inputs the value is nonnegative (Klein).
    Two (n, d, d) stacks give the n pairwise values as an array; an error
    then names the first offending pair.
    """
    p, lp, vp = _psd_eig(p, "first argument")
    q, lq, vq = _psd_eig(q, "second argument")
    if p.shape != q.shape:
        raise DimensionMismatchError(f"shape mismatch {p.shape} vs {q.shape}")
    null_q = lq <= EIG_CLIP
    # weight of each eigenvector of P (last axis) outside supp(Q)
    overlap = np.atleast_2d(np.sum(np.abs(_dagger(vq) @ vp) ** 2 * null_q[..., None], axis=-2))
    outside = np.atleast_2d(lp > 1e-10) & (overlap > atol_support)
    if outside.any():
        k, i = np.unravel_index(np.argmax(outside), outside.shape)  # first pair, then its first eigenvector
        raise SupportError(
            f"support violation: eigenvector {i} of P{_at(p, k)} (eigenvalue {np.atleast_2d(lp)[k, i]:.3e}) "
            f"has weight {overlap[k, i]:.3e} outside supp(Q)",
            eigenvector_index=int(i),
            overlap=float(overlap[k, i]),
        )
    # Tr[P log Q] restricted to supp(Q); the support check bounds the remainder
    weights = np.einsum("...ai,...ab,...bi->...i", vq.conj(), p, vq).real
    term_q = np.sum(np.where(null_q, 0.0, weights * np.log2(np.where(null_q, 1.0, lq))), axis=-1)
    val = -_eig_entropy(lp) - term_q
    unit = (np.abs(np.trace(p, axis1=-2, axis2=-1).real - 1.0) <= ATOL_TRACE) & (
        np.abs(np.trace(q, axis1=-2, axis2=-1).real - 1.0) <= ATOL_TRACE
    )
    # Klein inequality guarantees nonnegativity for unit-trace pairs
    val = np.where(unit & (val < 0.0) & (val > -1e-9), 0.0, val)
    return float(val) if p.ndim == 2 else val


# ---------------------------------------------------------------------------
# Matrix functions on the PSD cone
# ---------------------------------------------------------------------------

def _psd_eig(m: np.ndarray, what: str = "matrix", vectors: bool = True):
    """(m, eigenvalues clipped at 0, eigenvectors or None) of the Hermitian part
    of a PSD matrix or stack; an eigenvalue below -ATOL_PSD raises, naming the
    first offending matrix."""
    m = _as_matrix(m)
    h = 0.5 * (m + _dagger(m))
    lam, vec = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    low = np.atleast_1d(lam[..., 0])
    _raise_first((low < -ATOL_PSD, lambda i: InvariantViolation(
        f"{what}{_at(m, i)} not PSD: min eigenvalue {low[i]:.3e}"
    )))
    return m, np.maximum(lam, 0.0), vec


def matrix_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix (or of each matrix of a stack)."""
    _, lam, vec = _psd_eig(m)
    return (vec * np.sqrt(lam)[..., None, :]) @ _dagger(vec)


def matrix_pinv_sqrt(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root: eigenvalues above 1e-12 map to 1/sqrt, rest to 0."""
    _, lam, vec = _psd_eig(m)
    inv = np.where(lam > EIG_CLIP, 1.0 / np.sqrt(np.where(lam > EIG_CLIP, lam, 1.0)), 0.0)
    return (vec * inv[..., None, :]) @ _dagger(vec)


def support_projector(m: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the range of a PSD matrix."""
    _, lam, vec = _psd_eig(m)
    keep = lam > EIG_CLIP
    return (vec * keep[..., None, :]) @ _dagger(vec)
