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
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise InvariantViolation("matrix contains non-finite entries")
    return a


def hermitize(m: np.ndarray, atol: float = ATOL_HERMITIAN) -> np.ndarray:
    """Return the Hermitian part (m + m†)/2, rejecting inputs that are not
    Hermitian to within ``atol``."""
    m = _as_matrix(m)
    skew = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if skew > atol:
        raise InvariantViolation(f"matrix is not Hermitian: max |M - M†| = {skew:.3e} > {atol:.1e}")
    return 0.5 * (m + m.conj().T)


def assert_density_matrix(rho: np.ndarray, atol: float = ATOL_PSD) -> np.ndarray:
    """Validate a density matrix (Hermitian, PSD, unit trace) and return it."""
    rho = _as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise InvariantViolation(f"density matrix must be square, got shape {rho.shape}")
    skew = np.max(np.abs(rho - rho.conj().T))
    if skew > ATOL_HERMITIAN:
        raise InvariantViolation(f"density matrix not Hermitian: deviation {skew:.3e}")
    lam = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if lam.min(initial=0.0) < -atol:
        raise InvariantViolation(f"density matrix not PSD: min eigenvalue {lam.min():.3e}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > ATOL_TRACE:
        raise InvariantViolation(f"density matrix trace {tr!r} differs from 1 by {abs(tr - 1):.3e}")
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


# ---------------------------------------------------------------------------
# Tensor products and partial traces
# ---------------------------------------------------------------------------

def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, in standard ordering."""
    if not factors:
        raise DimensionMismatchError("tensor() needs at least one factor")
    out = _as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, _as_matrix(f))
    return out


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors except those in ``keep`` (0-based indices).

    ``dims`` lists the factor dimensions; their product must equal the matrix
    dimension.  ``partial_trace(m, dims, [])`` returns the scalar trace as a
    1x1 matrix.
    """
    m = _as_matrix(m)
    dims = [int(d) for d in dims]
    n = len(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match factor dimensions {dims}"
        )
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {n} factors")
    t = m.reshape(dims + dims)
    traced = [k for k in range(n) if k not in keep]
    for offset, k in enumerate(traced):
        ax = k - offset  # earlier traces shrink the row-index block
        t = np.trace(t, axis1=ax, axis2=ax + (n - offset))
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------

def shannon_entropy(p) -> float:
    """Shannon entropy -sum p log2 p in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float).ravel()
    sub_unit = p.size == 0 or p.max() <= 1.0 + ATOL_PROB_NEG
    p = p[p > EIG_CLIP]
    if p.size == 0:
        return 0.0
    val = float(-(p * np.log2(p)).sum())
    # entries <= 1 make every term nonnegative; clip float residue at 0
    return max(val, 0.0) if sub_unit else val


def entropy(m: np.ndarray) -> float:
    """Entropy -Tr[M log2 M] of a PSD matrix, in bits.

    Accepts any PSD matrix (unit trace not required), so it applies to the
    unnormalised blocks of block-diagonal constructions.  Eigenvalues in
    [-1e-10, 1e-12] are treated as zero.
    """
    m = _as_matrix(m)
    lam = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if lam.size and lam.min() < -ATOL_PSD:
        raise InvariantViolation(f"entropy of non-PSD matrix: min eigenvalue {lam.min():.3e}")
    return shannon_entropy(lam)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy of a density matrix, in bits."""
    return entropy(assert_density_matrix(rho))


def relative_entropy(p: np.ndarray, q: np.ndarray, atol_support: float = 1e-9) -> float:
    """Relative entropy Tr[P log2 P - P log2 Q] in bits for PSD P, Q.

    Requires supp(P) within supp(Q): every eigenvector of P with eigenvalue
    above 1e-10 must lie in the span of Q's eigenvectors with eigenvalue
    above 1e-12.  A violation raises SupportError naming the offending
    eigenvector.  For unit-trace inputs the value is nonnegative (Klein).
    """
    p = _as_matrix(p)
    q = _as_matrix(q)
    if p.shape != q.shape:
        raise DimensionMismatchError(f"shape mismatch {p.shape} vs {q.shape}")
    lp, vp = np.linalg.eigh(0.5 * (p + p.conj().T))
    lq, vq = np.linalg.eigh(0.5 * (q + q.conj().T))
    if lp.size and lp.min() < -ATOL_PSD:
        raise InvariantViolation(f"first argument not PSD: min eigenvalue {lp.min():.3e}")
    if lq.size and lq.min() < -ATOL_PSD:
        raise InvariantViolation(f"second argument not PSD: min eigenvalue {lq.min():.3e}")

    null_q = vq[:, lq <= EIG_CLIP]
    if null_q.shape[1]:
        for i in np.nonzero(lp > 1e-10)[0]:
            overlap = float(np.linalg.norm(null_q.conj().T @ vp[:, i]) ** 2)
            if overlap > atol_support:
                raise SupportError(
                    f"support violation: eigenvector {i} of P (eigenvalue {lp[i]:.3e}) "
                    f"has weight {overlap:.3e} outside supp(Q)",
                    eigenvector_index=int(i),
                    overlap=overlap,
                )

    lp_pos = np.clip(lp, 0.0, None)
    term_p = float(np.sum(lp_pos[lp_pos > EIG_CLIP] * np.log2(lp_pos[lp_pos > EIG_CLIP])))
    # Tr[P log Q] restricted to supp(Q); the support check bounds the remainder
    mask_q = lq > EIG_CLIP
    weights = np.einsum("ij,jk,ki->i", vq[:, mask_q].conj().T, p, vq[:, mask_q]).real
    term_q = float(np.sum(weights * np.log2(lq[mask_q])))
    val = term_p - term_q
    if val < 0.0 and abs(np.trace(p).real - 1.0) <= ATOL_TRACE and abs(np.trace(q).real - 1.0) <= ATOL_TRACE:
        # Klein inequality guarantees nonnegativity for unit-trace pairs
        val = max(val, 0.0) if val > -1e-9 else val
    return val


# ---------------------------------------------------------------------------
# Matrix functions on the PSD cone
# ---------------------------------------------------------------------------

def _psd_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = _as_matrix(m)
    lam, vec = np.linalg.eigh(0.5 * (m + m.conj().T))
    if lam.size and lam.min() < -ATOL_PSD:
        raise InvariantViolation(f"matrix not PSD: min eigenvalue {lam.min():.3e}")
    return np.clip(lam, 0.0, None), vec


def matrix_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix."""
    lam, vec = _psd_eig(m)
    return (vec * np.sqrt(lam)) @ vec.conj().T


def matrix_pinv_sqrt(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root: eigenvalues above 1e-12 map to 1/sqrt, rest to 0."""
    lam, vec = _psd_eig(m)
    inv = np.where(lam > EIG_CLIP, 1.0 / np.sqrt(np.where(lam > EIG_CLIP, lam, 1.0)), 0.0)
    return (vec * inv) @ vec.conj().T


def support_projector(m: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the range of a PSD matrix."""
    lam, vec = _psd_eig(m)
    keep = lam > EIG_CLIP
    return (vec[:, keep]) @ vec[:, keep].conj().T
