"""Moment matrices and the conserved-moment projectors.

The moment matrix M maps a per-cell population vector to raw velocity
moments.  The conserved block M0 keeps the first k rows.  The stable
projector never materializes M^{-1}: it stores the thin orthonormal factor Q
of M0^T(:, 1:k) and applies I - Q Q^T as two skinny matvecs.  The naive
inverse-based projector is kept only to reproduce its failure modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalError
from .kinetic import VelocityGrid

D1Q3_MOMENT_MATRIX = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, 0.0, -1.0],
        [0.5, 0.0, 0.5],
    ]
)


class BasisKind(Enum):
    MONOMIAL = "monomial"
    CHEBYSHEV = "chebyshev"
    D1Q3 = "d1q3"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class MomentBasis:
    kind: BasisKind
    M: np.ndarray           # (q, q) populations -> moments
    k: int                  # number of conserved moments, 1 <= k < q
    M0: np.ndarray          # M with rows >= k zeroed
    Q: np.ndarray           # (q, k), orthonormal columns spanning rows 0..k-1 of M
    R: np.ndarray           # (k, k) upper triangular

    @property
    def q(self) -> int:
        return self.M.shape[0]

    def conserved_moments(self, f: np.ndarray) -> np.ndarray:
        """First k raw moments of population vector(s); last axis is q."""
        return f @ self.M0[: self.k].T


def build_moment_basis(kind: BasisKind | str, velocities, k: int) -> MomentBasis:
    """Build M, its conserved block, and the orthonormal conserved basis.

    ``velocities`` may be a VelocityGrid or an explicit 1-D array; it is
    ignored for the D1Q3 kind (speeds are fixed to {1, 0, -1} lattice units).
    """
    kind = BasisKind(kind)
    if kind is BasisKind.D1Q3:
        M = D1Q3_MOMENT_MATRIX.copy()
    else:
        v = velocities.velocities if isinstance(velocities, VelocityGrid) else np.asarray(velocities, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("need at least two velocities")
        if np.unique(v).size != v.size:
            raise ValueError("velocities must be distinct")
        q = v.size
        if kind is BasisKind.MONOMIAL:
            M = np.vander(v, q, increasing=True).T
        elif kind is BasisKind.CHEBYSHEV:
            # rows T_r(vt), vt the affine map of [min, max] onto [-1, 1]
            lo, hi = v.min(), v.max()
            M = np.polynomial.chebyshev.chebvander(2.0 * (v - lo) / (hi - lo) - 1.0, q - 1).T
        else:
            raise ValueError("custom bases are built with basis_from_matrix")
    return basis_from_matrix(M, k, kind=kind)


def basis_from_matrix(M: np.ndarray, k: int, *, kind: BasisKind = BasisKind.CUSTOM) -> MomentBasis:
    """MomentBasis from an explicit q x q moment matrix."""
    M = np.asarray(M, dtype=float)
    q = M.shape[0]
    if M.shape != (q, q):
        raise ValueError("moment matrix must be square")
    if not 1 <= k < q:
        raise ValueError(f"k must satisfy 1 <= k < q, got k={k}, q={q}")
    M0 = M.copy()
    M0[k:] = 0.0
    Q, R = np.linalg.qr(M0[:k].T)  # reduced: Q (q, k), R (k, k)
    if np.min(np.abs(np.diag(R))) <= q * np.finfo(float).eps * np.max(np.abs(R)):
        raise NumericalError("conserved moment rows are numerically rank deficient")
    return MomentBasis(kind=kind, M=M, k=k, M0=M0, Q=Q, R=R)


def project_complement(basis: MomentBasis, f: np.ndarray) -> np.ndarray:
    """Apply I - Q Q^T along the last axis: strips the conserved components."""
    return f - (f @ basis.Q) @ basis.Q.T


def reset_conserved(
    basis: MomentBasis,
    f_pre: np.ndarray,
    f0: np.ndarray,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Replace the conserved components of f_pre by those of f0.

    Output = (I - Q Q^T) f_pre + Q Q^T f0; its first k raw moments equal
    those of f0 while the Q-orthogonal content of f_pre is untouched.  The
    output goes to ``out`` and the correction Q Q^T (f0 - f_pre) is formed
    in ``work``, an array like f0; either is allocated when None.
    """
    if f_pre.shape != f0.shape:
        raise ValueError("f_pre and f0 must have equal shapes")
    d = np.subtract(f0, f_pre, out=work)
    np.matmul(d @ basis.Q, basis.Q.T, out=d)
    return np.add(f_pre, d, out=out)


def naive_projector(basis: MomentBasis) -> tuple[np.ndarray, float]:
    """P = I - M^{-1} M0 via a dense solve, plus cond_1(M).

    Kept for the failure studies: for large monomial or Chebyshev bases M is
    catastrophically ill-conditioned and P stops being a projector.  The
    condition estimate is reported, never asserted on.

    For the monomial basis the failure comes from the unequilibrated solve,
    not from the formula: the rows of M scale as v^r, the same P built in
    exact arithmetic is a projector to rounding level, and a solve after row
    equilibration keeps the conserved moments.  The float P returned here
    is rounding noise whose values, and any CR spectrum built on it, depend
    on the LAPACK build; only its loss of the conserved moments is
    build-independent.
    """
    q = basis.q
    try:
        P = np.eye(q) - np.linalg.solve(basis.M, basis.M0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"moment matrix is singular: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        cond = float(np.linalg.cond(basis.M, 1))
    return P, cond


def unconserved_basis(basis: MomentBasis) -> np.ndarray:
    """Orthonormal basis U (q, q-k) of the complement of span(Q)."""
    Qfull, _ = np.linalg.qr(basis.Q, mode="complete")
    U = Qfull[:, basis.k:]
    # qr(complete) may flip signs relative to Q; only the span matters here
    return U
