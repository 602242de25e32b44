"""Spectral diagnostics for the projectors and the CR map.

Full spectra use a dense eigensolve and are capped in dimension.  The CR-map
Jacobian is assembled from forward differences by Curtis-Powell-Reid column
colouring.  It relies on the stepper contract that one step couples each
cell only to its nearest neighbours (with periodic wrap or frozen ghost
cells), while restriction, the equilibrium solve and the conserved-moment
reset act per cell.  One CR map takes m + 1 steps, so cell i
of its output depends only on cells i - b .. i + b with b = m + 1.  Cells
more than 2b apart on the ring then share a colour and are perturbed in one
map, and the Jacobian costs (colours) * (q - k) + 1 maps instead of
N (q - k) + 1, plus one map that checks the band assumption.  At N = 50,
Nv = 24, m = 0 that is 4 colours and 4 * 21 + 1 + 1 = 86 maps instead of
1,051.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cr import CRConfig, cr_buffers, cr_jvp, cr_map, fd_step
from .errors import NumericalError
from .moments import MomentBasis, naive_projector, unconserved_basis

DENSE_SPECTRUM_CAP = 2000
PROJECTOR_DIM_CAP = 512
# Relative mismatch |FD(z) - J z| / max(|J z|, |FD(z)|) allowed along the
# random check direction.  Forward-difference truncation alone reaches 4.5e-4
# (helium_L30.cfg at N = 20..60, Nv = 16..32, m = 0..3, QR and naive resets);
# a stepper that also adds 0.1 x the cell mean reads 0.1-0.25.
BAND_CHECK_RTOL = 1e-2


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray  # complex
    spectral_radius: float
    operator: str
    params: dict = field(default_factory=dict)


def _report(eigenvalues: np.ndarray, operator: str, params: dict) -> SpectrumReport:
    return SpectrumReport(
        eigenvalues=eigenvalues,
        spectral_radius=float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0,
        operator=operator,
        params=params,
    )


def projector_spectrum(basis: MomentBasis, which: str = "qr") -> SpectrumReport:
    """Eigenvalues of the materialized q x q projector.

    which = "qr": I - Q Q^T (expected spectrum {0 x k, 1 x (q-k)});
    which = "naive": I - M^{-1} M0, whose spectrum degrades with cond(M).
    For the monomial basis that degradation comes from the unequilibrated
    float solve in ``naive_projector``, so the naive eigenvalues (and a CR
    spectrum built on the naive P) depend on the LAPACK build.
    """
    q = basis.q
    if q > PROJECTOR_DIM_CAP:
        raise ValueError(f"dense projector spectrum capped at q={PROJECTOR_DIM_CAP}")
    params = {"q": q, "k": basis.k, "kind": basis.kind.value}
    if which == "qr":
        P = np.eye(q) - basis.Q @ basis.Q.T
        # symmetric: real spectrum
        ev = np.linalg.eigvalsh(P).astype(complex)
        return _report(ev, "qr-projector", params)
    if which == "naive":
        P, cond = naive_projector(basis)
        ev = np.linalg.eigvals(P)
        params["cond_1"] = cond
        return _report(ev, "naive-projector", params)
    raise ValueError("which must be 'qr' or 'naive'")


def ring_colors(n_cells: int, half_band: int) -> np.ndarray:
    """Colour of each cell of a ring so that same-coloured cells lie > 2 * half_band apart.

    The ring is cut into the most contiguous runs of at least
    2 * half_band + 1 cells that fit, and the cells of each run are numbered
    0, 1, ...; two cells of one colour are then a whole run apart, also across
    the wrap.  That needs ceil(N / floor(N / (2 half_band + 1))) colours, at
    most 4 * half_band + 1; a ring of at most 2 * half_band + 1 cells gives
    every cell its own colour.  Ring distance never exceeds the distance
    along a line, so the colouring also holds for non-periodic steppers.
    """
    runs = max(1, n_cells // (2 * half_band + 1))
    starts = (np.arange(runs + 1) * n_cells) // runs
    return np.concatenate([np.arange(n) for n in np.diff(starts)])


def _colored_jacobian(apply_map, base_out, f0, U, h, half_band):
    """Forward-difference Jacobian of a map whose cell i depends on cells i +- half_band.

    One map per (colour, direction) perturbs every cell of the colour at
    once; output cell i is the response to the one perturbed cell within
    half_band of it (Curtis, Powell & Reid, IMA J. Appl. Math. 13, 1974).
    ``apply_map(state, out)`` writes the map to ``out``; the perturbed state
    and the map's output use one buffer each for all columns.
    """
    n_cells = f0.shape[0]
    r = U.shape[1]
    colors = ring_colors(n_cells, half_band)
    offsets = np.arange(-half_band, half_band + 1)
    J = np.zeros((n_cells, r, n_cells, r))
    pert, mapped = np.empty_like(f0), np.empty_like(f0)
    for c in range(colors.max() + 1):
        cells = np.flatnonzero(colors == c)
        # the windows of one colour's cells do not overlap
        owner = np.full(n_cells, -1)
        owner[(cells[:, None] + offsets) % n_cells] = cells[:, None]
        rows = np.flatnonzero(owner >= 0)
        for l in range(r):
            np.copyto(pert, f0)
            pert[cells] += h * U[:, l]
            mapped = apply_map(pert, mapped)
            mapped -= base_out
            col = (mapped @ U) / h
            J[rows, :, owner[rows], l] = col[rows]
    return J.reshape(n_cells * r, n_cells * r)


def check_dense_dimension(n_cells: int, basis: MomentBasis) -> int:
    """The CR-Jacobian dimension N (q - k); ValueError above ``DENSE_SPECTRUM_CAP``."""
    dim = n_cells * (basis.q - basis.k)
    if dim > DENSE_SPECTRUM_CAP:
        raise ValueError(
            f"CR Jacobian dimension N*(q-k) = {n_cells}*{basis.q - basis.k} = {dim} exceeds "
            f"the dense cap {DENSE_SPECTRUM_CAP}; lower N (klift spectrum --n)"
        )
    return dim


def cr_jacobian_matrix(
    stepper,
    basis: MomentBasis,
    f0: np.ndarray,
    cfg: CRConfig,
    *,
    naive_P: np.ndarray | None = None,
    threads: int = 1,
) -> np.ndarray:
    """FD-assembled Jacobian of the CR map in unconserved coordinates.

    The state dimension is N (q - k); ``check_dense_dimension`` caps it
    before any map runs.  The stepper must couple only nearest-neighbour
    cells per step (periodic wrap allowed), so the m + 1 steps of one CR map
    give a cell half-bandwidth b = m + 1; the columns are assembled by ring
    colouring in colours * (q - k) + 2 CR maps (the base map and one check
    map; see ``ring_colors``), each column with the unit-direction step
    ``fd_step(f0)``.  The check map is ``cr_jvp`` along a fixed random
    direction z and raises NumericalError when it disagrees with J z beyond
    ``BAND_CHECK_RTOL``, i.e. when the stepper couples cells further apart.

    ``threads`` does nothing.  It is kept so that callers which still pass
    it (the benchmark's spectrum workload) keep working; the thread pool it
    once sized was slower than a serial loop, and the colored assembly runs
    only a few dozen maps.
    """
    n_cells = f0.shape[0]
    dim = check_dense_dimension(n_cells, basis)
    U = unconserved_basis(basis)

    work = cr_buffers(f0)

    def apply_map(state, out=None):
        return cr_map(stepper, basis, f0, state, cfg.order_m, naive_P=naive_P,
                      out=out, work=work)

    base_out = apply_map(f0)
    J = _colored_jacobian(apply_map, base_out, f0, U, fd_step(f0), cfg.order_m + 1)

    z = np.random.default_rng(0).standard_normal(dim)
    fd = (cr_jvp(apply_map, f0, base_out, z.reshape(n_cells, -1) @ U.T) @ U).ravel()
    Jz = J @ z
    scale = max(float(np.linalg.norm(Jz)), float(np.linalg.norm(fd)), np.finfo(float).tiny)
    mismatch = float(np.linalg.norm(fd - Jz)) / scale
    if not mismatch <= BAND_CHECK_RTOL:
        raise NumericalError(
            f"colored CR Jacobian misses couplings: FD(z) and J z differ by {mismatch:.3e} "
            f"relative (> {BAND_CHECK_RTOL:g}) along a random z; one CR map may couple "
            f"only cells within m + 1 = {cfg.order_m + 1} of each other"
        )
    return J


def cr_jacobian_spectrum(
    stepper,
    basis: MomentBasis,
    f0: np.ndarray,
    cfg: CRConfig,
    *,
    naive_P: np.ndarray | None = None,
    threads: int = 1,
) -> SpectrumReport:
    """Dense nonsymmetric spectrum of d C_m / d s around f0.

    The Jacobian comes from ``cr_jacobian_matrix``; ``threads`` does nothing
    and is kept for the same reason as there.
    """
    n_cells, q = f0.shape
    J = cr_jacobian_matrix(stepper, basis, f0, cfg, naive_P=naive_P)
    ev = np.linalg.eigvals(J)
    return _report(ev, "cr-jacobian", {
        "N": n_cells, "q": q, "k": basis.k, "m": cfg.order_m,
        "projector": "naive" if naive_P is not None else "qr",
    })
