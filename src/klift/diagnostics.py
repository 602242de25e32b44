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

The dense eigensolve then splits in two where the Jacobian allows it.  At
m = 0 on a spatially uniform state the Jacobian commutes with the mirror
reflection R: (cell j, velocity i) -> (N - 1 - j, Nv - 1 - i), because on
unconserved directions the linearised collision is a multiple of the
identity and upwind advection is mirror-symmetric.  Each row block of J then
equals its mirror image, and in an R-adapted orthonormal basis J is block
diagonal.  Its spectrum is the union of two eigensolves of about half the
size, each about an eighth of the cost, whose matrices are sums of J's four
cell quadrants once each cell's velocity directions are rotated to parity
eigenvectors (``_mirror_split``).  Whether J has the symmetry is read from
J itself (``REFLECTION_RTOL``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cr import CRConfig, cr_jvp, cr_map, fd_step
from .errors import NumericalError
from .moments import MomentBasis, naive_projector
from .steppers import Runs

DENSE_SPECTRUM_CAP = 2000
PROJECTOR_DIM_CAP = 512
# Relative mismatch |FD(z) - J z| / max(|J z|, |FD(z)|) allowed along the
# random check direction.  Forward-difference truncation alone reaches 4.5e-4
# (helium_L30.cfg at N = 20..60, Nv = 16..32, m = 0..3, QR and naive resets);
# a stepper that also adds 0.1 x the cell mean reads 0.1-0.25.
BAND_CHECK_RTOL = 1e-2
# J commutes with the mirror reflection R when every row block J[p] differs
# from its mirror image (R J R)[p] by at most this fraction of max|J|; the
# spectrum is then taken from the two diagonal blocks of the R-adapted J.
# The dropped off-diagonal blocks are about that size and move an eigenvalue
# by about as much (one shared by both blocks) or less (the first-order change
# of any other is zero), no more than the forward differences' own rounding,
# about sqrt(eps) relative.  Measured max_p max|J[p] - (R J R)[p]| / max|J|:
# criterion-8 problems at m = 0 (QR and exact naive resets, N = 49 and 50,
# ambient u = 0 and 100 m/s, both domains) 6e-13 to 6e-11; inflow at m = 1
# and 2 1.5e-4 to 0.15, the float naive reset 5e-7 (Nv = 16) to 1.2 and a
# 5 % perturbed f0 0.2.  Where J is symmetric only up to that rounding (D1Q3
# rings at populations of order 1: 7e-9 to 4e-8; periodic BGK rings at
# m >= 1: 8e-7 to 4e-6) either path may run.
REFLECTION_RTOL = 1e-8


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
    which = "naive": the inverse-based P of ``naive_projector``, whose
    spectrum degrades with cond(M).  For the monomial basis that degradation
    comes from its unequilibrated float solve, so the naive eigenvalues (and
    a CR spectrum built on the naive P) depend on the LAPACK build.
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

    The ring is cut into the most contiguous blocks of at least
    2 * half_band + 1 cells that fit, and the cells of each block are numbered
    0, 1, ...; two cells of one colour are then a whole block apart, also across
    the wrap.  That needs ceil(N / floor(N / (2 half_band + 1))) colours, at
    most 4 * half_band + 1; a ring of at most 2 * half_band + 1 cells gives
    every cell its own colour.  Ring distance never exceeds the distance
    along a line, so the colouring also holds for non-periodic steppers.
    """
    blocks = max(1, n_cells // (2 * half_band + 1))
    starts = (np.arange(blocks + 1) * n_cells) // blocks
    return np.concatenate([np.arange(n) for n in np.diff(starts)])


def _colored_jacobian(apply_map, base_out, f0, U, h, half_band, J):
    """Forward-difference Jacobian of a map whose cell i depends on cells i +- half_band.

    One map per (colour, direction) perturbs every cell of the colour at
    once; output cell i is the response to the one perturbed cell within
    half_band of it (Curtis, Powell & Reid, IMA J. Appl. Math. 13, 1974).
    ``apply_map(state, out)`` writes the map to ``out``, which may be the
    state itself; one buffer holds each perturbed state and then its map,
    for all columns.  The columns are written into the zeroed (N r, N r)
    array ``J``.
    """
    n_cells = f0.shape[0]
    r = U.shape[1]
    colors = ring_colors(n_cells, half_band)
    offsets = np.arange(-half_band, half_band + 1)
    J = J.reshape(n_cells, r, n_cells, r)
    mapped = np.empty_like(f0)
    for c in range(colors.max() + 1):
        cells = np.flatnonzero(colors == c)
        # the windows of one colour's cells do not overlap
        owner = np.full(n_cells, -1)
        owner[(cells[:, None] + offsets) % n_cells] = cells[:, None]
        rows = np.flatnonzero(owner >= 0)
        for l in range(r):
            np.copyto(mapped, f0)
            mapped[cells] += h * U[:, l]
            apply_map(mapped, mapped)
            mapped -= base_out
            col = (mapped @ U) / h
            J[rows, :, owner[rows], l] = col[rows]


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
    ``fd_step(f0, runs)``, every row a run of its own (``Runs.each_row``).
    The check map is ``cr_jvp`` along a fixed random direction z and raises
    NumericalError when it disagrees with J z beyond ``BAND_CHECK_RTOL``,
    i.e. when the stepper couples cells further apart.
    J is returned as a new array, which ``cr_jacobian_spectrum`` may split in place.

    ``threads`` does nothing.  It is kept so that callers which still pass
    it (the benchmark's spectrum workload) keep working; the thread pool it
    once sized was slower than a serial loop, and the colored assembly runs
    only a few dozen maps.
    """
    n_cells = f0.shape[0]
    dim = check_dense_dimension(n_cells, basis)
    U = basis.U
    J = np.zeros((dim, dim))

    work = tuple(np.empty((3,) + f0.shape))  # cr_map's step, step and sum buffers
    runs = Runs.each_row(n_cells)

    def apply_map(state, out=None):
        return cr_map(stepper, basis, f0, state, cfg.order_m, naive_P=naive_P,
                      out=out, work=work, runs=runs)

    base_out = apply_map(f0)
    _colored_jacobian(apply_map, base_out, f0, U, fd_step(f0, runs), cfg.order_m + 1, J)

    z = np.random.default_rng(0).standard_normal(dim)
    fd = (cr_jvp(apply_map, f0, base_out, z.reshape(n_cells, -1) @ U.T, runs=runs) @ U).ravel()
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


def _maxabs(x: np.ndarray) -> float:
    """max|x| without an |x| temporary; 0 for an empty array."""
    return max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))


def _mirror_split(J: np.ndarray, n_cells: int, U: np.ndarray) -> int | None:
    """Split J in place under the mirror reflection; the symmetric block's size, or None.

    R maps (cell p, velocity i) to (p' = N - 1 - p, Nv - 1 - i); on the
    unconserved coordinates it reverses the cells and applies
    G = U^T Pi U, where Pi reverses the velocity index.  Row block p of J
    must equal G J[p'] G with the cells reversed to ``REFLECTION_RTOL`` *
    max|J|; None, J untouched, at the first that misses, or unless G has
    only eigenvalues +-1 within 1e-12 (a velocity grid symmetric about its
    midpoint).  J is then rotated in place, one cell at a time, to the
    eigenvectors z_k of G = Z diag(s) Z^T, +1 first, taken as s_k z_k on the
    mirror cells p >= N - N // 2, so that R maps direction k of cell p to
    direction k of p'.  The R-symmetric and antisymmetric vectors
    (e_p +- e_p') / sqrt 2 of a pair p < N // 2 give the blocks
    1/2 (K_pq +- K_pq' +- K_p'q + K_p'q') from J's four cell quadrants,
    written over K_pq and K_p'q'.  For odd N the middle cell's directions with
    s_k = +1 (symmetric) or -1 (antisymmetric) join them, coupled to the pairs
    with weight 1 / sqrt 2.  The symmetric block is then J[:ns, :ns] and the
    antisymmetric one J[ns:, ns:], its pairs in reverse order.
    """
    G = U.T @ U[::-1]
    s, Z = np.linalg.eigh(G)
    if n_cells < 2 or not np.all(np.abs(np.abs(s) - 1.0) <= 1e-12):
        return None
    r = U.shape[1]
    rows = J.reshape(n_cells, r, -1)
    bound = REFLECTION_RTOL * _maxabs(J)
    for p in range((n_cells + 1) // 2):
        mirror = (G @ rows[n_cells - 1 - p]).reshape(r, n_cells, r)[:, ::-1] @ G
        mirror -= rows[p].reshape(r, n_cells, r)
        if not _maxabs(mirror) <= bound:
            return None

    h, odd = n_cells // 2, n_cells % 2
    Z, r_plus = Z[:, ::-1], int(np.count_nonzero(s > 0.0))
    Zs = Z * np.sign(s[::-1])
    K = J.reshape(n_cells, r, n_cells, r)
    for p in range(n_cells):
        rot = ((Zs if p >= h + odd else Z).T @ rows[p]).reshape(r, n_cells, r)
        np.matmul(rot[:, :h + odd], Z, out=K[p, :, :h + odd])
        np.matmul(rot[:, h + odd:], Zs, out=K[p, :, h + odd:])

    w = np.sqrt(0.5)
    for p in range(h):
        near, far = K[p], K[n_cells - 1 - p]      # rows of p and p'
        sym, anti = near[:, :h], far[:, ::-1][:, :h]    # K_pq and K_p'q'
        even = sym + anti
        cross = near[:, ::-1][:, :h] + far[:, :h]       # K_pq' + K_p'q
        np.add(even, cross, out=sym)
        np.subtract(even, cross, out=anti)
        sym *= 0.5
        anti *= 0.5
        if odd:                                   # column of the middle cell
            x, y = near[:, h], far[:, h]
            plus, minus = w * (x + y), w * (x - y)
            x[:, :r_plus], y[:, r_plus:] = plus[:, :r_plus], minus[:, r_plus:]
    if odd:                                       # row of the middle cell
        x, y = K[h, :, :h], K[h, :, ::-1][:, :h]
        plus, minus = w * (x + y), w * (x - y)
        x[:r_plus], y[r_plus:] = plus[:r_plus], minus[r_plus:]
    return h * r + (r_plus if odd else 0)


def cr_jacobian_spectrum(
    stepper,
    basis: MomentBasis,
    f0: np.ndarray,
    cfg: CRConfig,
    *,
    naive_P: np.ndarray | None = None,
    threads: int = 1,
) -> SpectrumReport:
    """Nonsymmetric spectrum of d C_m / d s around f0.

    The Jacobian comes from ``cr_jacobian_matrix``; ``threads`` does nothing
    and is kept for the same reason as there.  When J commutes with the
    mirror reflection (``_mirror_split``), the eigenvalues are those of its
    two diagonal blocks, symmetric block first, and ``params`` records their
    sizes as ``reflection_blocks``; otherwise they come from one dense
    eigensolve of J.
    """
    J = cr_jacobian_matrix(stepper, basis, f0, cfg, naive_P=naive_P)
    params = {
        "N": f0.shape[0], "q": basis.q, "k": basis.k, "m": cfg.order_m,
        "projector": "naive" if naive_P is not None else "qr",
    }
    ns = _mirror_split(J, f0.shape[0], basis.U)
    if ns is None:
        ev = np.linalg.eigvals(J)
    else:
        ev = np.concatenate([np.linalg.eigvals(J[:ns, :ns]), np.linalg.eigvals(J[ns:, ns:])])
        params["reflection_blocks"] = [ns, len(J) - ns]
    return _report(ev, "cr-jacobian", params)
