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
identity and upwind advection is mirror-symmetric.  In an R-adapted
orthonormal basis J is then block diagonal, and its spectrum is the union of
two eigensolves of about half the size, each about an eighth of the cost.
Whether J has the symmetry is read from J itself (``REFLECTION_RTOL``).
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
# Off-diagonal blocks of the reflection-adapted CR Jacobian at most this
# fraction of max|J| are dropped, and the spectrum is taken from the two
# diagonal blocks.  That moves an eigenvalue by about the blocks' size (one
# shared by both blocks) or less (the first-order change of any other is
# zero), no more than the forward differences' own rounding, about sqrt(eps)
# relative.  Measured: criterion-8 problems at m = 0 (QR and exact naive
# resets, N = 49 and 50, ambient u = 0 and 100 m/s, both domains) read 1e-12
# to 3e-11; inflow at m = 1 and 2 reads 7e-5 to 2e-2, the float naive reset
# 2e-6 (Nv = 16) to 0.3 and a 5 % perturbed f0 0.1.  Where J is symmetric
# only up to that rounding (D1Q3 rings at populations of order 1: 1e-9 to
# 3e-8; periodic BGK rings at m >= 1: 3e-7 to 9e-7) either path may run.
REFLECTION_RTOL = 1e-8
REFLECTION_SCRATCH = 7  # (q - k) x N (q - k) arrays used by the reflection


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


def _colored_jacobian(apply_map, base_out, f0, U, h, half_band, J):
    """Forward-difference Jacobian of a map whose cell i depends on cells i +- half_band.

    One map per (colour, direction) perturbs every cell of the colour at
    once; output cell i is the response to the one perturbed cell within
    half_band of it (Curtis, Powell & Reid, IMA J. Appl. Math. 13, 1974).
    ``apply_map(state, out)`` writes the map to ``out``; the perturbed state
    and the map's output use one buffer each for all columns.  The columns
    are written into the zeroed (N r, N r) array ``J``.
    """
    n_cells = f0.shape[0]
    r = U.shape[1]
    colors = ring_colors(n_cells, half_band)
    offsets = np.arange(-half_band, half_band + 1)
    J = J.reshape(n_cells, r, n_cells, r)
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
    out: np.ndarray | None = None,
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
    J is written into ``out``, a zeroed C-contiguous (N (q - k), N (q - k))
    array, when one is given.

    ``threads`` does nothing.  It is kept so that callers which still pass
    it (the benchmark's spectrum workload) keep working; the thread pool it
    once sized was slower than a serial loop, and the colored assembly runs
    only a few dozen maps.
    """
    n_cells = f0.shape[0]
    dim = check_dense_dimension(n_cells, basis)
    U = unconserved_basis(basis)
    J = np.zeros((dim, dim)) if out is None else out

    work = cr_buffers(f0)

    def apply_map(state, out=None):
        return cr_map(stepper, basis, f0, state, cfg.order_m, naive_P=naive_P,
                      out=out, work=work)

    base_out = apply_map(f0)
    _colored_jacobian(apply_map, base_out, f0, U, fd_step(f0), cfg.order_m + 1, J)

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


def _maxabs(x: np.ndarray) -> float:
    """max|x| without an |x| temporary; 0 for an empty array."""
    return max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))


def _velocity_parity(U: np.ndarray):
    """Eigenvectors Z of U^T Pi U, +1 first, and how many have eigenvalue +1.

    Pi reverses the velocity index.  None unless every eigenvalue is +-1
    within 1e-12, that is unless the velocity reflection maps the unconserved
    span onto itself (a velocity grid symmetric about its midpoint).
    """
    w, Z = np.linalg.eigh(U.T @ U[::-1])
    if not np.all(np.abs(np.abs(w) - 1.0) <= 1e-12):
        return None
    return Z[:, ::-1], int(np.count_nonzero(w > 0.0))


def _reflect_in_place(J: np.ndarray, n_cells: int, U: np.ndarray,
                      scratch: np.ndarray) -> int | None:
    """Rotate J into an R-adapted basis in place when that makes it block diagonal.

    Velocity axes use the parity eigenvectors z_k (parity s_k = +-1) of
    ``_velocity_parity``.  Cell p < N // 2 pairs with its mirror
    p' = N - 1 - p: slot p of the new basis holds the R-symmetric vectors
    (e_p + s_k e_p') z_k / sqrt 2 in order k, slot p' the antisymmetric
    (e_p - s_k e_p') z_k / sqrt 2 in reverse order of k; for odd N the
    middle cell keeps e_h z_k, symmetric for s_k = +1.  The symmetric vectors
    are thus the first ``ns``, and the rotated J is [[S, B], [C, A]].  The
    reversed order lets the mirror half of a row be read as one reversed run
    instead of slot by slot.

    A first pass computes the rotated rows pair by pair into scratch and
    returns None, J untouched, as soon as an entry of B or C exceeds
    ``REFLECTION_RTOL`` * max|J|.  Otherwise a second pass writes the
    rotated rows over J's own (a pair's rows depend only on its two slots)
    and ``ns`` is returned.  ``scratch`` holds ``REFLECTION_SCRATCH`` arrays
    of N (q - k)^2 floats.
    """
    parity = _velocity_parity(U)
    if parity is None or n_cells < 2:
        return None
    Z, r_plus = parity
    r = U.shape[1]
    n = n_cells * r
    half = n_cells // 2
    width = half * r                  # columns of the near (and of the mirror) half
    ns = width + (r_plus if n_cells % 2 else 0)
    Zc = np.sqrt(0.5) * Z
    Zc_mirror = Zc * np.where(np.arange(r) < r_plus, 1.0, -1.0)
    row_near, row_mirror = Zc.T.copy(), Zc_mirror.T.copy()
    col_mirror = Zc_mirror[:, ::-1].copy()
    rows = J.reshape(n_cells, r, n)
    u, v, sym, anti, y, out_s, out_a = scratch.reshape(REFLECTION_SCRATCH, r, n)
    mirror_run = np.s_[:, :n - width - 1:-1]    # columns n - 1 .. n - width

    def rotate_columns(x, dest):
        x3, y3 = x.reshape(r, n_cells, r), y.reshape(r, n_cells, r)
        np.matmul(x3[:, :half], Zc, out=y3[:, :half])
        np.matmul(x3[:, n_cells - half:], col_mirror, out=y3[:, n_cells - half:])
        near, far = y[:, :width], y[mirror_run]
        np.add(near, far, out=dest[:, :width])
        np.subtract(near, far, out=dest[mirror_run])
        if n_cells % 2:
            np.matmul(x3[:, half], Z, out=dest[:, width:width + r])

    def rotate_pair(p, dest_s, dest_a):
        np.matmul(row_near, rows[p], out=u)
        np.matmul(row_mirror, rows[n_cells - 1 - p], out=v)
        np.add(u, v, out=sym)
        np.subtract(u[::-1], v[::-1], out=anti)
        rotate_columns(sym, dest_s)
        rotate_columns(anti, dest_a)

    def rotate_middle(dest):
        np.matmul(Z.T, rows[half], out=sym)
        rotate_columns(sym, dest)

    bound = REFLECTION_RTOL * _maxabs(J)
    for p in range(half):
        rotate_pair(p, out_s, out_a)
        if not max(_maxabs(out_s[:, ns:]), _maxabs(out_a[:, :ns])) <= bound:
            return None
    if n_cells % 2:
        rotate_middle(out_s)
        if not max(_maxabs(out_s[:r_plus, ns:]), _maxabs(out_s[r_plus:, :ns])) <= bound:
            return None

    for p in range(half):
        rotate_pair(p, rows[p], rows[n_cells - 1 - p])
    if n_cells % 2:
        rotate_middle(rows[half])
    return ns


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
    mirror reflection (``_reflect_in_place``), the eigenvalues are those of
    its two diagonal blocks, symmetric block first, and ``params`` records
    their sizes as ``reflection_blocks``; otherwise they come from one dense
    eigensolve of J.
    """
    n_cells, q = f0.shape
    r = q - basis.k
    n = check_dense_dimension(n_cells, basis)
    # J and then the reflection's scratch share one buffer.  The dense path
    # cuts the scratch off before its eigensolve copies J, so that the copy
    # can reuse that memory; resize needs every view of buf gone.
    buf = np.zeros(n * n + REFLECTION_SCRATCH * r * n)
    J = cr_jacobian_matrix(stepper, basis, f0, cfg, naive_P=naive_P,
                           out=buf[:n * n].reshape(n, n))
    params = {
        "N": n_cells, "q": q, "k": basis.k, "m": cfg.order_m,
        "projector": "naive" if naive_P is not None else "qr",
    }
    ns = _reflect_in_place(J, n_cells, unconserved_basis(basis), buf[n * n:])
    if ns is None:
        del J
        buf.resize(n * n)
        ev = np.linalg.eigvals(buf.reshape(n, n))
    else:
        # one block's eigensolve copy at a time
        ev = np.concatenate([np.linalg.eigvals(J[:ns, :ns]), np.linalg.eigvals(J[ns:, ns:])])
        params["reflection_blocks"] = [ns, n - ns]
    return _report(ev, "cr-jacobian", params)
